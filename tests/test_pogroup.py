"""Po-group instances, enumeration, homomorphisms, and the RDP searchers."""

import itertools

import pytest

from kitealg.indexsys import IndexSystem
from kitealg.pogroup import (
    DirectProduct,
    GroupHom,
    IntegerGroup,
    LexProduct,
    LoopGroup,
    PreconditionError,
    UnsupportedCarrier,
    VectorGroup,
    check_com,
    check_hom,
    check_po_group_axioms,
    directed_upper_bound,
    parse_group,
    rdp_witness,
)
from kitealg.poloop import PoLoop

Z = IntegerGroup()
Z2 = VectorGroup(2)
LEX = LexProduct(IntegerGroup(), IntegerGroup())


class TestGroupOp:
    def test_integer_addition(self):
        assert Z.op(2, 3) == 5

    def test_inverse_law(self):
        assert Z.op(7, Z.inv(7)) == 0

    def test_lex_componentwise(self):
        assert LEX.op((1, 5), (2, -3)) == (3, 2)


class TestLeq:
    def test_vector_incomparable(self):
        assert not Z2.leq((1, 0), (0, 1))
        assert not Z2.leq((0, 1), (1, 0))

    def test_lex_first_strict(self):
        assert LEX.leq((0, 100), (1, -100))

    def test_reflexive(self):
        assert Z.leq(3, 3)


class TestEnumerateBox:
    def test_integers(self):
        assert Z.enumerate_box(2) == [-2, -1, 0, 1, 2]

    def test_vector_count(self):
        assert len(Z2.enumerate_box(1)) == 9

    def test_lex_count_and_order(self):
        box = LEX.enumerate_box(1)
        assert len(box) == 9
        assert LEX.lt((-1, 1), (0, -1))

    def test_identity_in_box(self):
        for G in (Z, Z2, LEX, DirectProduct(IntegerGroup(), VectorGroup(2))):
            assert G.identity in G.enumerate_box(1)

    def test_opaque_carrier_raises(self):
        from kitealg.pogroup import PoGroup
        with pytest.raises(UnsupportedCarrier):
            PoGroup().enumerate_box(1)


class TestMeet:
    @pytest.mark.parametrize("desc", [
        "Z", "Z^1", "Z^2", "lex(Z,Z)", "lex(Z^1,Z^2)", "lex(lex(Z,Z),Z)",
        "prod(Z,Z)", "prod(lex(Z,Z),Z)",
    ])
    def test_meet_is_greatest_lower_bound(self, desc):
        G = parse_group(desc)
        assert G.has_meet
        box = G.enumerate_box(1)
        for a, b in itertools.product(box, repeat=2):
            m = G.meet(a, b)
            assert G.leq(m, a) and G.leq(m, b)
            assert all(G.leq(z, m) for z in box if G.leq(z, a) and G.leq(z, b))

    @pytest.mark.parametrize("desc", ["lex(Z^2,Z)", "lex(prod(Z,Z),Z)"])
    def test_no_meet_over_partially_ordered_left_factor(self, desc):
        G = parse_group(desc)
        assert not G.has_meet
        with pytest.raises(UnsupportedCarrier):
            G.meet(G.identity, G.identity)

    @pytest.mark.parametrize("desc", [
        "Z", "Z^1", "Z^2", "lex(Z,Z)", "lex(Z,Z^2)", "lex(Z^2,Z)", "prod(Z,Z)",
    ])
    def test_totally_ordered_flag(self, desc):
        G = parse_group(desc)
        box = G.enumerate_box(1)
        comparable = all(G.leq(a, b) or G.leq(b, a)
                         for a, b in itertools.product(box, repeat=2))
        assert G.totally_ordered == comparable


class TestParseGroup:
    @pytest.mark.parametrize("desc,name", [
        ("Z", "Z"),
        ("Z^3", "Z^3"),
        ("lex(Z,Z)", "lex(Z,Z)"),
        ("prod(Z,Z^2)", "prod(Z,Z^2)"),
        ("lex(prod(Z,Z),Z^2)", "lex(prod(Z,Z),Z^2)"),
    ])
    def test_roundtrip(self, desc, name):
        assert parse_group(desc).name == name

    @pytest.mark.parametrize("bad", ["", "Q", "Z^", "lex(Z)", "Z,Z", "lex(Z,Z"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_group(bad)


class TestAxioms:
    @pytest.mark.parametrize("G", [Z, Z2, LEX, DirectProduct(IntegerGroup(), IntegerGroup())],
                             ids=lambda g: g.name)
    def test_builtin_axioms_hold(self, G):
        assert check_po_group_axioms(G, bound=2).ok

    def test_directed(self):
        for G in (Z, Z2, LEX):
            box = G.enumerate_box(2)
            for g1, g2 in itertools.islice(itertools.product(box, box), 0, None, 7):
                assert directed_upper_bound(G, g1, g2, 2) is not None


class TestEncoding:
    def test_flat_left_first(self):
        G = LexProduct(IntegerGroup(), VectorGroup(2))
        assert G.encode((3, (1, 2))) == (3, 1, 2)


def _twisted_group():
    # associative (twists commute: id commutes with everything) but the
    # twisted product is non-commutative even over abelian Z
    sys = IndexSystem.from_one_based([1, 2], [2, 1])
    return LoopGroup(PoLoop(IntegerGroup(), sys))


class TestCheckCom:
    def test_abelian_true(self):
        assert check_com(Z, 2, 3, bound=3).ok

    def test_abelian_builtins(self):
        assert check_com(Z2, (1, 1), (2, 0), bound=2).ok
        assert check_com(LEX, (1, 0), (0, 1), bound=1).ok

    def test_noncommutative_wrapper_has_witness(self):
        G = _twisted_group()
        # oracle: exhaustively hunt a failing (a, b) over the positive box
        pos = [g for g in G.enumerate_box(1) if G.is_positive(g)]
        found = None
        for a, b in itertools.product(pos, repeat=2):
            v = check_com(G, a, b, bound=1)
            if v.failed:
                found = (a, b, v)
                break
        assert found is not None
        a, b, v = found
        x, y = v.witnesses[0]
        assert G.op(x, y) != G.op(y, x)

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            check_com(Z, -1, 2, bound=2)


def brute_force_rdp(G, a1, a2, b1, b2, bound, side=None):
    """Independent oracle: enumerate all four matrix entries directly."""
    pos = [g for g in G.enumerate_box(bound) if G.is_positive(g)]
    for c11, c12, c21, c22 in itertools.product(pos, repeat=4):
        if (G.op(c11, c12) == a1 and G.op(c21, c22) == a2
                and G.op(c11, c21) == b1 and G.op(c12, c22) == b2
                and (side is None or side(c12, c21))):
            return (c11, c12, c21, c22)
    return None


class TestRdpWitness:
    def test_rdp_integers(self):
        w = rdp_witness(Z, "RDP", 2, 3, 4, 1, bound=5)
        assert w.found
        (c11, c12), (c21, c22) = w.refinement
        assert (c11 + c12, c21 + c22, c11 + c21, c12 + c22) == (2, 3, 4, 1)
        assert brute_force_rdp(Z, 2, 3, 4, 1, 5) is not None

    def test_rip_chain(self):
        w = rdp_witness(Z, "RIP", 0, 0, 1, 1, bound=2)
        assert w.found
        c = w.refinement[0]
        assert 0 <= c <= 1

    def test_rdp2_vector(self):
        w = rdp_witness(Z2, "RDP2", (1, 0), (0, 1), (0, 1), (1, 0), bound=2)
        assert w.found
        (c11, c12), (c21, c22) = w.refinement
        assert Z2.meet(c12, c21) == (0, 0)
        oracle = brute_force_rdp(Z2, (1, 0), (0, 1), (0, 1), (1, 0), 2,
                                 side=lambda x, y: Z2.meet(x, y) == (0, 0))
        assert oracle is not None

    def test_rdp0(self):
        w = rdp_witness(Z, "RDP0", 3, 0, 2, 2, bound=4)
        assert w.found
        (c11, c12), _ = w.refinement
        assert c11 + c12 == 3 and c11 <= 2 and c12 <= 2

    def test_precondition_sum_mismatch(self):
        with pytest.raises(PreconditionError):
            rdp_witness(Z, "RDP", 1, 1, 3, 3, bound=3)

    def test_precondition_negative(self):
        with pytest.raises(PreconditionError):
            rdp_witness(Z, "RDP", -1, 3, 1, 1, bound=3)

    def test_unknown_variant(self):
        with pytest.raises(PreconditionError):
            rdp_witness(Z, "RDP3", 0, 0, 0, 0, bound=1)

    def test_abelian_variants_agree(self):
        # RDP0/RDP/RDP1 witness existence coincides on every tested quadruple
        pos = [0, 1, 2]
        for a1, a2, b1 in itertools.product(pos, repeat=3):
            b2 = a1 + a2 - b1
            if b2 < 0:
                continue
            results = {
                v: rdp_witness(Z, v, a1, a2, b1, b2, bound=4).found
                for v in ("RDP", "RDP1")
            }
            results["RDP0"] = rdp_witness(Z, "RDP0", a1, 0, b1, b2, bound=4).found
            assert all(results.values()), (a1, a2, b1, b2, results)

    def test_lgroups_have_rdp2_everywhere(self):
        for G in (Z, Z2):
            pos = [g for g in G.enumerate_box(1) if G.is_positive(g)]
            for a1, a2, b1 in itertools.product(pos, repeat=3):
                b2 = G.op(G.inv(b1), G.op(a1, a2))
                if not G.is_positive(b2):
                    continue
                assert rdp_witness(G, "RDP2", a1, a2, b1, b2, bound=3).found


class TestCheckHom:
    def test_identity(self):
        h = GroupHom(Z, Z, lambda g: g, "id")
        assert check_hom(h, bound=2).ok

    def test_doubling(self):
        h = GroupHom(Z, Z, lambda g: 2 * g, "double")
        assert check_hom(h, bound=2).ok

    def test_shift_fails_at_identity(self):
        h = GroupHom(Z, Z, lambda g: g + 1, "shift")
        v = check_hom(h, bound=2)
        assert v.failed and v.witnesses[0][0] == "identity"


class TestLoopGroup:
    def test_rejects_nonassociative(self, ex82):
        with pytest.raises(PreconditionError):
            LoopGroup(PoLoop(IntegerGroup(), ex82))

    def test_axioms_hold(self):
        assert check_po_group_axioms(_twisted_group(), bound=1).ok
