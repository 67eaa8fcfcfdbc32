"""Po-group instances, enumeration, meets, the descriptor parser, and the
po-group laws of the built-in groups and of the test oracle LoopGroup
(tests/conftest.py), a twisted po-loop read as a group."""

import itertools

import pytest

from kitealg.indexsys import IndexSystem
from kitealg.pogroup import (
    DirectProduct,
    IntegerGroup,
    LexProduct,
    MAX_NESTING,
    UnsupportedCarrier,
    VectorGroup,
    parse_group,
)
from kitealg.poloop import PoLoop

from conftest import LoopGroup, PreconditionError, check_po_group_axioms

Z = IntegerGroup()
Z2 = VectorGroup(2)
LEX = LexProduct(IntegerGroup(), IntegerGroup())
DEEPEST = "lex(" * MAX_NESTING + "Z" + ",Z)" * MAX_NESTING


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
        pytest.param(DEEPEST, DEEPEST, id="deepest"),
    ])
    def test_roundtrip(self, desc, name):
        assert parse_group(desc).name == name

    @pytest.mark.parametrize("bad", ["", "Q", "Z^", "lex(Z)", "Z,Z", "lex(Z,Z",
                                     pytest.param("prod(" + DEEPEST + ",Z)",
                                                  id="one-level-too-deep")])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_group(bad)


class TestAxioms:
    @pytest.mark.parametrize("G", [Z, Z2, LEX, DirectProduct(IntegerGroup(), IntegerGroup())],
                             ids=lambda g: g.name)
    def test_builtin_axioms_hold(self, G):
        assert check_po_group_axioms(G, bound=2).ok


class TestEncoding:
    def test_flat_left_first(self):
        G = LexProduct(IntegerGroup(), VectorGroup(2))
        assert G.encode((3, (1, 2))) == (3, 1, 2)


def _twisted_group():
    # associative (twists commute: id commutes with everything) but the
    # twisted product is non-commutative even over abelian Z
    sys = IndexSystem.from_one_based([1, 2], [2, 1])
    return LoopGroup(PoLoop(IntegerGroup(), sys))


class TestLoopGroup:
    def test_rejects_nonassociative(self, ex82):
        with pytest.raises(PreconditionError):
            LoopGroup(PoLoop(IntegerGroup(), ex82))

    def test_axioms_hold(self):
        assert check_po_group_axioms(_twisted_group(), bound=1).ok
