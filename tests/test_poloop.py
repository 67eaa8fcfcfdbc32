"""The twisted po-loop, its interval algebra, the kite embedding, and the
block-constant subgroups, built from the loop of the induced block system."""

import itertools
import operator
import random
import tracemalloc

import pytest

from kitealg import verdict
from kitealg.indexsys import validate_decomposition
from kitealg.kite import KiteAlgebra
from kitealg.pogroup import IntegerGroup, LexProduct, VectorGroup
from kitealg.poloop import (
    GammaInterval,
    LoopElement,
    PoLoop,
    block_subgroup,
    check_whole_block_lex_agreement,
    criteria_disagree,
    embed_kite,
    embed_kite_element,
    inverse_formula_readings,
    is_associative,
    strong_unit_check,
)

from conftest import EX_3_8, EX_8_2, EX_8_4, EX_8_5, TEN_SYSTEMS, LoopGroup, system

Z = IntegerGroup()


@pytest.fixture
def W82(ex82):
    return PoLoop(Z, ex82)


@pytest.fixture
def W38(ex38):
    return PoLoop(Z, ex38)


class TestMul:
    def test_known_product(self):
        # swap system on 2 coordinates: (1,(1,2)) * (0,(3,4)) = (1,(5,5))
        W = PoLoop(Z, system([1, 2], [2, 1]))
        p, q = LoopElement(1, (1, 2)), LoopElement(0, (3, 4))
        assert W.mul(p, q) == LoopElement(1, (5, 5))

    def test_neutral(self, W82):
        for p in list(W82.enumerate_box(1))[::17]:
            assert W82.mul(p, W82.neutral) == p
            assert W82.mul(W82.neutral, p) == p

    def test_m_adds(self, W82):
        p = LoopElement(2, (1, 0, 0, 0))
        q = LoopElement(-1, (0, 0, 1, 0))
        assert W82.mul(p, q).m == 1

    def test_shape(self, W82):
        with pytest.raises(ValueError):
            W82.mul(LoopElement(0, (1, 2)), W82.neutral)


class TestInverses:
    def test_known_values(self):
        W = PoLoop(Z, system([1, 2], [2, 1]))
        right, left = W.inverses(LoopElement(1, (1, 2)))
        assert right == LoopElement(-1, (-2, -1))
        assert left == LoopElement(-1, (-2, -1))

    @pytest.mark.parametrize("name,lam,rho", TEN_SYSTEMS,
                             ids=[t[0] for t in TEN_SYSTEMS])
    def test_laws_hold_everywhere(self, name, lam, rho):
        W = PoLoop(Z, system(lam, rho))
        for p in W.enumerate_box(1):
            right, left = W.inverses(p)
            assert W.mul(p, right) == W.neutral, p
            assert W.mul(left, p) == W.neutral, p

    def test_formula_readings_consistent(self, W82):
        # one reading validates per side, uniformly over the box
        keys = None
        for p in W82.enumerate_box(1):
            r = inverse_formula_readings(W82, p)
            assert any(r[k] for k in r if k.startswith("right"))
            assert any(r[k] for k in r if k.startswith("left"))
            valid = frozenset(k for k, v in r.items() if p.m != 0 and v)
            if p.m != 0 and keys is None:
                keys = valid
        # the convention question only bites at m != 0 and for moved indices
        assert "right_matches_lam_after_rho" in keys


def _twisted_group():
    # associative (the twists commute), with a non-commutative product
    return LoopGroup(PoLoop(Z, system([1, 2], [2, 1])))


class TestDivision:
    @pytest.mark.parametrize("G", [Z, VectorGroup(2), _twisted_group()],
                             ids=["Z", "Z^2", "loop-group"])
    @pytest.mark.parametrize("name,lam,rho", [TEN_SYSTEMS[3], TEN_SYSTEMS[6]],
                             ids=["cycles-3", "ex8.2"])
    def test_divisions_solve_the_product(self, G, name, lam, rho):
        W = PoLoop(G, system(lam, rho))
        gbox = G.enumerate_box(1)
        rng = random.Random(5)

        def draw():
            return LoopElement(rng.randint(-2, 2),
                               tuple(rng.choice(gbox) for _ in range(W.sys.n)))

        for _ in range(200):
            p, t = draw(), draw()
            assert W.mul(p, W.right_div(p, t)) == t, (p, t)
            assert W.mul(W.left_div(t, p), p) == t, (p, t)

    @pytest.mark.parametrize("G", [Z, VectorGroup(2), _twisted_group()],
                             ids=["Z", "Z^2", "loop-group"])
    @pytest.mark.parametrize("name,lam,rho", [TEN_SYSTEMS[3], TEN_SYSTEMS[6]],
                             ids=["cycles-3", "ex8.2"])
    def test_kite_differences_solve_the_sum(self, G, name, lam, rho):
        # over the loop-group the order of each solve's product matters:
        # d + a = b gives b.a^-1 and a + c = b gives a^-1.b
        A = KiteAlgebra(G, system(lam, rho))
        box = A.enumerate_box(1)
        rng = random.Random(7)
        tags = set()
        for _ in range(400):
            a, b = box[rng.randrange(len(box))], box[rng.randrange(len(box))]
            assert A.add(A.complement_minus(a), a) == A.one, a
            assert A.add(a, A.complement_tilde(a)) == A.one, a
            s = A.add(a, b)
            if s is None:
                continue
            tags.add((a.tag, b.tag))
            assert A.diff_left(s, b) == a, (a, b)
            assert A.diff_right(a, s) == b, (a, b)
        assert tags == {("L", "L"), ("L", "U"), ("U", "L")}

    # a search of the bound-2 box, independent of the solves: twisted sums
    # over Z and Z^2, and on one coordinate (where that box stays small) a
    # group with no meet and a non-commutative one
    @pytest.mark.parametrize("G, lam, rho", [
        (Z, [2, 3, 1], [3, 1, 2]),
        (VectorGroup(2), [2, 1], [1, 2]),
        (LexProduct(VectorGroup(2), Z), [1], [1]),
        (_twisted_group(), [1], [1]),
    ], ids=["Z", "Z^2", "lex(Z^2,Z)", "loop-group"])
    def test_kite_differences_are_the_box_solutions(self, G, lam, rho):
        A = KiteAlgebra(G, system(lam, rho))
        box = list(A.enumerate_box(1))
        inside = set(box)
        right, left = {}, {}  # (a, a + x) -> x and (x + a, a) -> x
        for x in A.enumerate_box(2):
            for a in box:
                s = A.add(a, x)
                if s in inside:
                    assert right.setdefault((a, s), x) == x
                s = A.add(x, a)
                if s in inside:
                    assert left.setdefault((s, a), x) == x
        assert right and left
        for a, b in itertools.product(box, repeat=2):
            assert A.diff_right(a, b) == right.get((a, b)), (a, b)
            assert A.diff_left(b, a) == left.get((b, a)), (a, b)


class TestOrder:
    def test_lexicographic(self, W82):
        assert W82.leq(LoopElement(0, (100, 100, 100, 100)),
                       LoopElement(1, (-100, 0, 0, 0)))
        assert not W82.leq(LoopElement(1, (0, 0, 0, 0)),
                           LoopElement(0, (5, 5, 5, 5)))

    def test_same_level_coordinatewise(self, W82):
        assert W82.leq(LoopElement(0, (0, 1, 0, 0)), LoopElement(0, (1, 1, 0, 0)))
        assert not W82.leq(LoopElement(0, (0, 1, 0, 0)), LoopElement(0, (1, 0, 1, 1)))

    def test_translation_invariance(self, W38):
        box = W38.enumerate_box(1)
        for p, q in itertools.islice(itertools.product(box, repeat=2), 0, None, 97):
            if W38.leq(p, q):
                t = box[13]
                assert W38.leq(W38.mul(t, p), W38.mul(t, q))
                assert W38.leq(W38.mul(p, t), W38.mul(q, t))


class TestAssociativity:
    def test_commuting_twists_pass(self, ex38):
        v = is_associative(PoLoop(Z, ex38), bound=1)
        assert v.ok and "twists commute" in v.detail

    def test_noncommuting_twists_fail_with_witness(self, W82):
        v = is_associative(W82, bound=1)
        assert v.failed and "witness" in v.detail
        p, q, r = v.witnesses[0]
        assert W82.mul(W82.mul(p, q), r) != W82.mul(p, W82.mul(q, r))

    @pytest.mark.parametrize(
        "lam,rho,bound",
        [(lam, rho, b) for b in (0, 1, 2) for _, lam, rho in TEN_SYSTEMS],
        ids=[name if b == 1 else f"{name}-bound{b}" for b in (0, 1, 2)
             for name, _, _ in TEN_SYSTEMS])
    def test_criteria_never_disagree(self, lam, rho, bound):
        # at bound 0 the box holds only the neutral element: non-associativity
        # is still decided, with no concrete witness
        W = PoLoop(Z, system(lam, rho))
        v = is_associative(W, bound=bound)
        assert not criteria_disagree(v), v.detail
        assert v.ok == W.twists_commute()
        if v.failed and bound == 0:
            assert v.witnesses[0][0] == "levels" and "no concrete witness" in v.detail

    def test_large_box_is_streamed(self, ex82):
        # 5 levels of 25**4 tuples: the witness is built from the generic
        # defect without building the box
        W = PoLoop(VectorGroup(2), ex82)
        assert len(W.enumerate_box(2)) == 1_953_125
        tracemalloc.start()
        try:
            v = is_associative(W, bound=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000
        assert v.failed and v.checked == 2
        e = (0, 0)
        middle = LoopElement(-1, (e, (-2, -2), e, e))
        assert v.witnesses == ((W.u_power(-1), middle, W.u_power(-1)),)

    @pytest.mark.parametrize("G", [Z, VectorGroup(2), LexProduct(Z, Z)],
                             ids=["Z", "Z^2", "lex(Z,Z)"])
    @pytest.mark.parametrize("twists", [EX_8_2, EX_8_4, EX_8_5], ids=["ex8.2", "ex8.4", "ex8.5"])
    def test_box_witness_fails_under_the_real_product(self, twists, G):
        W = PoLoop(G, system(*twists))
        v = is_associative(W, bound=1)
        assert v.failed and not criteria_disagree(v)
        (p, q, r), = v.witnesses
        assert W.mul(W.mul(p, q), r) != W.mul(p, W.mul(q, r))
        assert all(abs(x.m) <= 1 for x in (p, q, r))

    @pytest.mark.parametrize("twists", [EX_3_8, EX_8_2], ids=["ex3.8", "ex8.2"])
    def test_inverted_permutation_test_is_a_disagreement(self, monkeypatch, twists):
        # with the permutation criterion planted wrong, the generic product
        # must contradict it, on either side of the dichotomy
        commute = PoLoop.twists_commute
        monkeypatch.setattr(PoLoop, "twists_commute", lambda W: not commute(W))
        assert criteria_disagree(is_associative(PoLoop(Z, system(*twists)), bound=1))

    @pytest.mark.parametrize("twists,op", [(EX_3_8, operator.sub), (EX_8_2, lambda x, y: x)],
                             ids=["ex3.8-subtract", "ex8.2-left-factor"])
    def test_a_wrong_group_product_is_a_disagreement(self, twists, op):
        # the generic criterion never calls G: the box triples (associative
        # loop) and the witness (non-associative one) tie the verdict to it
        class Wrong(IntegerGroup):
            def op_each(self, xs, ys):
                return tuple(map(op, xs, ys))
        v = is_associative(PoLoop(Wrong(), system(*twists)), bound=1)
        assert criteria_disagree(v) and len(v.witnesses[0][2]) == 3


class TestStrongUnit:
    def test_bounded_box(self, W82):
        v = strong_unit_check(W82, W82.enumerate_box(1), nmax=3)
        assert v.ok

    def test_exponent_tracks_m(self, W82):
        v = strong_unit_check(W82, [LoopElement(2, (1, 1, 1, 1))], nmax=5)
        assert v.ok and "3" in v.detail

    def test_unreachable(self, W82):
        v = strong_unit_check(W82, [LoopElement(7, (0, 0, 0, 0))], nmax=3)
        assert v.failed


class TestGamma:
    def test_interval_membership(self, W82):
        g = GammaInterval(W82)
        assert g.contains(LoopElement(0, (3, 0, 1, 0)))
        assert g.contains(LoopElement(1, (-2, 0, 0, 0)))
        assert not g.contains(LoopElement(0, (-1, 0, 0, 0)))
        assert not g.contains(LoopElement(2, (0, 0, 0, 0)))

    def test_add_restricts_product(self, W82):
        g = GammaInterval(W82)
        a = LoopElement(1, (-1, 0, 0, 0))
        b = LoopElement(1, (0, 0, 0, 0))
        assert g.add(a, b) is None  # m would reach 2
        assert g.add(LoopElement(0, (1, 0, 0, 0)), LoopElement(0, (0, 1, 0, 0))) \
            == LoopElement(0, (1, 1, 0, 0))

    def test_rejects_outsiders(self, W82):
        with pytest.raises(ValueError):
            GammaInterval(W82).add(LoopElement(-1, (0, 0, 0, 0)), W82.neutral)

    @pytest.mark.parametrize("name,lam,rho", TEN_SYSTEMS,
                             ids=[t[0] for t in TEN_SYSTEMS])
    def test_complements_remultiply(self, name, lam, rho):
        g = GammaInterval(PoLoop(Z, system(lam, rho)))
        assert g.check_complements(bound=1).ok

    @pytest.mark.parametrize("name,lam,rho", TEN_SYSTEMS,
                             ids=[t[0] for t in TEN_SYSTEMS])
    def test_complements_match_the_kite(self, name, lam, rho):
        # loop division against the kite's closed forms, through phi
        A = KiteAlgebra(Z, system(lam, rho))
        g = GammaInterval(PoLoop(Z, A.sys))
        for x in A.enumerate_box(1):
            p = embed_kite_element(x)
            assert g.complement_tilde(p) == embed_kite_element(A.complement_tilde(x))
            assert g.complement_minus(p) == embed_kite_element(A.complement_minus(x))


class TestEmbedding:
    def test_element_map(self, ex82):
        A = KiteAlgebra(Z, ex82)
        assert embed_kite_element(A.lower(1, 2, 0, 3)) == LoopElement(0, (1, 2, 0, 3))
        assert embed_kite_element(A.upper(-1, 0, -2, 0)) == LoopElement(1, (-1, 0, -2, 0))
        assert embed_kite_element(A.zero) == LoopElement(0, (0, 0, 0, 0))
        assert embed_kite_element(A.one) == LoopElement(1, (0, 0, 0, 0))

    @pytest.mark.parametrize("name,lam,rho", TEN_SYSTEMS,
                             ids=[t[0] for t in TEN_SYSTEMS])
    def test_isomorphism_on_box(self, name, lam, rho):
        assert embed_kite(KiteAlgebra(Z, system(lam, rho)), bound=1).ok

    def test_vector_group(self):
        A = KiteAlgebra(VectorGroup(2), system([1, 2], [2, 1]))
        assert embed_kite(A, bound=1).ok

    @pytest.mark.parametrize("G", [Z, VectorGroup(2)], ids=["Z", "Z^2"])
    def test_bound_zero(self, ex82, G):
        # at bound 0 the interval's box is {neutral, u}
        A = KiteAlgebra(G, ex82)
        W = PoLoop(G, ex82)
        gamma = GammaInterval(W)
        assert list(gamma.enumerate_box(0)) == [W.neutral, W.unit]
        assert embed_kite(A, bound=0).ok
        assert gamma.check_complements(0).ok


def set_partitions(items):
    """Every set partition of the list items, each a list of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for p in set_partitions(rest):
        yield [[first], *p]
        for k in range(len(p)):
            yield [*p[:k], [first, *p[k]], *p[k + 1:]]


class WrongTwist(PoLoop):
    """A planted fault: the product reads rho where it should read lambda."""

    def mul(self, p, q):
        return LoopElement(p.m + q.m, self.G.op_each(
            map(p.coords.__getitem__, self.rho_pow(-q.m)),
            map(q.coords.__getitem__, self.rho_pow(-p.m))))


class TestBlockSubgroup:
    @pytest.mark.parametrize("G", [Z, VectorGroup(2)], ids=["Z", "Z^2"])
    @pytest.mark.parametrize("name,lam,rho", TEN_SYSTEMS,
                             ids=[t[0] for t in TEN_SYSTEMS])
    def test_lift_is_the_block_constant_filter(self, G, name, lam, rho):
        # for every valid decomposition: the block system's box, lifted, is
        # the block-constant part of W's own box in W's order, and the
        # verdict counts the pairs, one inverse check per element, the 27
        # generic level triples and every pair of the interval part
        W = PoLoop(G, system(lam, rho))
        wbox = list(W.enumerate_box(1))
        gamma = GammaInterval(W)
        valid = [b for b in set_partitions(list(range(W.sys.n)))
                 if validate_decomposition(W.sys, b).ok]
        assert [list(range(W.sys.n))] in valid
        for blocks in valid:
            blocks = sorted(map(set, blocks), key=min)
            owner = [next(k for k, b in enumerate(blocks) if i in b) for i in range(W.sys.n)]
            Wb, v = block_subgroup(W, blocks, bound=1)
            for k, b in enumerate(blocks):
                assert {W.sys.lam[i] for i in b} == blocks[Wb.sys.lam[k]]
                assert {W.sys.rho[i] for i in b} == blocks[Wb.sys.rho[k]]
            hbox = [p for p in wbox if all(len({p.coords[i] for i in b}) == 1 for b in blocks)]
            lifted = [LoopElement(h.m, tuple(h.coords[k] for k in owner))
                      for h in Wb.enumerate_box(1)]
            assert lifted == hbox, blocks
            pairs = len(hbox) ** 2 if len(hbox) ** 2 <= verdict.CAP else verdict.DRAWS
            interval = sum(map(gamma.contains, hbox))
            assert v.ok and v.checked == pairs + len(hbox) + 27 + interval ** 2, (blocks, v)

    def test_wrong_twist_fails(self, ex84):
        # the planted product keeps the block-constant elements closed on
        # ex8.4's blocks; the lift's homomorphism check catches it
        _, v = block_subgroup(WrongTwist(Z, ex84), [{0, 3}, {1, 2}], bound=1)
        assert v.failed and v.witnesses[0][0] == "mul-homomorphism", v

    def test_valid_decomposition_passes(self, ex84):
        W = PoLoop(Z, ex84)
        Wb, v = block_subgroup(W, [{0, 3}, {1, 2}], bound=1)
        assert v.ok, v.detail
        # the twists induce swap-2 on the blocks, whose unit lifts to W's
        assert Wb.sys == system([1, 2], [2, 1])
        assert LoopElement(1, tuple(Wb.unit.coords[k] for k in (0, 1, 1, 0))) == W.unit

    def test_whole_block_always_valid(self):
        for name, lam, rho in TEN_SYSTEMS:
            sys = system(lam, rho)
            W = PoLoop(Z, sys)
            _, v = block_subgroup(W, [set(range(sys.n))], bound=1)
            assert v.ok, (name, v.detail)

    def test_invalid_decomposition_rejected(self, ex85):
        with pytest.raises(ValueError):
            block_subgroup(PoLoop(Z, ex85), [{0, 3}, {1, 2}], bound=1)

    @pytest.mark.parametrize("name,lam,rho", TEN_SYSTEMS,
                             ids=[t[0] for t in TEN_SYSTEMS])
    def test_lex_agreement(self, name, lam, rho):
        assert check_whole_block_lex_agreement(PoLoop(Z, system(lam, rho)), bound=1).ok
