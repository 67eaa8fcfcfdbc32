"""The kite partial algebra: membership, the box and its sampling, addition,
complements, meets, and the axiom and refinement checkers."""

import ast
import itertools
import random
import tracemalloc
from pathlib import Path

import pytest

from kitealg.cli import bounded_sample
from kitealg.kite import (
    LOWER,
    UPPER,
    KiteAlgebra,
    KiteElement,
    ShapeMismatch,
    _refine,
    check_commutativity,
    check_kite_rdp,
    check_pea_axioms,
    find_kite_refinement,
    quadruple_box,
    rdp_quadruples,
    sum_classes,
)
from kitealg.pogroup import IntegerGroup, VectorGroup, parse_group

from conftest import EX_3_8, EX_8_2, TEN_SYSTEMS, set_budget, system

Z = IntegerGroup()


@pytest.fixture
def K82(ex82):
    return KiteAlgebra(Z, ex82)


class TestCarrier:
    def test_units_distinct(self, K82):
        assert K82.zero == KiteElement(LOWER, (0, 0, 0, 0))
        assert K82.one == KiteElement(UPPER, (0, 0, 0, 0))
        assert K82.zero != K82.one

    def test_membership(self, K82):
        assert K82.is_member(K82.lower(1, 0, 2, 3))
        assert K82.is_member(K82.upper(-1, 0, -2, -3))
        assert not K82.is_member(K82.lower(1, -1, 0, 0))
        assert not K82.is_member(K82.upper(1, 0, 0, 0))
        assert not K82.is_member(K82.lower(1, 1))

    def test_box_count(self):
        # n = 2, bound 2: 3^2 lowers + 3^2 uppers
        A = KiteAlgebra(Z, system([1, 2], [2, 1]))
        box = A.enumerate_box(2)
        assert len(box) == 18
        assert box[0] == A.zero
        assert all(A.is_member(x) for x in box)

    def test_shape_mismatch(self, K82):
        with pytest.raises(ShapeMismatch):
            K82.add(K82.lower(1, 2), K82.zero)


class TestOrder:
    def test_layers(self, K82):
        low, up = K82.lower(3, 0, 0, 0), K82.upper(0, -5, 0, 0)
        assert K82.leq(low, up)
        assert not K82.leq(up, low)

    def test_within_layer(self, K82):
        assert K82.leq(K82.lower(1, 0, 2, 0), K82.lower(1, 1, 2, 0))
        assert K82.leq(K82.upper(-2, 0, 0, 0), K82.upper(-1, 0, 0, 0))
        assert not K82.leq(K82.lower(2, 0, 0, 0), K82.lower(1, 5, 5, 5))

    def test_bounds(self, K82):
        for x in KiteAlgebra(Z, K82.sys).enumerate_box(1):
            assert K82.leq(K82.zero, x)
            assert K82.leq(x, K82.one)


class TestAddition:
    def test_upper_plus_upper_undefined(self, K82):
        assert K82.add(K82.one, K82.one) is None

    def test_lower_coordinatewise(self, K82):
        assert K82.add(K82.lower(1, 2, 0, 3), K82.lower(0, 1, 1, 1)) == \
            K82.lower(1, 3, 1, 4)

    def test_upper_plus_lower_known_value(self):
        # n = 2 swap system: U(-3,-5) + L(4,2) lands at U[-1,-1]
        A = KiteAlgebra(Z, system([1, 2], [2, 1]))
        s = A.add(A.upper(-3, -5), A.lower(4, 2))
        assert s == A.upper(-1, -1)

    def test_upper_plus_lower_undefined(self):
        # second coordinate would cross into the positive layer
        A = KiteAlgebra(Z, system([1, 2], [2, 1]))
        assert A.add(A.upper(-3, -5), A.lower(4, 4)) is None

    def test_lower_plus_upper_twist(self):
        A = KiteAlgebra(Z, system([2, 1], [1, 2]))
        # coordinate i takes f at lam^-1(i): lam = swap, so coords cross over
        s = A.add(A.lower(1, 0), A.upper(-2, -2))
        assert s == A.upper(-2, -1)

    def test_matches_brute_force_definition(self, ex82):
        # oracle: re-derive U+L and L+U directly from the index formulas
        A = KiteAlgebra(Z, ex82)
        box = A.enumerate_box(1)
        lam_inv, rho_inv = ex82.lam_inv, ex82.rho_inv
        for x, y in itertools.product(box, repeat=2):
            got = A.add(x, y)
            if x.tag == UPPER and y.tag == LOWER:
                want = [x.coords[i] + y.coords[rho_inv[i]] for i in range(4)]
                ok = all(y.coords[rho_inv[i]] <= -x.coords[i] for i in range(4))
            elif x.tag == LOWER and y.tag == UPPER:
                want = [x.coords[lam_inv[i]] + y.coords[i] for i in range(4)]
                ok = all(x.coords[lam_inv[i]] <= -y.coords[i] for i in range(4))
            else:
                continue
            if ok:
                assert got == KiteElement(UPPER, tuple(want)), (x, y)
            else:
                assert got is None, (x, y)


class TestComplements:
    def test_known_value(self):
        A = KiteAlgebra(Z, system([1, 2], [2, 1]))
        assert A.complement_minus(A.lower(4, 2)) == A.upper(-2, -4)

    @pytest.mark.parametrize("name,lam,rho", TEN_SYSTEMS,
                             ids=[t[0] for t in TEN_SYSTEMS])
    def test_readdition_everywhere(self, name, lam, rho):
        A = KiteAlgebra(Z, system(lam, rho))
        for x in A.enumerate_box(1):
            assert A.add(A.complement_minus(x), x) == A.one
            assert A.add(x, A.complement_tilde(x)) == A.one

    def test_involution(self, K82):
        for x in K82.enumerate_box(1):
            assert K82.complement_minus(K82.complement_tilde(x)) == x
            assert K82.complement_tilde(K82.complement_minus(x)) == x

    def test_units(self, K82):
        assert K82.complement_minus(K82.zero) == K82.one
        assert K82.complement_tilde(K82.one) == K82.zero


class TestDifferences:
    def test_roundtrip(self, K82):
        box = K82.enumerate_box(1)
        for a, b in itertools.product(box, repeat=2):
            s = K82.add(a, b)
            if s is None:
                continue
            assert K82.diff_right(a, s) == b
            assert K82.diff_left(s, b) == a

    def test_none_when_not_below(self, K82):
        assert K82.diff_right(K82.one, K82.zero) is None
        assert K82.diff_left(K82.zero, K82.lower(1, 0, 0, 0)) is None


def test_readme_library_example():
    # the README's python block runs, and each expression in it gives the
    # value its comment states
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values.append(repr(eval(compile(ast.Expression(stmt.value), "README", "eval"),
                                    namespace)))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert values == ["U[-3, -1, 0, 0]", "U[0, -1, -2, -3]"]
    assert all(f": {v}\n" in block for v in values)


class TestAxiomChecker:
    def test_passes_on_examples(self, ex82, ex38):
        for sys in (ex82, ex38):
            A = KiteAlgebra(Z, sys)
            assert check_pea_axioms(A, A.enumerate_box(1)).ok

    def test_vector_group(self):
        A = KiteAlgebra(VectorGroup(2), system([1, 2], [2, 1]))
        assert check_pea_axioms(A, A.enumerate_box(1)).ok

    def test_sampled_tier_reports_mode(self, monkeypatch):
        set_budget(monkeypatch, 1000, 500)
        A = KiteAlgebra(Z, system([1, 3, 2, 4], [2, 3, 1, 4]))
        v = check_pea_axioms(A, A.enumerate_box(2))
        assert v.ok and "sampled" in v.detail

    def test_detects_broken_addition(self, ex82):
        # mutation: drop the definedness guard on Upper + Lower
        class Broken(KiteAlgebra):
            def add(self, x, y):
                if x.tag == UPPER and y.tag == LOWER:
                    rho_inv = self.sys.rho_inv
                    return KiteElement(UPPER, tuple(
                        self.G.op(x.coords[i], y.coords[rho_inv[i]])
                        for i in range(self.sys.n)))
                return super().add(x, y)

        A = Broken(Z, ex82)
        v = check_pea_axioms(A, KiteAlgebra(Z, ex82).enumerate_box(1))
        assert v.failed

    def test_detects_broken_twist(self, ex82):
        # mutation: use lambda where rho belongs in Upper + Lower
        class Twisted(KiteAlgebra):
            def add(self, x, y):
                if x.tag == UPPER and y.tag == LOWER:
                    G, lam_inv = self.G, self.sys.lam_inv
                    out = []
                    for i in range(self.sys.n):
                        a_inv, f = x.coords[i], y.coords[lam_inv[i]]
                        if not G.leq(f, G.inv(a_inv)):
                            return None
                        out.append(G.op(a_inv, f))
                    return KiteElement(UPPER, tuple(out))
                return super().add(x, y)

        A = Twisted(Z, ex82)
        v = check_pea_axioms(A, KiteAlgebra(Z, ex82).enumerate_box(1))
        assert v.failed


class TestCommutativity:
    def test_noncommutative_witness(self, ex82):
        A = KiteAlgebra(Z, ex82)
        v = check_commutativity(A, A.enumerate_box(1))
        assert v.failed
        x, y = v.witnesses[0]
        assert A.add(x, y) != A.add(y, x)

    def test_commutative_system(self):
        # lam = rho = id: the sum degenerates to the coordinatewise one
        A = KiteAlgebra(Z, system([1, 2], [1, 2]))
        assert check_commutativity(A, A.enumerate_box(1)).ok


def _rdp_stream(A, sample):
    """The position quadruples check_kite_rdp reads for this sample, seed 0."""
    return rdp_quadruples(quadruple_box(sum_classes(A, sample)), random.Random(0))


class TestRdp:
    def test_quadruples_share_sum(self, K82):
        # the quadruples are positions in the sample
        sample = K82.enumerate_box(1)
        for quad in itertools.islice(_rdp_stream(K82, sample), 500):
            a1, a2, b1, b2 = map(sample.__getitem__, quad)
            assert K82.add(a1, a2) == K82.add(b1, b2) is not None

    def test_refinement_is_valid(self, K82):
        sample = K82.enumerate_box(1)
        for quad in itertools.islice(_rdp_stream(K82, sample), 300):
            quad = tuple(map(sample.__getitem__, quad))
            ref = find_kite_refinement(K82, *quad)
            assert ref is not None
            (c11, c12), (c21, c22) = ref
            a1, a2, b1, b2 = quad
            assert K82.add(c11, c12) == a1
            assert K82.add(c21, c22) == a2
            assert K82.add(c11, c21) == b1
            assert K82.add(c12, c22) == b2
            assert K82.meet_is_zero(c12, c21)

    def test_small_systems_pass(self):
        A = KiteAlgebra(Z, system([1, 2], [2, 1]))
        v = check_kite_rdp(A, A.enumerate_box(1))
        assert v.ok, v.detail

    @pytest.mark.parametrize("desc, draws", [("Z", None), ("Z^2", 150), ("lex(Z,Z)", 60)])
    def test_on_a_lattice_only_the_meet_refines(self, desc, draws):
        # every quadruple of ex8.2 over Z at bound 1, a seeded slice elsewhere
        A = KiteAlgebra(parse_group(desc), system(*EX_8_2))
        box = A.enumerate_box(1)
        pool = box if draws is None else random.Random(1).sample(box, 40)
        quads = quadruple_box(sum_classes(A, pool))
        if draws is not None:
            quads = [quads[i] for i in random.Random(2).sample(range(len(quads)), draws)]
        for quad in (tuple(map(pool.__getitem__, q)) for q in quads):
            a1, _, b1, _ = quad
            assert find_kite_refinement(A, *quad) is not None, quad
            meet = A.meet(a1, b1)
            for c in box:
                if c != meet and A.leq(c, a1) and A.leq(c, b1):
                    rest = _refine(A, *quad, c)
                    assert rest is None or not A.meet_is_zero(*rest[:2]), (quad, c)
        assert len(quads) == (3796 if draws is None else draws)

    def test_corner_memo_memory_is_bounded(self):
        # the memo holds two n x n lists of shared references, not an object
        # per sample pair; on this check the tracemalloc peak read 1.26 MB
        # before the memo, 1.60 MB with it, 1.77 MB once it also kept each
        # distinct (c21, a2)'s c22, and 1.49 MB with the memo on packed ints
        # (Python 3.11)
        A = KiteAlgebra(VectorGroup(2), system(*EX_3_8))
        sample = bounded_sample(A.enumerate_box(1), 120, 0, keep=(A.zero, A.one))
        tracemalloc.start()
        try:
            v = check_kite_rdp(A, sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.ok
        assert peak < 2_000_000, peak


def _box_pairs(box, limit=4096, draws=400):
    """Every pair of the box when there are at most limit, else draws seeded
    random pairs."""
    if len(box) ** 2 <= limit:
        return list(itertools.product(box, repeat=2))
    rng = random.Random(0)
    return [(rng.choice(box), rng.choice(box)) for _ in range(draws)]


class TestMeet:
    @pytest.mark.parametrize("desc", ["Z", "Z^2", "lex(Z,Z)", "prod(Z,Z)"])
    @pytest.mark.parametrize("lam,rho", [EX_8_2, ([2, 3, 1], [3, 1, 2])],
                             ids=["ex8.2", "cycles-3"])
    def test_meet_is_greatest_lower_bound(self, desc, lam, rho):
        A = KiteAlgebra(parse_group(desc), system(lam, rho))
        box = A.enumerate_box(1)
        for x, y in _box_pairs(box):
            m = A.meet(x, y)
            assert A.is_member(m)
            assert A.leq(m, x) and A.leq(m, y)
            assert all(A.leq(z, m) for z in box if A.leq(z, x) and A.leq(z, y))
            assert A.meet_is_zero(x, y) == (m == A.zero)


class TestMeetIsZero:
    def test_lower_pairs(self, K82):
        assert K82.meet_is_zero(K82.lower(1, 0, 0, 0), K82.lower(0, 1, 0, 0))
        assert not K82.meet_is_zero(K82.lower(1, 0, 0, 0), K82.lower(1, 1, 0, 0))

    def test_mixed_and_upper(self, K82):
        u = K82.upper(-1, 0, 0, 0)
        assert K82.meet_is_zero(K82.zero, u)
        assert not K82.meet_is_zero(K82.lower(1, 0, 0, 0), u)
        assert not K82.meet_is_zero(u, u)

    def test_sample_fallback_agrees(self, K82):
        # compare the lattice rule against the common-lower-bound scan
        sample = K82.enumerate_box(1)
        scan = lambda x, y: not any(
            z != K82.zero and K82.leq(z, x) and K82.leq(z, y) for z in sample)
        for x, y in itertools.islice(itertools.product(sample, repeat=2), 0, None, 11):
            assert K82.meet_is_zero(x, y) == scan(x, y), (x, y)
