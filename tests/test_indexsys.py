"""Permutation machinery, connectivity components, and decomposition checks."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from kitealg.indexsys import (
    IndexSystem,
    check_component_laws,
    MIXED_POWERS,
    check_mixed_commutation,
    components,
    derived_sigma,
    derived_tau,
    dual_components,
    is_connected,
    is_dually_connected,
    normalize_partition,
    perm_compose,
    perm_cycles,
    perm_identity,
    perm_inverse,
    perm_order,
    perm_power,
    validate_decomposition,
)

from conftest import TEN_SYSTEMS, connected_by_iteration, system


def perms(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.permutations(list(range(n))).map(tuple))


def index_systems(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(st.permutations(list(range(n))).map(tuple),
                            st.permutations(list(range(n))).map(tuple))
    ).map(lambda lr: IndexSystem(len(lr[0]), lr[0], lr[1]))


class TestPermBasics:
    def test_compose_applies_right_first(self):
        f = (1, 2, 0)
        g = (0, 2, 1)
        assert perm_compose(f, g) == tuple(f[g[i]] for i in range(3))

    @given(perms())
    def test_inverse(self, p):
        n = len(p)
        assert perm_compose(p, perm_inverse(p)) == perm_identity(n)
        assert perm_compose(perm_inverse(p), p) == perm_identity(n)

    @given(perms())
    def test_power_negative(self, p):
        assert perm_power(p, -1) == perm_inverse(p)
        assert perm_power(p, 0) == perm_identity(len(p))

    @given(perms())
    def test_order(self, p):
        assert perm_power(p, perm_order(p)) == perm_identity(len(p))

    def test_cycles(self):
        # (1 2 3)(4) on 0-based indices
        assert perm_cycles((1, 2, 0, 3)) == [(0, 1, 2), (3,)]


class TestPartition:
    def test_normalizes_order(self):
        assert normalize_partition([{2, 3}, {0, 1}], 4) == \
            (frozenset({0, 1}), frozenset({2, 3}))

    @pytest.mark.parametrize("blocks", [[{0, 1}, {1, 2}], [{0}], [{0, 1}, set()]])
    def test_rejects_nonpartitions(self, blocks):
        with pytest.raises(ValueError):
            normalize_partition(blocks, 3)


class TestIndexSystem:
    def test_rejects_bad_perm(self):
        with pytest.raises(ValueError):
            IndexSystem(3, (0, 0, 1), (0, 1, 2))

    def test_one_based_roundtrip(self):
        sys = system([1, 3, 2, 4], [2, 3, 1, 4])
        assert sys.one_based() == ([1, 3, 2, 4], [2, 3, 1, 4])


class TestComponents:
    def test_known_example(self, ex82):
        # sigma = rho o lambda^-1 maps 1<->2 and fixes 3, 4 (1-based)
        sigma = derived_sigma(ex82)
        assert tuple(i + 1 for i in sigma) == (2, 1, 3, 4)
        assert components(ex82) == normalize_partition([{0, 1}, {2}, {3}], 4)

    def test_single_component(self, ex84):
        assert components(ex84) == (frozenset({0, 1, 2, 3}),)

    def test_dual_example(self, ex38):
        # tau = rho^-1 o lambda; components and duals both split 4 into pairs
        assert components(ex38) == normalize_partition([{0, 2}, {1, 3}], 4)
        assert len(dual_components(ex38)) == 2

    def test_equal_perms_give_singletons(self):
        sys = system([2, 1], [2, 1])
        assert components(sys) == (frozenset({0}), frozenset({1}))

    @given(index_systems())
    def test_matches_iteration_oracle(self, sys):
        for i, j in itertools.product(range(sys.n), repeat=2):
            assert is_connected(sys, i, j) == connected_by_iteration(sys, i, j)

    @given(index_systems())
    def test_dual_is_component_of_tau(self, sys):
        tau = derived_tau(sys)
        for i in range(sys.n):
            assert is_dually_connected(sys, i, tau[i])

    def test_out_of_range(self, ex82):
        with pytest.raises(IndexError):
            is_connected(ex82, 0, 4)


class TestComponentLaws:
    @pytest.mark.parametrize("name,lam,rho", TEN_SYSTEMS,
                             ids=[t[0] for t in TEN_SYSTEMS])
    def test_ten_systems(self, name, lam, rho):
        assert check_component_laws(system(lam, rho)).ok

    @given(index_systems())
    def test_random_systems(self, sys):
        assert check_component_laws(sys).ok

    def test_random_larger(self):
        rng = random.Random(20240817)
        for _ in range(300):
            n = rng.randrange(1, 9)
            lam = list(range(n))
            rho = list(range(n))
            rng.shuffle(lam)
            rng.shuffle(rho)
            sys = IndexSystem(n, tuple(lam), tuple(rho))
            assert check_component_laws(sys).ok, sys


class TestDecomposition:
    def test_valid_blocks(self, ex84):
        assert validate_decomposition(ex84, [{0, 3}, {1, 2}]).ok

    def test_coarse_always_valid(self):
        for name, lam, rho in TEN_SYSTEMS:
            sys = system(lam, rho)
            assert validate_decomposition(sys, [set(range(sys.n))]).ok

    def test_components_union_valid(self, ex82):
        assert validate_decomposition(ex82, [{0, 1, 2}, {3}]).ok

    def test_invalid_image(self, ex85):
        v = validate_decomposition(ex85, [{0, 3}, {1, 2}])
        assert v.failed
        # lam({1,4}) = {2,4} is not a block (1-based)
        kinds = {w[0] for w in v.witnesses}
        assert kinds & {"lambda-image", "rho-image", "commute"}

    def test_mixed_commutation(self, ex84):
        # every power pair with |m|, |n| <= MIXED_POWERS (3), on both blocks
        v = check_mixed_commutation(ex84, [{0, 3}, {1, 2}])
        assert MIXED_POWERS == 3 and v.ok and v.checked == 7 * 7 * 2

    def test_mixed_commutation_rejects_invalid(self, ex85):
        with pytest.raises(ValueError):
            check_mixed_commutation(ex85, [{0, 3}, {1, 2}])
