"""Component projections, the subdirect embedding report, kernels, and the
irreducibility dichotomy."""

import pytest

from kitealg.indexsys import components
from kitealg.kite import KiteAlgebra, KiteElement, LOWER
from kitealg.pogroup import IntegerGroup
from kitealg.subdirect import (
    IRREDUCIBLE_CANDIDATE,
    NotAComponent,
    REDUCIBLE,
    component_algebra,
    component_kernel,
    irreducibility_verdict,
    project_component,
    reconstruct,
    restricted_system,
    subdirect_embedding_check,
)

from conftest import TEN_SYSTEMS, system

Z = IntegerGroup()

# systems from the fixed family with more than one connected component
MULTI = [t for t in TEN_SYSTEMS
         if len(components(system(t[1], t[2]))) > 1]


@pytest.fixture
def A82(ex82):
    return KiteAlgebra(Z, ex82)


class TestKernels:
    def test_component_with_preimage(self, ex82):
        k = component_kernel(ex82, {0, 1})
        assert k.component == (0, 1)
        # lam^-1({1,2}) = rho^-1({1,2}) = {1,3} in 1-based terms
        assert k.preimage == (0, 2)

    def test_rejects_non_component(self, ex82):
        with pytest.raises(NotAComponent):
            component_kernel(ex82, {0, 2})

    def test_in_kernel(self, ex82):
        k = component_kernel(ex82, {0, 1})
        assert k.in_kernel(KiteElement(LOWER, (0, 7, 0, 7)), 0)
        assert not k.in_kernel(KiteElement(LOWER, (1, 0, 0, 0)), 0)

    def test_restricted_system_valid(self, ex82):
        for comp in components(ex82):
            sub = restricted_system(ex82, component_kernel(ex82, comp))
            assert sub.n == len(comp)


class TestProjection:
    def test_lower_uses_preimage(self, A82):
        x = A82.lower(1, 2, 3, 4)
        assert project_component(A82, {0, 1}, x) == KiteElement(LOWER, (1, 3))

    def test_upper_uses_component(self, A82):
        x = A82.upper(-1, -2, -3, -4)
        p = project_component(A82, {0, 1}, x)
        assert p.coords == (-1, -2)

    def test_units_map_to_units(self, A82):
        for comp in components(A82.sys):
            k = component_kernel(A82.sys, comp)
            target = component_algebra(A82, k)
            assert project_component(A82, k, A82.zero) == target.zero
            assert project_component(A82, k, A82.one) == target.one

    def test_reconstruct_roundtrip(self, A82):
        kernels = [component_kernel(A82.sys, c) for c in components(A82.sys)]
        for x in A82.enumerate_box(1):
            pieces = [project_component(A82, k, x) for k in kernels]
            assert reconstruct(A82, kernels, pieces) == x

    def test_reconstruct_rejects_mixed_tags(self, A82):
        kernels = [component_kernel(A82.sys, c) for c in components(A82.sys)]
        pieces = [project_component(A82, k, A82.zero) for k in kernels]
        pieces[0] = KiteElement("U", tuple(-c for c in pieces[0].coords))
        with pytest.raises(ValueError):
            reconstruct(A82, kernels, pieces)


class TestEmbeddingReport:
    @pytest.mark.parametrize("name,lam,rho", MULTI, ids=[t[0] for t in MULTI])
    def test_multi_component_systems(self, name, lam, rho):
        report = subdirect_embedding_check(KiteAlgebra(Z, system(lam, rho)), bound=1)
        assert report.verdict.ok, report.to_json()

    def test_single_component_trivial(self, ex84):
        report = subdirect_embedding_check(KiteAlgebra(Z, ex84), bound=1)
        assert len(report.kernels) == 1
        assert report.verdict.ok

    def test_json_is_one_based(self, A82):
        data = subdirect_embedding_check(A82, bound=1).to_json()
        assert [1, 2] in data["components"]
        assert all(min(c) >= 1 for c in data["components"])


class TestKernelZero:
    @pytest.mark.parametrize("name,lam,rho", MULTI, ids=[t[0] for t in MULTI])
    def test_kernels_project_to_zero(self, name, lam, rho):
        report = subdirect_embedding_check(KiteAlgebra(Z, system(lam, rho)), bound=1)
        assert report.kernel_check.ok and report.kernel_check.checked > 0


class TestIrreducibility:
    def test_disconnected_is_reducible(self, A82):
        v = irreducibility_verdict(A82, g_subdirectly_irreducible=True)
        assert v.result == REDUCIBLE and v.clause == "ii"

    def test_reducible_group(self, ex84):
        v = irreducibility_verdict(KiteAlgebra(Z, ex84),
                                   g_subdirectly_irreducible=False)
        assert v.result == REDUCIBLE and v.clause == "i"

    def test_candidate(self, ex84):
        v = irreducibility_verdict(KiteAlgebra(Z, ex84),
                                   g_subdirectly_irreducible=True)
        assert v.result == IRREDUCIBLE_CANDIDATE and v.clause is None
