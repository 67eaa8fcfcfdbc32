"""Subdirect representation of a kite over the connected components of its
index system: coordinate-restriction projections, the embedding report, and
the irreducibility dichotomy.

Quotients are never materialized; the projection onto a component is the
coordinate restriction, with Lower tuples restricted to the component's
preimage block and Upper tuples to the component itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from kitealg.indexsys import IndexSystem, components, perm_image
from kitealg.kite import KiteAlgebra, KiteElement, LOWER
from kitealg.verdict import Verdict, merge, sweep


class NotAComponent(ValueError):
    pass


@dataclass(frozen=True)
class ComponentKernel:
    """A connected component I' with its preimage block J' = lam^-1(I')."""

    component: tuple[int, ...]  # sorted I'
    preimage: tuple[int, ...]   # sorted J'

    def in_kernel(self, x: KiteElement, identity) -> bool:
        """Lower elements that are identity on J' (the projection kernel)."""
        return x.tag == LOWER and all(x.coords[j] == identity for j in self.preimage)


def component_kernel(sys: IndexSystem, comp) -> ComponentKernel:
    comp = frozenset(comp)
    if comp not in set(components(sys)):
        raise NotAComponent(f"{sorted(i + 1 for i in comp)} is not a connected component")
    pre_l = perm_image(sys.lam_inv, comp)
    pre_r = perm_image(sys.rho_inv, comp)
    assert pre_l == pre_r  # theorem; holds for every component
    return ComponentKernel(tuple(sorted(comp)), tuple(sorted(pre_l)))


def restricted_system(sys: IndexSystem, kernel: ComponentKernel) -> IndexSystem:
    """The J',I' kite realized by relabeling both blocks to 0..k-1."""
    i_pos = {i: p for p, i in enumerate(kernel.component)}
    lam = [0] * len(kernel.preimage)
    rho = [0] * len(kernel.preimage)
    for p, j in enumerate(kernel.preimage):
        lam[p] = i_pos[sys.lam[j]]
        rho[p] = i_pos[sys.rho[j]]
    return IndexSystem(len(kernel.preimage), tuple(lam), tuple(rho))


def component_algebra(A: KiteAlgebra, kernel: ComponentKernel) -> KiteAlgebra:
    return KiteAlgebra(A.G, restricted_system(A.sys, kernel))


def project_component(A: KiteAlgebra, comp, x: KiteElement) -> KiteElement:
    """Restrict a kite element to a component: Lower coordinates over J',
    Upper coordinates over I'."""
    kernel = comp if isinstance(comp, ComponentKernel) else component_kernel(A.sys, comp)
    indices = kernel.preimage if x.tag == LOWER else kernel.component
    return KiteElement(x.tag, tuple(map(x.coords.__getitem__, indices)))


def reconstruct(A: KiteAlgebra, kernels, pieces) -> KiteElement:
    """Reassemble an element from consistent per-component projections."""
    tags = {p.tag for p in pieces}
    if len(tags) != 1:
        raise ValueError("projections carry inconsistent tags")
    tag = tags.pop()
    coords = [None] * A.sys.n
    for kernel, piece in zip(kernels, pieces):
        indices = kernel.preimage if tag == LOWER else kernel.component
        for pos, i in enumerate(indices):
            coords[i] = piece.coords[pos]
    return KiteElement(tag, tuple(coords))


@dataclass(frozen=True)
class SubdirectReport:
    kernels: tuple[ComponentKernel, ...]
    injectivity: Verdict
    surjectivity: tuple[Verdict, ...]
    reconstruction: Verdict
    hom_preservation: Verdict

    @property
    def verdict(self) -> Verdict:
        return merge([self.injectivity, self.reconstruction, self.hom_preservation,
                      *self.surjectivity])

    def to_json(self) -> dict:
        return {
            "components": [[i + 1 for i in k.component] for k in self.kernels],
            "preimages": [[j + 1 for j in k.preimage] for k in self.kernels],
            "injectivity": self.injectivity.to_json(),
            "surjectivity": [v.to_json() for v in self.surjectivity],
            "reconstruction": self.reconstruction.to_json(),
            "hom_preservation": self.hom_preservation.to_json(),
        }


def subdirect_embedding_check(A: KiteAlgebra, bound: int = 2,
                              pair_cap: int = 200_000) -> SubdirectReport:
    """Verify the subdirect representation on the box: the tuple-of-projections
    map is injective, each projection is surjective onto the target box and is
    a homomorphism of partial algebras, and every box element is exactly
    reconstructible from its projections."""
    kernels = tuple(component_kernel(A.sys, c) for c in components(A.sys))
    box = A.enumerate_box(bound)

    images = {}
    injectivity = Verdict.passed(len(box))
    for x in box:
        key = tuple(project_component(A, k, x) for k in kernels)
        if key in images and images[key] != x:
            injectivity = Verdict.failure((images[key], x), len(box),
                                          "distinct elements with equal projections")
            break
        images[key] = x

    surjectivity = []
    for k in kernels:
        target = component_algebra(A, k)
        hit = {project_component(A, k, x) for x in box}
        want = set(target.enumerate_box(bound))
        missing = want - hit
        if missing:
            surjectivity.append(Verdict.failure(
                (sorted(map(repr, missing))[0],), len(want),
                f"component {[i + 1 for i in k.component]} projection misses box elements"))
        else:
            surjectivity.append(Verdict.passed(len(want)))

    recon = Verdict.passed(0)
    checked = 0
    for x in box:
        pieces = [project_component(A, k, x) for k in kernels]
        checked += 1
        if reconstruct(A, kernels, pieces) != x:
            recon = Verdict.failure((x,), checked, "round-trip reconstruction failed")
            break
    else:
        recon = Verdict.passed(checked)

    hom = _check_projection_hom(A, kernels, box, pair_cap)
    return SubdirectReport(kernels, injectivity, tuple(surjectivity), recon, hom)


def _check_projection_hom(A, kernels, box, pair_cap) -> Verdict:
    """Each projection preserves 0, 1, order, definedness and value of +,
    and both complements.

    The sum checks share one seeded pair stream: each kite sum is computed
    once and checked on every component, and the first failing (pair,
    component) in stream order is the witness.
    """
    targets = [component_algebra(A, k) for k in kernels]
    checked = 0
    for k, target in zip(kernels, targets):
        if project_component(A, k, A.zero) != target.zero:
            return Verdict.failure(("zero", k.component), checked)
        if project_component(A, k, A.one) != target.one:
            return Verdict.failure(("one", k.component), checked)
        for x in box:
            checked += 1
            if project_component(A, k, A.complement_minus(x)) != \
                    target.complement_minus(project_component(A, k, x)):
                return Verdict.failure(("minus", k.component, x), checked)
            if project_component(A, k, A.complement_tilde(x)) != \
                    target.complement_tilde(project_component(A, k, x)):
                return Verdict.failure(("tilde", k.component, x), checked)
    for x, y in sweep(box, 2, pair_cap, pair_cap, random.Random(0))[1]:
        s = A.add(x, y)
        if s is None:
            checked += len(kernels)
            continue
        for k, target in zip(kernels, targets):
            checked += 1
            t = target.add(project_component(A, k, x), project_component(A, k, y))
            if t is None or project_component(A, k, s) != t:
                return Verdict.failure(("sum", k.component, x, y), checked)
    return Verdict.passed(checked)


def check_kernel_projects_to_zero(A: KiteAlgebra, bound: int = 2) -> Verdict:
    """Every kernel element (identity on J') projects onto the component's 0,
    and the kernels of all components intersect in {0}."""
    kernels = [component_kernel(A.sys, c) for c in components(A.sys)]
    e = A.G.identity
    box = A.enumerate_box(bound)
    checked = 0
    for k in kernels:
        target = component_algebra(A, k)
        for x in box:
            if not k.in_kernel(x, e):
                continue
            checked += 1
            if project_component(A, k, x) != target.zero:
                return Verdict.failure(("kernel-image", k.component, x), checked)
    for x in box:
        checked += 1
        if all(k.in_kernel(x, e) for k in kernels) and x != A.zero:
            return Verdict.failure(("kernel-intersection", x), checked)
    return Verdict.passed(checked)


REDUCIBLE = "REDUCIBLE"
IRREDUCIBLE_CANDIDATE = "IRREDUCIBLE-CANDIDATE"


@dataclass(frozen=True)
class IrreducibilityVerdict:
    result: str
    clause: str | None
    detail: str


def irreducibility_verdict(A: KiteAlgebra,
                           g_subdirectly_irreducible: bool) -> IrreducibilityVerdict:
    """The dichotomy: reducible when the base group is reducible (clause i) or
    when some indices are disconnected (clause ii); otherwise the kite is an
    irreducibility candidate.  The group-side fact is supplied by the caller."""
    comps = components(A.sys)
    if len(comps) > 1:
        return IrreducibilityVerdict(
            REDUCIBLE, "ii",
            f"{len(comps)} connected components: disconnected index pair exists")
    if not g_subdirectly_irreducible:
        return IrreducibilityVerdict(
            REDUCIBLE, "i", "base group flagged as not subdirectly irreducible")
    return IrreducibilityVerdict(
        IRREDUCIBLE_CANDIDATE, None,
        "single component and base group flagged subdirectly irreducible")
