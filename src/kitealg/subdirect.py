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
    kernel_check: Verdict

    @property
    def verdict(self) -> Verdict:
        return merge([self.injectivity, self.reconstruction, self.hom_preservation,
                      *self.surjectivity, self.kernel_check])

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
    a homomorphism of partial algebras, every box element is exactly
    reconstructible from its projections, and the kernels meet in {0}.
    Each check reads box[i] projected onto kernels[k] from table[k][i]."""
    kernels = tuple(component_kernel(A.sys, c) for c in components(A.sys))
    targets = [component_algebra(A, k) for k in kernels]
    box = list(A.enumerate_box(bound))
    table = [[project_component(A, k, x) for x in box] for k in kernels]

    images = {}
    injectivity = recon = None
    for checked, (x, pieces) in enumerate(zip(box, zip(*table)), start=1):
        if injectivity is None and images.setdefault(pieces, x) != x:
            injectivity = Verdict.failure((images[pieces], x), len(box),
                                          "distinct elements with equal projections")
        if recon is None and reconstruct(A, kernels, pieces) != x:
            recon = Verdict.failure((x,), checked, "round-trip reconstruction failed")

    surjectivity = []
    for k, target, row in zip(kernels, targets, table):
        want = set(target.enumerate_box(bound))
        missing = sorted(map(repr, want - set(row)))
        surjectivity.append(Verdict.failure(
            (missing[0],), len(want),
            f"component {[i + 1 for i in k.component]} projection misses box elements")
            if missing else Verdict.passed(len(want)))

    hom = _check_projection_hom(A, kernels, targets, box, table, pair_cap)
    kernel_check = check_kernel_projects_to_zero(A, kernels, targets, box, table)
    return SubdirectReport(kernels, injectivity or Verdict.passed(len(box)),
                           tuple(surjectivity), recon or Verdict.passed(len(box)),
                           hom, kernel_check)


def _check_projection_hom(A, kernels, targets, box, table, pair_cap) -> Verdict:
    """Each projection preserves 0, 1, order, definedness and value of +,
    and both complements; table[k][i] is box[i] projected onto kernels[k].

    The sum checks share one seeded stream of index pairs: each kite sum is
    computed and projected once and checked on every component, and the
    first failing (pair, component) in stream order is the witness.
    """
    checked = 0
    for k, target, row in zip(kernels, targets, table):
        if project_component(A, k, A.zero) != target.zero:
            return Verdict.failure(("zero", k.component), checked)
        if project_component(A, k, A.one) != target.one:
            return Verdict.failure(("one", k.component), checked)
        for x, px in zip(box, row):
            checked += 1
            if project_component(A, k, A.complement_minus(x)) != target.complement_minus(px):
                return Verdict.failure(("minus", k.component, x), checked)
            if project_component(A, k, A.complement_tilde(x)) != target.complement_tilde(px):
                return Verdict.failure(("tilde", k.component, x), checked)
    for i, j in sweep(range(len(box)), 2, pair_cap, pair_cap, random.Random(0))[1]:
        s = A.add(box[i], box[j])
        if s is None:
            checked += len(kernels)
            continue
        for k, target, row in zip(kernels, targets, table):
            checked += 1
            t = target.add(row[i], row[j])
            if t is None or project_component(A, k, s) != t:
                return Verdict.failure(("sum", k.component, box[i], box[j]), checked)
    return Verdict.passed(checked)


def check_kernel_projects_to_zero(A: KiteAlgebra, kernels, targets, box, table) -> Verdict:
    """Every kernel element (identity on J') projects onto the component's 0,
    and the kernels of all components intersect in {0}."""
    e = A.G.identity
    checked = 0
    for k, target, row in zip(kernels, targets, table):
        for x, px in zip(box, row):
            if not k.in_kernel(x, e):
                continue
            checked += 1
            if px != target.zero:
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
