"""Finite index systems: a pair of bijections on {0..n-1}, the connected
components they induce, block-decomposition checks, and the system induced
on the blocks of a valid decomposition.

Composition convention, fixed globally: (f o g)(i) = f(g(i)), i.e. g is
applied first.  Indices are 0-based internally and 1-based in all I/O.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from kitealg.verdict import Verdict, merge

COMPOSITION_CONVENTION = "(f o g)(i) = f(g(i)); g applied first"

# the largest |m| and |n| for which check_mixed_commutation compares lam^m and rho^n
MIXED_POWERS = 3

Perm = tuple[int, ...]


def is_permutation(images: tuple[int, ...]) -> bool:
    return sorted(images) == list(range(len(images)))


def perm_identity(n: int) -> Perm:
    return tuple(range(n))


def perm_inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def perm_compose(f: Perm, g: Perm) -> Perm:
    """f o g under the global convention: apply g first."""
    return tuple(f[g[i]] for i in range(len(g)))


def perm_power(p: Perm, k: int) -> Perm:
    if k < 0:
        return perm_power(perm_inverse(p), -k)
    result = perm_identity(len(p))
    for _ in range(k):
        result = perm_compose(p, result)
    return result


def perm_order(p: Perm) -> int:
    q, order = p, 1
    while q != perm_identity(len(p)):
        q = perm_compose(p, q)
        order += 1
    return order


def perm_image(p: Perm, block: frozenset[int]) -> frozenset[int]:
    return frozenset(p[i] for i in block)


def perm_cycles(p: Perm) -> list[tuple[int, ...]]:
    seen, cycles = set(), []
    for start in range(len(p)):
        if start in seen:
            continue
        cycle, i = [], start
        while i not in seen:
            seen.add(i)
            cycle.append(i)
            i = p[i]
        cycles.append(tuple(cycle))
    return cycles


Partition = tuple[frozenset[int], ...]


def normalize_partition(blocks, n: int) -> Partition:
    """Canonical form: blocks sorted by least element; validates partition-ness."""
    blocks = tuple(frozenset(b) for b in blocks)
    flat = sorted(i for b in blocks for i in b)
    if any(not b for b in blocks) or flat != list(range(n)):
        raise ValueError("blocks do not partition the index set")
    return tuple(sorted(blocks, key=min))


@dataclass(frozen=True)
class IndexSystem:
    """A finite index set with two bijections lam and rho."""

    n: int
    lam: Perm
    rho: Perm

    def __post_init__(self):
        for name, p in (("lambda", self.lam), ("rho", self.rho)):
            if len(p) != self.n or not is_permutation(p):
                raise ValueError(f"{name} is not a permutation of 0..{self.n - 1}")

    @staticmethod
    def from_one_based(lam, rho) -> "IndexSystem":
        return IndexSystem(len(lam), tuple(i - 1 for i in lam), tuple(i - 1 for i in rho))

    # computed once per system: cached_property writes the instance dict
    # directly, so it works on a frozen dataclass
    @cached_property
    def lam_inv(self) -> Perm:
        return perm_inverse(self.lam)

    @cached_property
    def rho_inv(self) -> Perm:
        return perm_inverse(self.rho)

    def one_based(self) -> tuple[list[int], list[int]]:
        return [i + 1 for i in self.lam], [i + 1 for i in self.rho]


def derived_sigma(sys: IndexSystem) -> Perm:
    """The forward-connectivity generator rho o lambda^-1."""
    return perm_compose(sys.rho, sys.lam_inv)


def derived_tau(sys: IndexSystem) -> Perm:
    """The dual-connectivity generator rho^-1 o lambda."""
    return perm_compose(sys.rho_inv, sys.lam)


def _orbits(p: Perm) -> Partition:
    return normalize_partition([frozenset(c) for c in perm_cycles(p)], len(p))


def components(sys: IndexSystem) -> Partition:
    """Connected components: orbits of sigma = rho o lambda^-1."""
    return _orbits(derived_sigma(sys))


def dual_components(sys: IndexSystem) -> Partition:
    """Dual components: orbits of tau = rho^-1 o lambda."""
    return _orbits(derived_tau(sys))


def check_component_laws(sys: IndexSystem) -> Verdict:
    """Verify the structural identities that components must satisfy.

    These are theorems for every index system, so a FAIL here indicates an
    implementation bug rather than a property of the input.
    """
    comps = components(sys)
    # the block that holds each index, in each partition
    block, dblock = ({i: b for b in p for i in b} for p in (comps, dual_components(sys)))
    conn = lambda i, j: j in block[i]
    dconn = lambda i, j: j in dblock[i]
    lam, rho = sys.lam, sys.rho
    lam_inv, rho_inv = sys.lam_inv, sys.rho_inv
    checked = 0
    for C in comps:
        checked += 1
        pre_l = perm_image(lam_inv, C)
        pre_r = perm_image(rho_inv, C)
        if pre_l != pre_r:
            return Verdict.failure(("preimage", _one_based(C)), checked,
                                   "lambda^-1(C) != rho^-1(C)")
        if perm_image(lam, pre_r) != C or perm_image(rho, pre_l) != C:
            return Verdict.failure(("roundtrip", _one_based(C)), checked)
    for i in range(sys.n):
        checked += 1
        if not conn(lam[i], rho[i]):
            return Verdict.failure(("lam-rho-connected", i + 1), checked)

    # dual-connectivity properties, as stated (disjunctions checked verbatim)
    for i in range(sys.n):
        checked += 1
        if not dconn(lam_inv[i], rho_inv[i]):
            return Verdict.failure(("dual-i", i + 1), checked)
    for i, j in itertools.product(range(sys.n), repeat=2):
        checked += 1
        if i != j and dconn(i, j):
            # dual conjugation: lam . tau^m . lam^-1 = sigma^-m, so the images
            # of a dually connected pair are pairwise connected
            im = (lam[i], lam[j], rho[i], rho[j])
            if not all(conn(a, b) for a, b in itertools.combinations(im, 2)):
                return Verdict.failure(("dual-ii", i + 1, j + 1), checked)
        if dconn(i, j):
            if not (conn(lam[i], rho[j]) or conn(rho[i], lam[j])):
                return Verdict.failure(("dual-iii", i + 1, j + 1), checked)
        if conn(i, j):
            # conjugation identity: lam^-1 . sigma^m . lam = tau^-m, so all
            # four preimages of a connected pair are pairwise dually connected
            pre = (lam_inv[i], lam_inv[j], rho_inv[i], rho_inv[j])
            if not all(dconn(a, b) for a, b in itertools.combinations(pre, 2)):
                return Verdict.failure(("dual-iv", i + 1, j + 1), checked)
    return Verdict.passed(checked)


def validate_decomposition(sys: IndexSystem, blocks) -> Verdict:
    """Check the two block-decomposition hypotheses:
    (a) lam(rho(B)) = rho(lam(B)) setwise for every block B;
    (b) lam(B) and rho(B) are each exactly some block.
    """
    blocks = normalize_partition(blocks, sys.n)
    block_set = set(blocks)
    verdicts = []
    for b in blocks:
        lr = perm_image(sys.lam, perm_image(sys.rho, b))
        rl = perm_image(sys.rho, perm_image(sys.lam, b))
        lam_b, rho_b = perm_image(sys.lam, b), perm_image(sys.rho, b)
        if lr != rl:
            verdicts.append(Verdict.failure(
                ("commute", *map(_one_based, (b, lr, rl))), 1,
                f"lam.rho{_fmt(b)} = {_fmt(lr)} != rho.lam{_fmt(b)} = {_fmt(rl)}"))
        elif lam_b in block_set and rho_b in block_set:
            verdicts.append(Verdict.passed(1))
        else:
            kind, image = ("rho-image", rho_b) if lam_b in block_set else ("lambda-image", lam_b)
            verdicts.append(Verdict.failure((kind, _one_based(b), _one_based(image)), 1,
                                            f"image of {_fmt(b)} is not a block"))
    return merge(verdicts)


def block_system(sys: IndexSystem, blocks) -> tuple[IndexSystem, list[int]]:
    """The system lam and rho induce on the blocks of a valid decomposition
    (numbered by least element), and the block of each index (owner).
    Raises ValueError when the decomposition is not valid."""
    blocks = normalize_partition(blocks, sys.n)
    dec = validate_decomposition(sys, blocks)
    if not dec.ok:
        raise ValueError(f"invalid decomposition: {dec.detail}")
    owner = [k for i in range(sys.n) for k, b in enumerate(blocks) if i in b]
    lam, rho = (tuple(owner[p[min(b)]] for b in blocks) for p in (sys.lam, sys.rho))
    return IndexSystem(len(blocks), lam, rho), owner


def check_mixed_commutation(sys: IndexSystem, blocks) -> Verdict:
    """lam^m(rho^n(B)) = rho^n(lam^m(B)) setwise for all |m|,|n| <= MIXED_POWERS."""
    blocks = normalize_partition(blocks, sys.n)
    if not validate_decomposition(sys, blocks).ok:
        raise ValueError("decomposition hypotheses not satisfied")
    checked = 0
    for m in range(-MIXED_POWERS, MIXED_POWERS + 1):
        lam_m = perm_power(sys.lam, m)
        for n in range(-MIXED_POWERS, MIXED_POWERS + 1):
            rho_n = perm_power(sys.rho, n)
            for b in blocks:
                checked += 1
                if perm_image(lam_m, perm_image(rho_n, b)) != \
                        perm_image(rho_n, perm_image(lam_m, b)):
                    return Verdict.failure((m, n, _one_based(b)), checked)
    return Verdict.passed(checked)


def _one_based(block: frozenset[int]) -> list[int]:
    return sorted(i + 1 for i in block)


def _fmt(block: frozenset[int]) -> str:
    return "{" + ",".join(map(str, _one_based(block))) + "}"
