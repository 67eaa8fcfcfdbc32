"""The unital po-loop Z lex-times G^I with twisted multiplication, its
interval pseudo effect algebra, the embedding of the kite, and the
block-constant subgroup attached to a valid block decomposition.

One-sided inverses are computed by solving the multiplication equation
coordinatewise, never by transcribing index formulas whose meaning depends
on an unstated composition convention; both candidate readings of those
formulas can be cross-checked against the solved inverses.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial
from typing import Optional

from kitealg.indexsys import (
    IndexSystem,
    normalize_partition,
    perm_compose,
    perm_power,
    validate_decomposition,
)
from kitealg.kite import KiteAlgebra, KiteElement, LOWER
from kitealg.pogroup import PoGroup
from kitealg.verdict import Box, Verdict, sweep


@dataclass(frozen=True)
class LoopElement:
    m: int
    coords: tuple

    def __repr__(self):
        return f"({self.m}; " + ", ".join(str(c) for c in self.coords) + ")"


class PoLoop:
    """W(G, sys): integers lex-over G^I with the twisted product."""

    def __init__(self, G: PoGroup, sys: IndexSystem):
        self.G = G
        self.sys = sys
        self.name = f"W({G.name}, n={sys.n})"
        self.neutral = LoopElement(0, (G.identity,) * sys.n)
        self.unit = LoopElement(1, (G.identity,) * sys.n)
        self._lam_pows: dict[int, tuple] = {}
        self._rho_pows: dict[int, tuple] = {}

    def __repr__(self):
        return self.name

    def lam_pow(self, k: int):
        if k not in self._lam_pows:
            self._lam_pows[k] = perm_power(self.sys.lam, k)
        return self._lam_pows[k]

    def rho_pow(self, k: int):
        if k not in self._rho_pows:
            self._rho_pows[k] = perm_power(self.sys.rho, k)
        return self._rho_pows[k]

    def _check(self, p: LoopElement):
        if len(p.coords) != self.sys.n:
            raise ValueError(f"expected {self.sys.n} coordinates, got {len(p.coords)}")

    # -- loop structure -----------------------------------------------------

    def mul(self, p: LoopElement, q: LoopElement) -> LoopElement:
        self._check(p)
        self._check(q)
        coords = self.G.op_each(map(p.coords.__getitem__, self.lam_pow(-q.m)),
                                map(q.coords.__getitem__, self.rho_pow(-p.m)))
        return LoopElement(p.m + q.m, coords)

    def right_div(self, p: LoopElement, t: LoopElement) -> LoopElement:
        """The x with p*x = t, solved coordinatewise: (p*x)[i] is
        p[lam^-x.m (i)] . x[j] at i = rho^p.m (j), so x[j] = p[..]^-1 . t[i]."""
        self._check(p)
        self._check(t)
        m, idx = t.m - p.m, self.rho_pow(p.m)
        lam = self.lam_pow(-m)
        return LoopElement(m, self.G.op_each(
            map(self.G.inv, map(p.coords.__getitem__, map(lam.__getitem__, idx))),
            map(t.coords.__getitem__, idx)))

    def left_div(self, t: LoopElement, p: LoopElement) -> LoopElement:
        """The x with x*p = t, solved coordinatewise: (x*p)[i] is
        x[j] . p[rho^-x.m (i)] at i = lam^p.m (j), so x[j] = t[i] . p[..]^-1."""
        self._check(t)
        self._check(p)
        m, idx = t.m - p.m, self.lam_pow(p.m)
        rho = self.rho_pow(-m)
        return LoopElement(m, self.G.op_each(
            map(t.coords.__getitem__, idx),
            map(self.G.inv, map(p.coords.__getitem__, map(rho.__getitem__, idx)))))

    def inverses(self, p: LoopElement) -> tuple[LoopElement, LoopElement]:
        """(right, left): p*right = neutral = left*p."""
        return self.right_div(p, self.neutral), self.left_div(self.neutral, p)

    def leq(self, p: LoopElement, q: LoopElement) -> bool:
        self._check(p)
        self._check(q)
        if p.m != q.m:
            return p.m < q.m
        return all(map(self.G.leq, p.coords, q.coords))

    def u_power(self, k: int) -> LoopElement:
        return LoopElement(k, (self.G.identity,) * self.sys.n)

    def enumerate_box(self, bound: int) -> Box:
        """Levels -bound..bound, each over the n-tuples of the group's box."""
        gbox = self.G.enumerate_box(bound)
        return Box((partial(LoopElement, m), gbox, self.sys.n)
                   for m in range(-bound, bound + 1))

    def twists_commute(self) -> bool:
        """Algebraic associativity criterion: the two twists commute."""
        return perm_compose(self.sys.lam, self.sys.rho) == \
            perm_compose(self.sys.rho, self.sys.lam)


def inverse_formula_readings(W: PoLoop, p: LoopElement) -> dict[str, bool]:
    """Compare the solved inverses with the two possible readings of the
    printed index formulas; records which reading validates."""
    right, left = W.inverses(p)
    G, n, m = W.G, W.sys.n, p.m

    def formula(index_perm):
        return LoopElement(-m, tuple(G.inv(p.coords[index_perm[i]]) for i in range(n)))

    rho_then_lam = perm_compose(W.rho_pow(m), W.lam_pow(m))  # rho^m o lam^m
    lam_then_rho = perm_compose(W.lam_pow(m), W.rho_pow(m))  # lam^m o rho^m
    return {
        "right_matches_rho_after_lam": formula(rho_then_lam) == right,
        "right_matches_lam_after_rho": formula(lam_then_rho) == right,
        "left_matches_rho_after_lam": formula(rho_then_lam) == left,
        "left_matches_lam_after_rho": formula(lam_then_rho) == left,
    }


def is_associative(W: PoLoop, bound: int = 2, seed: int = 0,
                   triple_cap: int = 400_000, draws: int = 5_000) -> Verdict:
    """Associativity of the twisted product: the permutation criterion and an
    empirical triple search, which must agree.

    When the full box is too large for exhaustive triples, the search runs
    over the covering sub-box {(m1, e)} x box x {(m3, e)}: the two sides of
    the associativity law can only differ through the middle factor's index
    twist, so any defect in the full box shows up there.
    """
    algebraic = W.twists_commute()
    box = list(W.enumerate_box(bound))
    witness = None
    checked = 0

    exhaustive, triples = sweep(box, 3, triple_cap, draws, random.Random(seed))
    if not exhaustive:
        shells = [W.u_power(m) for m in range(-bound, bound + 1)]
        triples = itertools.chain(itertools.product(shells, box, shells), triples)
    for p, q, r in triples:
        checked += 1
        if W.mul(W.mul(p, q), r) != W.mul(p, W.mul(q, r)):
            witness = (p, q, r)
            break

    empirical = witness is None
    if algebraic != empirical:
        return Verdict.failure(
            ("criterion-disagreement", algebraic, witness), checked,
            "permutation test and triple search disagree: implementation bug")
    if algebraic:
        return Verdict.passed(checked, detail="associative: twists commute")
    return Verdict("FAIL", checked=checked, witnesses=(witness,),
                   detail="non-associative: witness triple found")


def strong_unit_check(W: PoLoop, sample: list[LoopElement], nmax: int) -> Verdict:
    """For every sampled g, find the least n <= nmax with g <= u^n."""
    checked = 0
    worst = 0
    for g in sample:
        checked += 1
        n = next((k for k in range(nmax + 1) if W.leq(g, W.u_power(k))), None)
        if n is None:
            return Verdict.failure(("no-power", g), checked)
        worst = max(worst, n)
    return Verdict.passed(checked, detail=f"max exponent needed: {worst}")


# ---------------------------------------------------------------------------
# The interval pseudo effect algebra Gamma(W, u)
# ---------------------------------------------------------------------------

class GammaInterval:
    """The interval [neutral, u] of W with the product-restricted addition."""

    def __init__(self, W: PoLoop):
        self.W = W
        self.zero = W.neutral
        self.one = W.unit

    def contains(self, p: LoopElement) -> bool:
        """neutral <= p <= u in Z lex G^I: level 0 with every coordinate in
        the positive cone, or level 1 with every coordinate in the negative
        cone."""
        self.W._check(p)
        if p.m == 0:
            return all(map(self.W.G.is_positive, p.coords))
        return p.m == 1 and all(map(self.W.G.is_negative, p.coords))

    def _require(self, p: LoopElement):
        if not self.contains(p):
            raise ValueError(f"{p} is not in the interval")

    def add(self, p: LoopElement, q: LoopElement) -> Optional[LoopElement]:
        self._require(p)
        self._require(q)
        prod = self.W.mul(p, q)
        return prod if self.W.leq(prod, self.one) else None

    def complement_tilde(self, p: LoopElement) -> LoopElement:
        """The right complement p*x = u, by loop division."""
        self._require(p)
        return self.W.right_div(p, self.one)

    def complement_minus(self, p: LoopElement) -> LoopElement:
        """The left complement x*p = u, by loop division."""
        self._require(p)
        return self.W.left_div(self.one, p)

    def enumerate_box(self, bound: int) -> Box:
        """The interval's elements with coordinates in the box, in the loop
        box's order: level 0 over the positive cone, then level 1 over the
        negative cone.  Built as loop elements, not as phi's images of the
        kite's box, so that embed_kite compares two enumerations."""
        pos, neg = self.W.G.cones(bound)
        n = self.W.sys.n
        return Box([(partial(LoopElement, 0), pos, n), (partial(LoopElement, 1), neg, n)])

    def check_complements(self, bound: int) -> Verdict:
        """Re-multiply the complements on the interval box."""
        checked = 0
        for p in self.enumerate_box(bound):
            checked += 1
            if self.add(self.complement_minus(p), p) != self.one:
                return Verdict.failure(("minus", p), checked)
            if self.add(p, self.complement_tilde(p)) != self.one:
                return Verdict.failure(("tilde", p), checked)
        return Verdict.passed(checked)


# ---------------------------------------------------------------------------
# The kite embedding phi
# ---------------------------------------------------------------------------

def embed_kite_element(x: KiteElement) -> LoopElement:
    """phi: Lower f -> (0, f); Upper (stored negative coords) -> (1, coords)."""
    return LoopElement(0 if x.tag == LOWER else 1, x.coords)


def embed_kite(A: KiteAlgebra, bound: int = 2) -> Verdict:
    """Verify that phi is an isomorphism of partial algebras between the kite
    box and the interval box: bijective, preserves 0, 1, order, and the
    definedness and value of + on the box pairs: all of them up to 600,000,
    else 40,000 seeded draws."""
    W = PoLoop(A.G, A.sys)
    gamma = GammaInterval(W)
    kite_box = list(A.enumerate_box(bound))
    images = [embed_kite_element(x) for x in kite_box]
    interval_box = gamma.enumerate_box(bound)
    checked = 0

    if embed_kite_element(A.zero) != gamma.zero:
        return Verdict.failure(("zero",), checked)
    if embed_kite_element(A.one) != gamma.one:
        return Verdict.failure(("one",), checked)
    if len(set(images)) != len(kite_box):
        return Verdict.failure(("injectivity",), checked)
    if set(images) != set(interval_box):
        return Verdict.failure(("surjectivity-onto-interval-box",), checked)
    checked += len(kite_box)

    draws = 40_000
    exhaustive, pairs = sweep(list(zip(kite_box, images)), 2, 600_000, draws,
                              random.Random(0))
    for (x, px), (y, py) in pairs:
        checked += 1
        if A.leq(x, y) != W.leq(px, py):
            return Verdict.failure(("order", x, y), checked)
        s = A.add(x, y)
        t = gamma.add(px, py)
        if (s is None) != (t is None):
            return Verdict.failure(("definedness", x, y), checked)
        if s is not None and embed_kite_element(s) != t:
            return Verdict.failure(("value", x, y), checked)
    return Verdict.passed(checked, detail="" if exhaustive else f"{draws} sampled pairs")


# ---------------------------------------------------------------------------
# The block-constant subgroup
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockSubgroup:
    parent: PoLoop
    blocks: tuple

    def contains(self, p: LoopElement) -> bool:
        return all(
            len({p.coords[i] for i in block}) == 1 for block in self.blocks
        )

    def enumerate_box(self, bound: int) -> Box:
        """Block-constant elements with box coordinates: levels -bound..bound,
        each over one group element per block."""
        W = self.parent
        gbox = W.G.enumerate_box(bound)
        owner = [k for i in range(W.sys.n) for k, b in enumerate(self.blocks) if i in b]
        return Box((lambda choice, m=m: LoopElement(m, tuple(map(choice.__getitem__, owner))),
                    gbox, len(self.blocks)) for m in range(-bound, bound + 1))


def block_subgroup(W: PoLoop, blocks, bound: int = 2, triple_samples: int = 1000,
                   seed: int = 0) -> tuple[BlockSubgroup, Verdict]:
    """Build the block-constant subgroup and verify: closure under the product
    and inverses on the box, associativity on sampled triples, membership of
    the strong unit, and closure of the interval part under partial addition."""
    blocks = normalize_partition(blocks, W.sys.n)
    dec = validate_decomposition(W.sys, blocks)
    if not dec.ok:
        raise ValueError(f"invalid decomposition: {dec.detail}")
    H = BlockSubgroup(W, blocks)
    rng = random.Random(seed)
    hbox = list(H.enumerate_box(bound))
    checked = 0

    if not H.contains(W.unit):
        return H, Verdict.failure(("unit-not-member",))

    for p, q in sweep(hbox, 2, 100_000, 100_000, rng)[1]:
        checked += 1
        if not H.contains(W.mul(p, q)):
            return H, Verdict.failure(("mul-closure", p, q), checked)
    for p in hbox:
        checked += 1
        right, left = W.inverses(p)
        if not (H.contains(right) and H.contains(left)):
            return H, Verdict.failure(("inverse-closure", p), checked)
        if right != left:
            return H, Verdict.failure(("one-sided-inverses-differ", p), checked)

    for p, q, r in sweep(hbox, 3, 0, triple_samples, rng)[1]:
        checked += 1
        if W.mul(W.mul(p, q), r) != W.mul(p, W.mul(q, r)):
            return H, Verdict.failure(("associativity", p, q, r), checked)

    gamma = GammaInterval(W)
    interval_h = [p for p in hbox if gamma.contains(p)]
    for p, q in itertools.product(interval_h, repeat=2):
        checked += 1
        s = gamma.add(p, q)
        if s is not None and not H.contains(s):
            return H, Verdict.failure(("interval-closure", p, q), checked)

    return H, Verdict.passed(checked, detail=f"|H-box| = {len(hbox)}")


def check_whole_block_lex_agreement(W: PoLoop, bound: int = 2) -> Verdict:
    """For the one-block decomposition, H is the constant-tuple subloop; its
    interval must agree elementwise with Gamma(Z lex G, (1, 0)) on the box."""
    from kitealg.pogroup import IntegerGroup, LexProduct

    G = W.G
    lex = LexProduct(IntegerGroup(), G)
    lex_unit = (1, G.identity)
    lex_zero = (0, G.identity)
    H = BlockSubgroup(W, (frozenset(range(W.sys.n)),))
    gamma = GammaInterval(W)
    hbox = [p for p in H.enumerate_box(bound) if gamma.contains(p)]
    checked = 0

    def to_lex(p: LoopElement):
        return (p.m, p.coords[0])

    lex_interval = [
        g for g in lex.enumerate_box(bound)
        if lex.leq(lex_zero, g) and lex.leq(g, lex_unit)
    ]
    if sorted(map(to_lex, hbox), key=lex.encode) != sorted(lex_interval, key=lex.encode):
        return Verdict.failure(("carrier-mismatch",), checked)
    for p, q in itertools.product(hbox, repeat=2):
        checked += 1
        s = gamma.add(p, q)
        lex_sum = lex.op(to_lex(p), to_lex(q))
        lex_defined = lex.leq(lex_zero, lex_sum) and lex.leq(lex_sum, lex_unit)
        if (s is None) == lex_defined:
            return Verdict.failure(("definedness", p, q), checked)
        if s is not None and to_lex(s) != lex_sum:
            return Verdict.failure(("value", p, q), checked)
        if W.leq(p, q) != lex.leq(to_lex(p), to_lex(q)):
            return Verdict.failure(("order", p, q), checked)
    return Verdict.passed(checked)
