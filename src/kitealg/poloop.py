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
from typing import Optional

from kitealg.indexsys import (
    IndexSystem,
    normalize_partition,
    perm_compose,
    perm_power,
    validate_decomposition,
)
from kitealg.kite import KiteAlgebra, KiteElement, LOWER, UPPER
from kitealg.pogroup import PoGroup
from kitealg.verdict import Verdict, merge


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

    def inverses(self, p: LoopElement) -> tuple[LoopElement, LoopElement]:
        """(right, left): p*right = neutral = left*p, solved coordinatewise."""
        self._check(p)
        G, n, m = self.G, self.sys.n, p.m
        right = [None] * n
        lam_m, rho_neg = self.lam_pow(m), self.rho_pow(-m)
        for i in range(n):
            right[rho_neg[i]] = G.inv(p.coords[lam_m[i]])
        left = [None] * n
        lam_neg, rho_m = self.lam_pow(-m), self.rho_pow(m)
        for i in range(n):
            left[lam_neg[i]] = G.inv(p.coords[rho_m[i]])
        return LoopElement(-m, tuple(right)), LoopElement(-m, tuple(left))

    def leq(self, p: LoopElement, q: LoopElement) -> bool:
        self._check(p)
        self._check(q)
        if p.m != q.m:
            return p.m < q.m
        return all(map(self.G.leq, p.coords, q.coords))

    def u_power(self, k: int) -> LoopElement:
        return LoopElement(k, (self.G.identity,) * self.sys.n)

    def enumerate_box(self, bound: int) -> list[LoopElement]:
        gbox = self.G.enumerate_box(bound)
        return [
            LoopElement(m, coords)
            for m in range(-bound, bound + 1)
            for coords in itertools.product(gbox, repeat=self.sys.n)
        ]

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
    box = W.enumerate_box(bound)
    rng = random.Random(seed)
    witness = None
    checked = 0

    def triples():
        if len(box) ** 3 <= triple_cap:
            yield from itertools.product(box, repeat=3)
            return
        shells = [W.u_power(m) for m in range(-bound, bound + 1)]
        for p, q, r in itertools.product(shells, box, shells):
            yield p, q, r
        for _ in range(draws):
            yield rng.choice(box), rng.choice(box), rng.choice(box)

    for p, q, r in triples():
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
        self._require(p)
        G, sys = self.W.G, self.W.sys
        if p.m == 0:
            return LoopElement(1, tuple(G.inv(p.coords[sys.lam_inv[i]])
                                        for i in range(sys.n)))
        return LoopElement(0, tuple(G.inv(p.coords[sys.rho[i]])
                                    for i in range(sys.n)))

    def complement_minus(self, p: LoopElement) -> LoopElement:
        self._require(p)
        G, sys = self.W.G, self.W.sys
        if p.m == 0:
            return LoopElement(1, tuple(G.inv(p.coords[sys.rho_inv[i]])
                                        for i in range(sys.n)))
        return LoopElement(0, tuple(G.inv(p.coords[sys.lam[i]])
                                    for i in range(sys.n)))

    def enumerate_box(self, bound: int) -> list[LoopElement]:
        """The interval's elements with coordinates in the box, in the order
        of the loop's box: level 0 over the positive part, then level 1 over
        the negative part.  Built from the group's cones, not from the kite's
        box, so that embed_kite compares two enumerations."""
        G, n = self.W.G, self.W.sys.n
        gbox = G.enumerate_box(bound)
        pos = [g for g in gbox if G.is_positive(g)]
        neg = [g for g in gbox if G.is_negative(g)]
        return ([LoopElement(0, c) for c in itertools.product(pos, repeat=n)]
                + [LoopElement(1, c) for c in itertools.product(neg, repeat=n)])

    def check_complements(self, bound: int) -> Verdict:
        """Re-multiply the closed-form complements on the interval box."""
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
    definedness and value of + on all box pairs."""
    W = PoLoop(A.G, A.sys)
    gamma = GammaInterval(W)
    kite_box = A.enumerate_box(bound)
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

    for (x, px), (y, py) in itertools.product(zip(kite_box, images), repeat=2):
        checked += 1
        if A.leq(x, y) != W.leq(px, py):
            return Verdict.failure(("order", x, y), checked)
        s = A.add(x, y)
        t = gamma.add(px, py)
        if (s is None) != (t is None):
            return Verdict.failure(("definedness", x, y), checked)
        if s is not None and embed_kite_element(s) != t:
            return Verdict.failure(("value", x, y), checked)
    return Verdict.passed(checked)


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

    def enumerate_box(self, bound: int) -> list[LoopElement]:
        """Block-constant elements with box coordinates, deterministic order."""
        W = self.parent
        gbox = W.G.enumerate_box(bound)
        out = []
        for m in range(-bound, bound + 1):
            for choice in itertools.product(gbox, repeat=len(self.blocks)):
                coords = [None] * W.sys.n
                for block, g in zip(self.blocks, choice):
                    for i in block:
                        coords[i] = g
                out.append(LoopElement(m, tuple(coords)))
        return out


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
    hbox = H.enumerate_box(bound)
    verdicts = []
    checked = 0

    if not H.contains(W.unit):
        return H, Verdict.failure(("unit-not-member",))

    pairs = itertools.product(hbox, repeat=2)
    if len(hbox) ** 2 > 100_000:
        pairs = ((rng.choice(hbox), rng.choice(hbox)) for _ in range(100_000))
    for p, q in pairs:
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

    for _ in range(triple_samples):
        p, q, r = rng.choice(hbox), rng.choice(hbox), rng.choice(hbox)
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

    verdicts.append(Verdict.passed(checked))
    return H, merge(verdicts, detail=f"|H-box| = {len(hbox)}")


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
