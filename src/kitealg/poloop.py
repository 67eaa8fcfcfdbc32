"""The unital po-loop Z lex-times G^I with twisted multiplication, its
interval pseudo effect algebra, the embedding of the kite, and the
block-constant subgroup of a valid block decomposition, built as the image
of the loop of the block system the twists induce.

One-sided inverses are computed by solving the multiplication equation
coordinatewise, never by transcribing index formulas whose meaning depends
on an unstated composition convention; both candidate readings of those
formulas can be cross-checked against the solved inverses.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cache, partial
from typing import Optional

from kitealg import packed, verdict
from kitealg.indexsys import IndexSystem, block_system, perm_compose, perm_power
from kitealg.kite import (
    LOWER,
    KiteAlgebra,
    KiteElement,
    choose_kernel,
    named,
    packed_element,
    recheck,
)
from kitealg.pogroup import IntegerGroup, LexProduct, PoGroup
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
        # lam^k and rho^k by k, each computed once
        self.lam_pow = cache(partial(perm_power, sys.lam))
        self.rho_pow = cache(partial(perm_power, sys.rho))

    def __repr__(self):
        return self.name

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


class _Words(PoGroup):
    """The free monoid: words are tuples of letters, op concatenates them."""

    identity = ()

    def op(self, a, b):
        return a + b


def _generic_defect(sys: IndexSystem, owner):
    """(level triples tried, defect) of PoLoop.mul run on generic elements:
    coordinate j of factor k is the one-letter word ((k, owner[j]),).  Both
    sides of the law are words p[.] q[.] r[.]; their q letters differ where
    lam^c and rho^a (c, a the levels of r and p) do not commute on the
    classes of owner, which the twists permute, so levels in {-1, 0, 1}
    decide every level.  The defect is None, or the first failing levels, a
    coordinate i (1-based) and a letter (k, s) of (pq)r[i] that p(qr)[i] lacks."""
    F = PoLoop(_Words(), sys)
    for tried, levels in enumerate(itertools.product((-1, 0, 1), repeat=3), 1):
        p, q, r = (LoopElement(m, tuple(((k, c),) for c in owner)) for k, m in enumerate(levels))
        for i, (u, v) in enumerate(zip(F.mul(F.mul(p, q), r).coords, F.mul(p, F.mul(q, r)).coords)):
            if u != v:
                return tried, (levels, i + 1, next(s for s in u if s not in v))
    return tried, None


def is_associative(W: PoLoop, bound: int = 2) -> Verdict:
    """Associativity: the permutation criterion and the real product on
    generic elements (_generic_defect) must agree, and so must concrete
    triples: the packed re-check's box triples when associative, else the
    witness, the failing levels with one nonzero box element at the letter.
    The bound-0 box holds only the neutral element: the levels stand in."""
    algebraic = W.twists_commute()
    checked, defect = _generic_defect(W.sys, range(W.sys.n))
    if algebraic != (defect is None):
        return Verdict.failure(("criterion-disagreement", algebraic, defect), checked,
                               "permutation test and generic product disagree: implementation bug")
    if algebraic:
        box = W.enumerate_box(bound)
        triples = (map(box.__getitem__, t) for t in packed.recheck_tuples(len(box), 3))
    elif bound < 1:
        return Verdict.failure(("levels", *defect[:2]), checked,
                               f"non-associative at levels {defect[0]}, coordinate {defect[1]}: "
                               "the bound-0 box holds no concrete witness")
    else:
        levels, _, letter = defect
        g, e = next(x for x in W.G.enumerate_box(bound) if x != W.G.identity), W.G.identity
        triples = [[LoopElement(m, tuple(g if (k, c) == letter else e for c in range(W.sys.n)))
                    for k, m in enumerate(levels)]]
    for p, q, r in triples:
        checked += 1
        if (W.mul(W.mul(p, q), r) == W.mul(p, W.mul(q, r))) != algebraic:
            return Verdict.failure(("criterion-disagreement", algebraic, (p, q, r)), checked,
                                   "a box triple contradicts both criteria: implementation bug")
    if algebraic:
        return Verdict.passed(checked, detail="associative: twists commute")
    return Verdict("FAIL", checked=checked, witnesses=((p, q, r),),
                   detail="non-associative: witness triple found")


def criteria_disagree(v: Verdict) -> bool:
    """Whether an is_associative verdict is a disagreement of its criteria,
    rather than the observation that the loop is non-associative."""
    return v.failed and v.witnesses[0][0] == "criterion-disagreement"


def strong_unit_check(W: PoLoop, sample: list[LoopElement], nmax: int) -> Verdict:
    """For every sampled g, find the least n <= nmax with g <= u^n."""
    checked = 0
    worst = 0
    for g in sample:
        checked += 1
        n = next((k for k in range(nmax + 1) if W.leq(g, W.u_power(k))), None)
        if n is None:
            return Verdict.failure(("no-power", g), checked, f"no u^n with n <= {nmax} is above it")
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


def embed_kite(A: KiteAlgebra, bound: int = 2, seed: int = 0) -> Verdict:
    """Verify that phi is an isomorphism of partial algebras between the kite
    box and the interval box: bijective, preserves 0, 1, order, and the
    definedness and value of + on the box pairs, one `sweep` from
    Random(seed); a pair witness names two kite box elements.

    The pair sweep runs on the kernel that `choose_kernel` picks.  Packed,
    each element is its own image: the kite sum against the loop product, and
    the order against the existence of a difference, once a seeded sample of
    pairs has tied them to the kite, loop and interval (`recheck`)."""
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

    K, xs = choose_kernel(A, kite_box)
    if K is A:
        return named(_embed_pairs(A, W.leq, gamma.add, embed_kite_element, kite_box, images,
                                  checked, seed), kite_box)

    def agrees(i, j):
        x, y, p, q = kite_box[i], kite_box[j], images[i], images[j]
        t = gamma.add(p, q)
        want = [A.leq(x, y), W.leq(p, q), packed_element(K, A.add(x, y)),
                None if t is None else K.pack(t.m == 1, t.coords)]
        leq = K.leq(xs[i], xs[j])
        return [leq, leq, K.add(xs[i], xs[j]), K.product(xs[i], xs[j])] == want

    def interval_leq(p, q):
        """p <= q read from the kite's own difference, not from the order on
        levels, then fields, that K.leq spells."""
        return K.diff_left(q, p) is not None
    return recheck(kite_box, 2, agrees, checked) or named(
        _embed_pairs(K, interval_leq, K.product, lambda s: s, xs, xs, checked, seed), kite_box)


def _embed_pairs(K, interval_leq, interval_add, phi, xs, ps, checked, seed) -> Verdict:
    """The pair sweep of embed_kite: K's order and sum on the kite items xs
    against the interval's on their images ps, phi mapping a kite sum to its
    image; a witness names the pair's positions in xs."""
    exhaustive, pairs = sweep(range(len(xs)), 2, random.Random(seed))
    kite_leq, kite_add = K.leq, K.add
    for i, j in pairs:
        checked += 1
        x, y, px, py = xs[i], xs[j], ps[i], ps[j]
        if kite_leq(x, y) != interval_leq(px, py):
            return Verdict.failure(("order", i, j), checked)
        s = kite_add(x, y)
        t = interval_add(px, py)
        if (s is None) != (t is None):
            return Verdict.failure(("definedness", i, j), checked)
        if s is not None and phi(s) != t:
            return Verdict.failure(("value", i, j), checked)
    return Verdict.passed(checked, detail="" if exhaustive else f"{verdict.DRAWS} sampled pairs")


# ---------------------------------------------------------------------------
# The block-constant subgroup
# ---------------------------------------------------------------------------

def _lift(owner):
    """h -> h o owner: from the loop of a block system to the block-constant
    element of W that repeats each block's coordinate."""
    return lambda h: LoopElement(h.m, tuple(map(h.coords.__getitem__, owner)))


def block_subgroup(W: PoLoop, blocks, bound: int = 2,
                   seed: int = 0) -> tuple[PoLoop, Verdict]:
    """The block-constant subgroup H of a valid block decomposition is the
    image of the block system's loop Wb = PoLoop(G, block_system) under
    `_lift`.  Return Wb and verify on its box that the lift preserves the
    product (on one `sweep` of box pairs), both inverses (so H is closed under
    them and they agree) and the interval part's partial addition, and
    associativity on generic block-constant elements (one letter per block).
    Witnesses name elements of W."""
    bsys, owner = block_system(W.sys, blocks)
    Wb, lift = PoLoop(W.G, bsys), _lift(owner)
    bbox = list(Wb.enumerate_box(bound))
    hbox = list(map(lift, bbox))
    checked = 0

    for i, j in sweep(range(len(hbox)), 2, random.Random(seed))[1]:
        checked += 1
        if W.mul(hbox[i], hbox[j]) != lift(Wb.mul(bbox[i], bbox[j])):
            return Wb, Verdict.failure(("mul-homomorphism", hbox[i], hbox[j]), checked)
    for a, p in zip(bbox, hbox):
        checked += 1
        if W.inverses(p) != (lift(Wb.inverses(a)[0]),) * 2:
            return Wb, Verdict.failure(("inverses", p), checked)

    tried, defect = _generic_defect(W.sys, owner)
    checked += tried
    if defect is not None:
        return Wb, Verdict.failure(("associativity", *defect[:2]), checked)

    gamma = GammaInterval(W)
    interval = [(a, p) for a, p in zip(bbox, hbox) if gamma.contains(p)]
    for (a, p), (b, q) in itertools.product(interval, repeat=2):
        checked += 1
        s = gamma.add(p, q)
        if s is not None and s != lift(Wb.mul(a, b)):
            return Wb, Verdict.failure(("interval-closure", p, q), checked)
    return Wb, Verdict.passed(checked, detail=f"|H-box| = {len(hbox)}")


def check_whole_block_lex_agreement(W: PoLoop, bound: int = 2) -> Verdict:
    """For the one-block decomposition, H is the constant-tuple subloop: its
    interval, the lift of the one-block loop's, must agree elementwise with
    Gamma(Z lex G, (1, 0)), both built from levels 0 and 1 over the box."""
    G, gamma = W.G, GammaInterval(W)
    lex = LexProduct(IntegerGroup(), G)
    lex_zero, lex_unit = (0, G.identity), (1, G.identity)
    bsys, owner = block_system(W.sys, [range(W.sys.n)])
    hbox = list(map(_lift(owner), GammaInterval(PoLoop(G, bsys)).enumerate_box(bound)))
    checked = 0

    def to_lex(p: LoopElement):
        return (p.m, p.coords[0])

    lex_interval = [g for g in itertools.product((0, 1), G.enumerate_box(bound))
                    if lex.leq(lex_zero, g) and lex.leq(g, lex_unit)]
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
