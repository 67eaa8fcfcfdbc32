"""The kite partial algebra over a po-group and an index system.

Elements live in two stacked layers: Lower tuples with coordinates in the
positive cone, and Upper tuples whose coordinates are stored directly as
negative-cone values (the inverses are recovered on demand).  The all-identity
Lower tuple is 0, the all-identity Upper tuple is 1, and they are distinct.

UNDEFINED sums are returned as None so that definedness agreement is itself
testable.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

from kitealg import packed, verdict
from kitealg.indexsys import IndexSystem
from kitealg.pogroup import PoGroup
from kitealg.verdict import Box, Verdict, sweep

LOWER = "L"
UPPER = "U"


@dataclass(frozen=True)
class KiteElement:
    tag: str
    coords: tuple

    def __repr__(self):
        return f"{self.tag}{list(self.coords)}"


class ShapeMismatch(ValueError):
    pass


class KiteAlgebra:
    """K(G, sys): the kite pseudo effect algebra of G twisted by lam, rho."""

    def __init__(self, G: PoGroup, sys: IndexSystem):
        self.G = G
        self.sys = sys
        e = G.identity
        self.zero = KiteElement(LOWER, (e,) * sys.n)
        self.one = KiteElement(UPPER, (e,) * sys.n)

    def __repr__(self):
        return f"Kite({self.G.name}, n={self.sys.n})"

    # -- element plumbing ---------------------------------------------------

    def _check(self, x: KiteElement):
        if len(x.coords) != self.sys.n:
            raise ShapeMismatch(f"expected {self.sys.n} coordinates, got {len(x.coords)}")

    def is_member(self, x: KiteElement) -> bool:
        if len(x.coords) != self.sys.n:
            return False
        cone = self.G.is_positive if x.tag == LOWER else self.G.is_negative
        return all(map(cone, x.coords))

    def lower(self, *coords) -> KiteElement:
        return KiteElement(LOWER, tuple(coords))

    def upper(self, *coords) -> KiteElement:
        return KiteElement(UPPER, tuple(coords))

    def enumerate_box(self, bound: int) -> Box:
        """All elements with coordinates in the box: Lower tuples over the
        positive part, then Upper tuples over the negative part; 0 first."""
        pos, neg = self.G.cones(bound)
        n = self.sys.n
        return Box([(partial(KiteElement, LOWER), pos, n),
                    (partial(KiteElement, UPPER), neg, n)])

    # -- order and addition -------------------------------------------------

    def leq(self, x: KiteElement, y: KiteElement) -> bool:
        self._check(x)
        self._check(y)
        if x.tag == y.tag:
            return all(map(self.G.leq, x.coords, y.coords))
        return x.tag == LOWER  # every Lower sits below every Upper

    def add(self, x: KiteElement, y: KiteElement) -> Optional[KiteElement]:
        """The twisted partial sum; None when undefined.

        A mixed sum is defined iff f <= a^-1 in every coordinate, where f is
        the Lower coordinate and a the stored Upper one.  By translation
        invariance that is f.a <= e (Lower + Upper) or a.f <= e (Upper +
        Lower), so each coordinate's product is computed once and its cone
        tested.
        """
        self._check(x)
        self._check(y)
        if x.tag == LOWER:
            if y.tag == LOWER:
                return KiteElement(LOWER, self.G.op_each(x.coords, y.coords))
            # Lower + Upper, twisted by lambda
            coords = self.G.op_each(map(x.coords.__getitem__, self.sys.lam_inv), y.coords)
        elif y.tag == UPPER:
            return None
        else:  # Upper + Lower, twisted by rho
            coords = self.G.op_each(x.coords, map(y.coords.__getitem__, self.sys.rho_inv))
        return KiteElement(UPPER, coords) if all(map(self.G.is_negative, coords)) else None

    # -- complements and differences ---------------------------------------

    def complement_minus(self, x: KiteElement) -> KiteElement:
        """The left complement, the difference from 1: minus(x) + x = 1."""
        return self._solve_left(self.one, x)

    def complement_tilde(self, x: KiteElement) -> KiteElement:
        """The right complement, the difference from 1: x + tilde(x) = 1."""
        return self._solve_right(x, self.one)

    def diff_left(self, b: KiteElement, a: KiteElement) -> Optional[KiteElement]:
        """For members a and b, the unique d with d + a = b, or None when a is not
        below b: the solved candidate exactly when it is a member (not re-added)."""
        d = self._solve_left(b, a)
        return d if d is not None and self.is_member(d) else None

    def diff_right(self, a: KiteElement, b: KiteElement) -> Optional[KiteElement]:
        """For members a and b, the unique c with a + c = b, or None when a is
        not below b: the solved candidate exactly when it is a member."""
        c = self._solve_right(a, b)
        return c if c is not None and self.is_member(c) else None

    def _solve_left(self, b, a):
        """The candidate d for d + a = b, unchecked: b.a^-1 coordinatewise, each
        coordinate read where the sum's twist puts it."""
        self._check(b)
        self._check(a)
        G, sys = self.G, self.sys
        if a.tag == LOWER and b.tag == LOWER:
            tag, ac, bc = LOWER, a.coords, b.coords
        elif a.tag == LOWER:  # d Upper, case Upper+Lower
            tag, ac, bc = UPPER, map(a.coords.__getitem__, sys.rho_inv), b.coords
        elif b.tag == UPPER:  # d Lower, case Lower+Upper
            tag, (ac, bc) = LOWER, (map(x.coords.__getitem__, sys.lam) for x in (a, b))
        else:
            return None  # Upper below Lower never holds
        return KiteElement(tag, G.op_each(bc, map(G.inv, ac)))

    def _solve_right(self, a, b):
        """The candidate c for a + c = b, unchecked: a^-1.b, read through the sum's twist."""
        self._check(a)
        self._check(b)
        G, sys = self.G, self.sys
        if a.tag == LOWER and b.tag == LOWER:
            tag, ac, bc = LOWER, a.coords, b.coords
        elif a.tag == LOWER:  # c Upper, case Lower+Upper
            tag, ac, bc = UPPER, map(a.coords.__getitem__, sys.lam_inv), b.coords
        elif b.tag == UPPER:  # c Lower, case Upper+Lower
            tag, (ac, bc) = LOWER, (map(x.coords.__getitem__, sys.rho) for x in (a, b))
        else:
            return None
        return KiteElement(tag, G.op_each(map(G.inv, ac), bc))

    # -- meets (for the RDP2 side condition) --------------------------------

    def meet(self, x: KiteElement, y: KiteElement) -> KiteElement:
        """x ^ y when G is a built-in lattice: two tuples of one layer meet
        coordinatewise, and a Lower below an Upper is the meet itself."""
        if x.tag != y.tag:
            return x if x.tag == LOWER else y
        return KiteElement(x.tag, tuple(map(self.G.meet, x.coords, y.coords)))

    def meet_is_zero(self, x: KiteElement, y: KiteElement) -> bool:
        """x ^ y = 0, the RDP2 side condition, on a built-in lattice."""
        return self.meet(x, y) == self.zero


# ---------------------------------------------------------------------------
# Axiom and property checkers
# ---------------------------------------------------------------------------

def check_pea_axioms(A: KiteAlgebra, sample: list[KiteElement], seed: int = 0) -> Verdict:
    """Check the four pseudo-effect-algebra axioms over the sample.

    Per-element axioms are exhaustive; the pairs of (iii) and the triples of
    the associativity axiom (i) are each one `sweep`, exhaustive up to
    verdict.CAP tuples and otherwise verdict.DRAWS seeded draws (reported in
    the verdict detail).

    When the triples are exhausted, every sample pair sum is computed once
    into an n x n table that axioms (ii), (iii) and (i) read; n**3 <= CAP
    bounds the table.  When triples are drawn, each sum is computed where it
    is read, so memory stays linear in the sample.

    The sweeps run on the kernel that `choose_kernel` picks, packed once a
    seeded sample of triples agrees with the kite's own operations (`recheck`).
    Witnesses name sample elements; axiom (ii)'s (a, x) names an x that
    completes a to 1 but is not its complement.
    """
    K, values = choose_kernel(A, sample)
    if K is A:
        return named(_pea_axioms(A, sample, seed), sample)

    def agrees(*t):
        got = _axiom_probe(K, *map(values.__getitem__, t))
        return got == [packed_element(K, r) for r in _axiom_probe(A, *map(sample.__getitem__, t))]
    return recheck(sample, 3, agrees) or named(_pea_axioms(K, values, seed), sample)


def choose_kernel(A, items):
    """The one switch between the packed kernel and the object path: A's
    Packing and the items packed into ints, when A is a KiteAlgebra itself
    (not a subclass) over a built-in lattice and every item is a member;
    else A and the items themselves.  The fields hold the items' scalars.
    An item is a member when it has n coordinates and its packed int passes
    `Packing.member`, one mask test of its layer's cone."""
    n = A.sys.n
    if type(A) is KiteAlgebra and packed.supports(A.G) and all(len(x.coords) == n for x in items):
        P = packed.Packing(A.G, A.sys, packed.coordinate_bound(A.G, (x.coords for x in items)))
        values = [packed_element(P, x) for x in items]
        if all(map(P.member, values)):
            return P, values
    return A, items


def recheck(items, arity: int, agrees, checked: int = 0,
            detail: str = "packed kernel and object path disagree"):
    """Before a fast sweep: the kernel-disagreement FAIL naming the items at
    the first tuple t of positions in packed.recheck_tuples where agrees(*t),
    the fast path against the object path, is false; else None, so that
    `recheck(...) or sweep` runs the sweep only when they all agree."""
    for t in packed.recheck_tuples(len(items), arity):
        if not agrees(*t):
            return Verdict.failure(("kernel-disagreement", *map(items.__getitem__, t)), checked,
                                   detail)
    return None


def packed_element(P: packed.Packing, x):
    """x packed by P; None stays None."""
    return None if x is None else P.pack(x.tag == UPPER, x.coords)


def named(v: Verdict, items) -> Verdict:
    """v with each int in its witnesses, and in the tuples inside them,
    replaced by items[int]: every such int in a sweep's witness is a position
    in items (labels are str, components lists)."""
    def name(w):
        return items[w] if type(w) is int else tuple(map(name, w)) if type(w) is tuple else w
    return replace(v, witnesses=tuple(map(name, v.witnesses)))


def _axiom_probe(X, a, b, c) -> list:
    """The operations the axiom checks apply to a triple, on X: a kite or
    its packing."""
    ab, bc = X.add(a, b), X.add(b, c)
    out = [ab, bc, X.complement_tilde(a), X.complement_minus(a),
           None if bc is None else X.add(a, bc)]
    if ab is not None:
        out += [X.add(ab, c), X.diff_left(ab, a), X.diff_right(b, ab),
                X.diff_left(ab, b), X.diff_right(a, ab)]
    return out


def _pea_axioms(A, sample, seed) -> Verdict:
    """check_pea_axioms on A's operations, a kite's or its packing's; witnesses are positions."""
    rng = random.Random(seed)
    add, one, zero = A.add, A.one, A.zero
    n = len(sample)
    indices = range(n)
    if n ** 3 <= verdict.CAP:
        rows = [[add(a, b) for b in sample] for a in sample]
    else:
        rows = None
    checked = 0

    # (ii) unique complements, validated by re-addition
    for i, a in enumerate(sample):
        d, e = A.complement_tilde(a), A.complement_minus(a)
        if add(a, d) != one or add(e, a) != one:
            return Verdict.failure(("axiom-ii-closed-form", i), checked)
        if rows is None:
            right = [add(a, x) for x in sample]
            left = [add(x, a) for x in sample]
        else:
            right = rows[i]
            left = [row[i] for row in rows]
        for j, x, ax, xa in zip(indices, sample, right, left):
            if ax == one and x != d:
                return Verdict.failure(("axiom-ii-right-unique", i, j), checked)
            if xa == one and x != e:
                return Verdict.failure(("axiom-ii-left-unique", i, j), checked)
        checked += n + 1

    # (iv) only 0 adds with 1
    for i, a in enumerate(sample):
        checked += 1
        if (add(one, a) is not None or add(a, one) is not None) and a != zero:
            return Verdict.failure(("axiom-iv", i), checked)

    # (iii) every defined sum decomposes from both sides; sweeping indices
    # draws the same stream as sweeping the sample itself
    for i, j in sweep(indices, 2, rng)[1]:
        a, b = sample[i], sample[j]
        s = add(a, b) if rows is None else rows[i][j]
        if s is None:
            continue
        checked += 1
        # the differences only solve; each is re-added here, independently
        d = A.diff_left(s, a)   # s = d + a
        e = A.diff_right(b, s)  # s = b + e
        if d is None or e is None or add(d, a) != s or add(b, e) != s:
            return Verdict.failure(("axiom-iii", i, j), checked)

    # (i) associativity with definedness, both directions
    exhaustive, triples = sweep(indices, 3, rng)
    for i, j, k in triples:
        checked += 1
        a, b, c = sample[i], sample[j], sample[k]
        if rows is None:
            ab, bc = add(a, b), add(b, c)
        else:
            ab, bc = rows[i][j], rows[j][k]
        left = add(ab, c) if ab is not None else None
        right = add(a, bc) if bc is not None else None
        if left != right:  # None differs from every element
            return Verdict.failure(("axiom-i", i, j, k), checked)

    mode = "exhaustive triples" if exhaustive else f"{verdict.DRAWS} sampled triples"
    return Verdict.passed(checked, detail=mode)


def check_commutativity(A: KiteAlgebra, sample: list[KiteElement]) -> Verdict:
    """PASS when + is commutative on all sample pairs (definedness included)
    and lam = rho.  FAIL carries the first witness pair, else the first j
    (1-based) with lam(j) != rho(j): for any g > e, L[g at j] + U[g^-1
    everywhere] is defined both ways, and the sums differ, as x + y reads g
    through lam^-1 and y + x through rho^-1."""
    checked = 0
    for x, y in itertools.combinations(sample, 2):
        checked += 1
        if A.add(x, y) != A.add(y, x):
            return Verdict.failure((x, y), checked,
                                   f"{x}+{y} = {A.add(x, y)} but {y}+{x} = {A.add(y, x)}")
    lam, rho = A.sys.one_based()
    j = next((j for j in range(A.sys.n) if lam[j] != rho[j]), None)
    if j is None:
        return Verdict.passed(checked, detail="commutative on sample")
    return Verdict.failure(("coordinate", j + 1), checked, f"lambda({j + 1}) = {lam[j]} but "
                           f"rho({j + 1}) = {rho[j]}; no sample pair is a witness")


def _refine(A: KiteAlgebra, a1, a2, b1, b2, c11):
    """Derive the rest of the refinement matrix from c11; None if it breaks."""
    c12 = A.diff_right(c11, a1)
    c21 = A.diff_right(c11, b1)
    if c12 is None or c21 is None:
        return None
    c22 = A.diff_right(c21, a2)
    if c22 is None or A.add(c12, c22) != b2:
        return None
    return c12, c21, c22


def sum_classes(X, sample) -> list[list]:
    """The position pairs (i, j) of the sample whose sum sample[i] +
    sample[j] is defined, grouped by that sum, in the order each sum first
    appears; X is a kite or its packing, the sample its elements."""
    by_sum: dict = {}
    sums = itertools.starmap(X.add, itertools.product(sample, repeat=2))
    for ij, s in zip(itertools.product(range(len(sample)), repeat=2), sums):
        if s is not None:
            by_sum.setdefault(s, []).append(ij)
    return list(by_sum.values())


def quadruple_box(classes) -> Box:
    """The quadruples (i1, i2, j1, j2) with (i1, i2) and (j1, j2) in one sum
    class, class by class."""
    return Box((lambda t: t[0] + t[1], pairs, 2) for pairs in classes)


def rdp_quadruples(box, rng):
    """The quadruples check_kite_rdp checks, from its `quadruple_box`: one
    `sweep` of the box, all of it up to verdict.CAP quadruples, else
    verdict.DRAWS positions drawn by rng, each decoded when read."""
    yield from (quad for (quad,) in sweep(box, 1, rng)[1])


def find_kite_refinement(A: KiteAlgebra, a1, a2, b1, b2):
    """The RDP2 refinement matrix of the quadruple on a lattice, or None.

    c11 = a1 ^ b1 is the only candidate.  Taking x to the d with c + d = x
    is an order isomorphism of [c, 1] onto [0, tilde(c)], so c12 ^ c21 is
    the d with c11 + d = a1 ^ b1, which is 0 only when c11 = a1 ^ b1.
    """
    c11 = A.meet(a1, b1)
    rest = _refine(A, a1, a2, b1, b2, c11)
    if rest is not None and A.meet_is_zero(rest[0], rest[1]):
        return (c11, rest[0]), rest[1:]
    return None


def corner_memo(X, sample):
    """On a lattice, refined(i1, i2, j1, j2): whether find_kite_refinement
    refines the quadruple (a1, a2, b1, b2) of the sample at those positions,
    with the corner of (a1, b1) computed once per sample pair.  X is a kite
    or its packing, the sample its elements.  The corner is c12 and c21 from
    c11 = a1 ^ b1 when both exist and c12 ^ c21 = 0; each quadruple then
    checks only c12 + c22 = b2 for c22 = diff_right(c21, a2), solved once per
    distinct (c21, a2).  Corners sit in two flat n x n lists at i1*n + j1
    (False where a pair has none), and they and the c22 are interned, so that
    the memo holds one reference per distinct element and no object per pair."""
    n = len(sample)
    c12s, c21s = [None] * (n * n), [None] * (n * n)
    interned, c22s = {}, {}
    diff_right, add = X.diff_right, X.add

    def refined(i1, i2, j1, j2) -> bool:
        k = i1 * n + j1
        c12 = c12s[k]
        if c12 is None:
            a1, b1 = sample[i1], sample[j1]
            c11 = X.meet(a1, b1)
            c12, c21 = diff_right(c11, a1), diff_right(c11, b1)
            if c12 is None or c21 is None or not X.meet_is_zero(c12, c21):
                c12 = c21 = False
            else:
                c12, c21 = interned.setdefault(c12, c12), interned.setdefault(c21, c21)
            c12s[k], c21s[k] = c12, c21
        if c12 is False:
            return False
        key = id(c21s[k]) * n + i2  # c21 is interned: its id names it while the memo lives
        c22 = c22s.get(key, False)
        if c22 is False:
            c22 = diff_right(c21s[k], sample[i2])
            c22 = c22s[key] = interned.setdefault(c22, c22)  # None interns to itself
        return c22 is not None and add(c12, c22) == sample[j2]
    return refined


def check_kite_rdp(A: KiteAlgebra, sample: list[KiteElement], seed: int = 0) -> Verdict:
    """Refine every swept quadruple with equal defined sums from c11 = a1 ^ b1;
    a missing refinement is INCONCLUSIVE, not a refutation.  With no meet in
    G nothing is searched: INCONCLUSIVE, with nothing checked.

    The quadruples are `rdp_quadruples` of sample positions, read one at a
    time from Random(seed); witnesses are named from the sample.  The sum
    classes and `corner_memo` run on the kernel `choose_kernel` picks.
    Packed, up to 256 sample pairs first compare the kernel's sum with the
    kite's (`recheck`), since the sum classes decide `checked`.  Up to 256
    box positions then re-run `find_kite_refinement`; a disagreement is a
    kernel-disagreement FAIL naming the quadruple.
    """
    if not A.G.has_meet:
        return Verdict("INCONCLUSIVE", detail=f"{A.G.name} has no meet: no quadruple searched")
    K, values = choose_kernel(A, sample)
    bad = K is not A and recheck(sample, 2, lambda i, j: K.add(values[i], values[j])
                                 == packed_element(K, A.add(sample[i], sample[j])))
    if bad:
        return bad
    box = quadruple_box(sum_classes(K, values))

    def searched(*quad) -> bool:
        return find_kite_refinement(A, *map(sample.__getitem__, quad)) is not None
    refined = corner_memo(K, values)
    bad = recheck(box, 1, lambda i: refined(*box[i]) == searched(*box[i]),
                  detail="corner memo and find_kite_refinement disagree")
    if bad is not None:
        return named(bad, sample)
    checked, found, witnesses = 0, 0, []
    for quad in rdp_quadruples(box, random.Random(seed)):
        checked += 1
        if refined(*quad):
            found += 1
        elif len(witnesses) < 5:
            witnesses.append(quad)
    if found < checked:
        return named(Verdict("INCONCLUSIVE", checked, tuple(witnesses),
                             f"{found}/{checked} quadruples refined; "
                             f"{checked - found} without a witness in the box"), sample)
    return Verdict.passed(checked, detail=f"all {found} quadruples refined")
