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
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Optional

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
        return all(cone(c) for c in x.coords)

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
            coords = self.G.op_each_negative(
                map(x.coords.__getitem__, self.sys.lam_inv), y.coords)
        elif y.tag == UPPER:
            return None
        else:  # Upper + Lower, twisted by rho
            coords = self.G.op_each_negative(
                x.coords, map(y.coords.__getitem__, self.sys.rho_inv))
        return None if coords is None else KiteElement(UPPER, coords)

    # -- complements and differences ---------------------------------------

    def complement_minus(self, x: KiteElement) -> KiteElement:
        """The left complement: minus(x) + x = 1."""
        self._check(x)
        G, sys = self.G, self.sys
        if x.tag == LOWER:
            return KiteElement(UPPER, tuple(G.inv(x.coords[sys.rho_inv[i]])
                                            for i in range(sys.n)))
        return KiteElement(LOWER, tuple(G.inv(x.coords[sys.lam[j]])
                                        for j in range(sys.n)))

    def complement_tilde(self, x: KiteElement) -> KiteElement:
        """The right complement: x + tilde(x) = 1."""
        self._check(x)
        G, sys = self.G, self.sys
        if x.tag == LOWER:
            return KiteElement(UPPER, tuple(G.inv(x.coords[sys.lam_inv[i]])
                                            for i in range(sys.n)))
        return KiteElement(LOWER, tuple(G.inv(x.coords[sys.rho[j]])
                                        for j in range(sys.n)))

    def diff_left(self, b: KiteElement, a: KiteElement) -> Optional[KiteElement]:
        """The unique d with d + a = b, or None when a is not below b."""
        d = self._solve_left(b, a)
        if d is None or not self.is_member(d) or self.add(d, a) != b:
            return None
        return d

    def diff_right(self, a: KiteElement, b: KiteElement) -> Optional[KiteElement]:
        """The unique c with a + c = b, or None when a is not below b."""
        c = self._solve_right(a, b)
        if c is None or not self.is_member(c) or self.add(a, c) != b:
            return None
        return c

    def _solve_left(self, b, a):
        self._check(b)
        self._check(a)
        G, sys = self.G, self.sys
        if a.tag == LOWER and b.tag == LOWER:
            return KiteElement(LOWER, tuple(G.op(y, G.inv(x))
                                            for x, y in zip(a.coords, b.coords)))
        if a.tag == LOWER and b.tag == UPPER:  # d Upper, case Upper+Lower
            rho_inv = sys.rho_inv
            return KiteElement(UPPER, tuple(
                G.op(b.coords[i], G.inv(a.coords[rho_inv[i]])) for i in range(sys.n)))
        if a.tag == UPPER and b.tag == UPPER:  # d Lower, case Lower+Upper
            lam = sys.lam
            return KiteElement(LOWER, tuple(
                G.op(b.coords[lam[j]], G.inv(a.coords[lam[j]])) for j in range(sys.n)))
        return None  # Upper below Lower never holds

    def _solve_right(self, a, b):
        self._check(a)
        self._check(b)
        G, sys = self.G, self.sys
        if a.tag == LOWER and b.tag == LOWER:
            return KiteElement(LOWER, tuple(G.op(G.inv(x), y)
                                            for x, y in zip(a.coords, b.coords)))
        if a.tag == UPPER and b.tag == UPPER:  # c Lower, case Upper+Lower
            rho = sys.rho
            return KiteElement(LOWER, tuple(
                G.op(G.inv(a.coords[rho[j]]), b.coords[rho[j]]) for j in range(sys.n)))
        if a.tag == LOWER and b.tag == UPPER:  # c Upper, case Lower+Upper
            lam_inv = sys.lam_inv
            return KiteElement(UPPER, tuple(
                G.op(G.inv(a.coords[lam_inv[i]]), b.coords[i]) for i in range(sys.n)))
        return None

    # -- meets (for the RDP2 side condition) --------------------------------

    def meet(self, x: KiteElement, y: KiteElement) -> KiteElement:
        """x ^ y when G is a built-in lattice: two tuples of one layer meet
        coordinatewise, and a Lower below an Upper is the meet itself."""
        if x.tag != y.tag:
            return x if x.tag == LOWER else y
        return KiteElement(x.tag, tuple(map(self.G.meet, x.coords, y.coords)))

    def meet_is_zero(self, x: KiteElement, y: KiteElement,
                     sample: Iterable[KiteElement] = ()) -> bool:
        """Decide x ^ y = 0.

        When G is a built-in lattice the meet is computed directly.
        Otherwise 0 must be the only common lower bound found in the sample.
        """
        if self.G.has_meet:
            return self.meet(x, y) == self.zero
        for z in sample:
            if z != self.zero and self.leq(z, x) and self.leq(z, y):
                return False
        return True


# ---------------------------------------------------------------------------
# Axiom and property checkers
# ---------------------------------------------------------------------------

def check_pea_axioms(A: KiteAlgebra, sample: list[KiteElement], seed: int = 0,
                     triple_cap: int = 600_000, pair_cap: int = 600_000,
                     draws: int = 40_000) -> Verdict:
    """Check the four pseudo-effect-algebra axioms over the sample.

    Per-element axioms are exhaustive; the associativity axiom exhausts all
    triples when their count is at most triple_cap and otherwise uses seeded
    random draws (reported in the verdict detail).

    When the triples are exhausted, every sample pair sum is computed once
    into an n x n table that axioms (ii), (iii) and (i) read; n**3 <=
    triple_cap bounds the table.  When triples are drawn, each sum is
    computed where it is read, so memory stays linear in the sample.
    """
    rng = random.Random(seed)
    add, one, zero = A.add, A.one, A.zero
    n = len(sample)
    indices = range(n)
    if n ** 3 <= triple_cap:
        rows = [[add(a, b) for b in sample] for a in sample]
    else:
        rows = None
    checked = 0

    # (ii) unique complements, validated by re-addition
    for i, a in enumerate(sample):
        d, e = A.complement_tilde(a), A.complement_minus(a)
        if add(a, d) != one or add(e, a) != one:
            return Verdict.failure(("axiom-ii-closed-form", a), checked)
        if rows is None:
            right = [add(a, x) for x in sample]
            left = [add(x, a) for x in sample]
        else:
            right = rows[i]
            left = [row[i] for row in rows]
        for x, ax, xa in zip(sample, right, left):
            if ax == one and x != d:
                return Verdict.failure(("axiom-ii-right-unique", a, x, d), checked)
            if xa == one and x != e:
                return Verdict.failure(("axiom-ii-left-unique", a, x, e), checked)
        checked += n + 1

    # (iv) only 0 adds with 1
    for a in sample:
        checked += 1
        if (add(one, a) is not None or add(a, one) is not None) and a != zero:
            return Verdict.failure(("axiom-iv", a), checked)

    # (iii) every defined sum decomposes from both sides; sweeping indices
    # draws the same stream as sweeping the sample itself
    for i, j in sweep(indices, 2, pair_cap, draws, rng)[1]:
        a, b = sample[i], sample[j]
        s = add(a, b) if rows is None else rows[i][j]
        if s is None:
            continue
        checked += 1
        d = A.diff_left(s, a)   # s = d + a
        e = A.diff_right(b, s)  # s = b + e
        if d is None or e is None:
            return Verdict.failure(("axiom-iii", a, b), checked)

    # (i) associativity with definedness, both directions
    exhaustive, triples = sweep(indices, 3, triple_cap, draws, rng)
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
            return Verdict.failure(("axiom-i", a, b, c), checked)

    mode = "exhaustive triples" if exhaustive else f"{draws} sampled triples"
    return Verdict.passed(checked, detail=mode)


def check_commutativity(A: KiteAlgebra, sample: list[KiteElement]) -> Verdict:
    """PASS when + is commutative on all sample pairs (definedness included);
    FAIL carries the first non-commutativity witness."""
    checked = 0
    for x, y in itertools.combinations(sample, 2):
        checked += 1
        if A.add(x, y) != A.add(y, x):
            return Verdict.failure((x, y), checked,
                                   f"{x}+{y} = {A.add(x, y)} but {y}+{x} = {A.add(y, x)}")
    return Verdict.passed(checked, detail="commutative on sample")


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


def sum_classes(A: KiteAlgebra, sample: list[KiteElement]) -> list[list]:
    """The sample pairs (a, b) with a defined sum, grouped by that sum, in
    the order each sum first appears."""
    by_sum: dict[KiteElement, list] = {}
    for a, b in itertools.product(sample, repeat=2):
        s = A.add(a, b)
        if s is not None:
            by_sum.setdefault(s, []).append((a, b))
    return list(by_sum.values())


def quadruple_box(classes) -> Box:
    """The quadruples (a1, a2, b1, b2) with (a1, a2) and (b1, b2) in one sum
    class, class by class."""
    return Box((lambda t: t[0] + t[1], pairs, 2) for pairs in classes)


def rdp_quadruples(A: KiteAlgebra, sample: list[KiteElement], box=None):
    """All (a1, a2, b1, b2) from the sample with a1+a2 = b1+b2 defined.

    box, when given, is ``quadruple_box(sum_classes(A, sample))`` already
    built.
    """
    yield from quadruple_box(sum_classes(A, sample)) if box is None else box


def rdp_side_condition(A: KiteAlgebra, variant: str, c12, c21,
                       sample: list[KiteElement]) -> bool:
    if variant in ("RDP0", "RDP"):
        return True
    if variant == "RDP2":
        return A.meet_is_zero(c12, c21, sample)
    if variant == "RDP1":  # com within the sampled carrier
        xs = [x for x in sample if A.leq(x, c12)]
        ys = [y for y in sample if A.leq(y, c21)]
        return all(A.add(x, y) == A.add(y, x) for x in xs for y in ys)
    raise ValueError(f"unknown variant {variant!r}")


def find_kite_refinement(A: KiteAlgebra, variant: str, a1, a2, b1, b2,
                         sample: list[KiteElement]):
    """Search for a refinement matrix of the quadruple; None when the bounded
    search is exhausted."""
    def candidates():
        # the coordinate meet is the canonical choice in the lattice case;
        # fall back to scanning the sample only when it fails
        if A.G.has_meet:
            yield A.meet(a1, b1)
        for c in sample:
            if A.leq(c, a1) and A.leq(c, b1):
                yield c

    seen = set()
    for c11 in candidates():
        if c11 in seen:
            continue
        seen.add(c11)
        rest = _refine(A, a1, a2, b1, b2, c11)
        if rest is None:
            continue
        c12, c21, c22 = rest
        if rdp_side_condition(A, variant, c12, c21, sample):
            return ((c11, c12), (c21, c22))
    return None


def check_kite_rdp(A: KiteAlgebra, variant: str, sample: list[KiteElement],
                   quad_cap: int = 300_000, seed: int = 0) -> Verdict:
    """Search a refinement for every sampled quadruple with equal defined sums.

    A missing refinement is INCONCLUSIVE (bounded search), not a refutation.
    Above quad_cap, quad_cap positions of the quadruple box are drawn and
    decoded one at a time, so no list of quadruples is held.
    """
    box = quadruple_box(sum_classes(A, sample))
    if len(box) <= quad_cap:
        quads = rdp_quadruples(A, sample, box)
    else:
        # the positions random.sample would pick from list(box), each
        # decoded when it is read
        rng = random.Random(seed)
        quads = map(box.__getitem__, rng.sample(range(len(box)), quad_cap))
    checked, found, witnesses = min(len(box), quad_cap), 0, []
    for a1, a2, b1, b2 in quads:
        if find_kite_refinement(A, variant, a1, a2, b1, b2, sample) is not None:
            found += 1
        elif len(witnesses) < 5:
            witnesses.append((a1, a2, b1, b2))
    if found < checked:
        return Verdict(
            "INCONCLUSIVE", checked=checked, witnesses=tuple(witnesses),
            detail=f"{found}/{checked} quadruples refined; "
                   f"{checked - found} without a witness in the box",
        )
    return Verdict.passed(checked, detail=f"all {found} quadruples refined")
