"""Reference computations for the benchmark's correctness checks.

Nothing here imports kitealg: every expected value is derived from the
definitions of the paper (arXiv:1308.6172) with code of its own, so that a
verdict of the program is compared with a computation made apart from it.

Permutations are 0-based image tuples, p[i] being the image of i.  The kite
K(G, lam, rho) has Lower elements (G+)^n and Upper elements (G-)^n; a sum
Upper a + Lower f is defined iff f at rho^-1(i) lies below a_i^-1 for every
i, and Lower f + Upper a iff f at lam^-1(i) does; Upper + Upper is never
defined.  Because the twists only move coordinates, every count over the box
factors into per-coordinate counts, which gives the closed forms below.
"""

from __future__ import annotations

import itertools
from collections import Counter

# ---------------------------------------------------------------------------
# Index systems
# ---------------------------------------------------------------------------


def sigma(lam, rho) -> tuple[int, ...]:
    """rho o lam^-1, built from its defining equation sigma(lam(i)) = rho(i)."""
    out = [None] * len(lam)
    for i in range(len(lam)):
        out[lam[i]] = rho[i]
    return tuple(out)


def tau(lam, rho) -> tuple[int, ...]:
    """rho^-1 o lam, built from rho(tau(i)) = lam(i)."""
    where = {r: i for i, r in enumerate(rho)}
    return tuple(where[lam[i]] for i in range(len(lam)))


def orbits(perm) -> list[list[int]]:
    """The orbits of perm, each sorted, ordered by least element.

    Grows each orbit as a set closed under perm, rather than walking cycles.
    """
    left = set(range(len(perm)))
    out = []
    while left:
        orbit = {min(left)}
        frontier = set(orbit)
        while frontier:
            frontier = {perm[i] for i in frontier} - orbit
            orbit |= frontier
        left -= orbit
        out.append(sorted(orbit))
    return out


def twists_commute(lam, rho) -> bool:
    """Whether lam o rho = rho o lam, pointwise."""
    return all(lam[rho[i]] == rho[lam[i]] for i in range(len(lam)))


def cycle_type(perm) -> tuple[int, ...]:
    """Orbit lengths of perm, longest first."""
    return tuple(sorted((len(o) for o in orbits(perm)), reverse=True))


# ---------------------------------------------------------------------------
# Base groups, as int tuples with their orders written out
# ---------------------------------------------------------------------------


def _coordinatewise_leq(a, b):
    return all(x <= y for x, y in zip(a, b))


def _lex_leq(a, b):
    return a[0] < b[0] or (a[0] == b[0] and a[1] <= b[1])


# descriptor -> (dimension, order); elements are int tuples of that length
GROUPS = {
    "Z": (1, _coordinatewise_leq),
    "Z^2": (2, _coordinatewise_leq),
    "lex(Z,Z)": (2, _lex_leq),
}


def cones(group: str, bound: int):
    """(G+ within the box, G- within the box), enumerated directly."""
    k, leq = GROUPS[group]
    e = (0,) * k
    box = list(itertools.product(range(-bound, bound + 1), repeat=k))
    return [g for g in box if leq(e, g)], [g for g in box if leq(g, e)]


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _neg(a):
    return tuple(-x for x in a)


class BoxCounts:
    """Closed-form sizes of the kite box of (group, n, bound) and of the
    exhaustive sweeps the suites run over it."""

    def __init__(self, group: str, n: int, bound: int):
        _, leq = GROUPS[group]
        pos, neg = cones(group, bound)
        self.n = n
        self.pos, self.neg = len(pos), len(neg)
        # per coordinate: Lower+Lower sums by value, and the defined
        # Upper/Lower pairs (a, f) with f <= a^-1, by value of a.f
        ll = Counter(_add(f, g) for f in pos for g in pos)
        ul = Counter(_add(a, f) for a in neg for f in pos if leq(f, _neg(a)))
        self.ll_sq = sum(v * v for v in ll.values())
        self.ul = sum(ul.values())
        self.ul_sq = sum(v * v for v in ul.values())

    @property
    def box(self) -> int:
        """|G+ n box|^n + |G- n box|^n."""
        return self.pos ** self.n + self.neg ** self.n

    @property
    def defined_pairs(self) -> int:
        """Box pairs with a defined sum: all Lower+Lower pairs, and the
        Upper+Lower and Lower+Upper pairs coordinate by coordinate."""
        return self.pos ** (2 * self.n) + 2 * self.ul ** self.n

    @property
    def quadruples(self) -> int:
        """(a1, a2, b1, b2) over the box with a1+a2 = b1+b2 defined: the sum
        over values s of (pairs summing to s)^2, which factors by coordinate."""
        return self.ll_sq ** self.n + 4 * self.ul_sq ** self.n

    def axioms_checked(self) -> int:
        """Cases of the exhaustive axiom sweep: (ii) |box|+1 per element,
        (iv) one per element, (iii) one per defined pair, (i) every triple."""
        b = self.box
        return b * (b + 1) + b + self.defined_pairs + b ** 3

    def embed_checked(self) -> int:
        """The bijection check counts the box once, then every box pair."""
        return self.box + self.box ** 2

    def subdirect_checked(self, component_sizes) -> int:
        """Cases of the exhaustive subdirect check: injectivity and
        reconstruction per element; per component, surjectivity onto its box,
        complements per element, every box pair, and its kernel (Lower
        elements that are the identity on the component's preimage); and the
        kernel intersection per element."""
        b = self.box
        total = 3 * b
        for c in component_sizes:
            total += self.pos ** c + self.neg ** c
            total += b + b * b
            total += self.pos ** (self.n - c)
        return total
