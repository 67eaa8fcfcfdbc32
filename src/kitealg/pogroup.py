"""Partially ordered groups: built-in instances, bounded enumeration, and
the Riesz decomposition property searchers.

Elements are plain Python values: ints for Z, int tuples for Z^k, nested
pairs for lexicographic and direct products.  Every built-in element
serializes to a flat integer tuple via ``encode`` (lexicographic products
flatten left-first), which gives stable hashing and report output.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Any, Callable

from kitealg.verdict import Verdict

Element = Any


class UnsupportedCarrier(Exception):
    """Raised when a bounded enumeration is requested on an opaque group."""


class PreconditionError(ValueError):
    """An operation was called with inputs violating its contract."""


class PoGroup:
    """A group with a decidable translation-invariant partial order.

    Subclasses supply the carrier: ``identity``, and ``op``, ``inv`` and
    ``leq`` as ordinary methods (perfbench/tracing.py wraps them as plain
    functions).  The cone tests ``is_positive``/``is_negative`` and the
    whole-tuple operations ``op_each``/``op_each_negative`` have generic
    defaults built on those; a group overrides them only for speed, and the
    overrides must agree with the defaults.  Instances are immutable and all
    operations are pure, so they are safe to share between workers.
    """

    name = "po-group"

    def op(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def inv(self, a: Element) -> Element:
        raise NotImplementedError

    @property
    def identity(self) -> Element:
        raise NotImplementedError

    def leq(self, a: Element, b: Element) -> bool:
        raise NotImplementedError

    def enumerate_box(self, bound: int) -> list[Element]:
        raise UnsupportedCarrier(f"{self.name} has no canonical enumeration")

    def encode(self, a: Element) -> tuple[int, ...]:
        raise UnsupportedCarrier(f"{self.name} has no canonical encoding")

    # Lattice structure, where available (Z, Z^k and direct products of such).
    has_meet = False

    def meet(self, a: Element, b: Element) -> Element:
        raise UnsupportedCarrier(f"{self.name} is not a built-in lattice")

    # Derived helpers.

    def lt(self, a: Element, b: Element) -> bool:
        return self.leq(a, b) and a != b

    def is_positive(self, a: Element) -> bool:
        return self.leq(self.identity, a)

    def is_negative(self, a: Element) -> bool:
        return self.leq(a, self.identity)

    def positive_box(self, bound: int) -> list[Element]:
        return [g for g in self.enumerate_box(bound) if self.is_positive(g)]

    # Whole-tuple operations on coordinate sequences of equal length.

    def op_each(self, xs, ys) -> tuple:
        """The coordinatewise products (x_i y_i)."""
        return tuple(map(self.op, xs, ys))

    def op_each_negative(self, xs, ys) -> tuple | None:
        """``op_each(xs, ys)`` when every product lies in the negative cone,
        else None (stops at the first product outside it)."""
        out = []
        for x, y in zip(xs, ys):
            p = self.op(x, y)
            if not self.is_negative(p):
                return None
            out.append(p)
        return tuple(out)

    def __repr__(self) -> str:
        return self.name


class IntegerGroup(PoGroup):
    """(Z, +) with the natural total order."""

    name = "Z"
    has_meet = True

    def op(self, a, b):
        return a + b

    def inv(self, a):
        return -a

    @property
    def identity(self):
        return 0

    def leq(self, a, b):
        return a <= b

    def is_positive(self, a):
        return a >= 0

    def is_negative(self, a):
        return a <= 0

    def op_each(self, xs, ys):
        return tuple(map(operator.add, xs, ys))

    def op_each_negative(self, xs, ys):
        out = tuple(map(operator.add, xs, ys))
        return out if max(out, default=0) <= 0 else None

    def meet(self, a, b):
        return min(a, b)

    def enumerate_box(self, bound):
        return list(range(-bound, bound + 1))

    def encode(self, a):
        return (a,)


class VectorGroup(PoGroup):
    """Z^k with coordinatewise order (an l-group for every k)."""

    has_meet = True

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("dimension must be at least 1")
        self.k = k
        self.name = f"Z^{k}"

    def op(self, a, b):
        return tuple(map(operator.add, a, b))

    def inv(self, a):
        return tuple(map(operator.neg, a))

    @property
    def identity(self):
        return (0,) * self.k

    def leq(self, a, b):
        return all(map(operator.le, a, b))

    def is_positive(self, a):
        return min(a) >= 0

    def is_negative(self, a):
        return max(a) <= 0

    def op_each(self, xs, ys):
        return tuple(map(tuple, map(map, itertools.repeat(operator.add), xs, ys)))

    def op_each_negative(self, xs, ys):
        out = self.op_each(xs, ys)
        return out if max(map(max, out), default=0) <= 0 else None

    def meet(self, a, b):
        return tuple(map(min, a, b))

    def enumerate_box(self, bound):
        return [t for t in itertools.product(range(-bound, bound + 1), repeat=self.k)]

    def encode(self, a):
        return tuple(a)


class _ProductBase(PoGroup):
    def __init__(self, left: PoGroup, right: PoGroup):
        self.left = left
        self.right = right
        self._identity = (left.identity, right.identity)

    def op(self, a, b):
        return (self.left.op(a[0], b[0]), self.right.op(a[1], b[1]))

    def inv(self, a):
        return (self.left.inv(a[0]), self.right.inv(a[1]))

    @property
    def identity(self):
        return self._identity

    def enumerate_box(self, bound):
        return [
            (x, y)
            for x in self.left.enumerate_box(bound)
            for y in self.right.enumerate_box(bound)
        ]

    def encode(self, a):
        return self.left.encode(a[0]) + self.right.encode(a[1])


class LexProduct(_ProductBase):
    """Lexicographic product: first coordinate strict, or equal and second below."""

    def __init__(self, left, right):
        super().__init__(left, right)
        self.name = f"lex({left.name},{right.name})"

    def leq(self, a, b):
        if self.left.lt(a[0], b[0]):
            return True
        return a[0] == b[0] and self.right.leq(a[1], b[1])


class DirectProduct(_ProductBase):
    """Direct product with coordinatewise order."""

    def __init__(self, left, right):
        super().__init__(left, right)
        self.name = f"prod({left.name},{right.name})"
        self.has_meet = left.has_meet and right.has_meet

    def leq(self, a, b):
        return self.left.leq(a[0], b[0]) and self.right.leq(a[1], b[1])

    def meet(self, a, b):
        return (self.left.meet(a[0], b[0]), self.right.meet(a[1], b[1]))


class LoopGroup(PoGroup):
    """A po-loop reinterpreted as a po-group; requires associativity.

    Useful for producing associative but non-commutative carriers at desk
    scale (e.g. the twisted product over Z with commuting twists).
    """

    def __init__(self, loop):
        if not loop.twists_commute():
            raise PreconditionError("loop is not associative; not a group")
        self.loop = loop
        self.name = f"group({loop.name})"

    def op(self, a, b):
        return self.loop.mul(a, b)

    def inv(self, a):
        right, left = self.loop.inverses(a)
        # associativity forces the two inverses to coincide
        if right != left:
            raise PreconditionError("one-sided inverses differ; loop not a group")
        return right

    @property
    def identity(self):
        return self.loop.neutral

    def leq(self, a, b):
        return self.loop.leq(a, b)

    def enumerate_box(self, bound):
        return self.loop.enumerate_box(bound)

    def encode(self, a):
        return (a.m,) + tuple(
            c for g in a.coords for c in self.loop.G.encode(g)
        )


# ---------------------------------------------------------------------------
# Descriptor parsing: Z | Z^k | lex(d1,d2) | prod(d1,d2)
# ---------------------------------------------------------------------------

def parse_group(text: str) -> PoGroup:
    desc = text.strip()
    group, rest = _parse_desc(desc)
    if rest.strip():
        raise ValueError(f"trailing input in group descriptor: {rest!r}")
    return group


def _parse_desc(s: str) -> tuple[PoGroup, str]:
    s = s.lstrip()
    if s.startswith("lex(") or s.startswith("prod("):
        ctor = LexProduct if s.startswith("lex(") else DirectProduct
        s = s[s.index("(") + 1:]
        left, s = _parse_desc(s)
        s = s.lstrip()
        if not s.startswith(","):
            raise ValueError("expected ',' in product descriptor")
        right, s = _parse_desc(s[1:])
        s = s.lstrip()
        if not s.startswith(")"):
            raise ValueError("expected ')' in product descriptor")
        return ctor(left, right), s[1:]
    if s.startswith("Z^"):
        i = 2
        while i < len(s) and s[i].isdigit():
            i += 1
        if i == 2:
            raise ValueError("Z^ must be followed by a dimension")
        return VectorGroup(int(s[2:i])), s[i:]
    if s.startswith("Z"):
        return IntegerGroup(), s[1:]
    raise ValueError(f"unrecognized group descriptor at: {s!r}")


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupHom:
    source: PoGroup
    target: PoGroup
    fn: Callable[[Element], Element]
    name: str = "h"

    def __call__(self, g: Element) -> Element:
        return self.fn(g)


def check_hom(h: GroupHom, bound: int) -> Verdict:
    """Verify the po-group homomorphism laws on the source box."""
    box = h.source.enumerate_box(bound)
    G, H = h.source, h.target
    if h(G.identity) != H.identity:
        return Verdict.failure(("identity", h(G.identity)), detail="h(e) != e")
    checked = 1
    for g in box:
        if h(G.inv(g)) != H.inv(h(g)):
            return Verdict.failure(("inverse", g), checked, "h(g^-1) != h(g)^-1")
        checked += 1
    for g, gp in itertools.product(box, repeat=2):
        if h(G.op(g, gp)) != H.op(h(g), h(gp)):
            return Verdict.failure(("op", g, gp), checked, "h(g.g') != h(g).h(g')")
        if G.leq(g, gp) and not H.leq(h(g), h(gp)):
            return Verdict.failure(("order", g, gp), checked, "order not preserved")
        checked += 1
    return Verdict.passed(checked)


# ---------------------------------------------------------------------------
# com relation and RDP ladder
# ---------------------------------------------------------------------------

def check_com(G: PoGroup, a: Element, b: Element, bound: int) -> Verdict:
    """a com b: every x in [e,a] commutes with every y in [e,b] (box-bounded)."""
    if not (G.is_positive(a) and G.is_positive(b)):
        raise PreconditionError("check_com requires a, b in the positive cone")
    box = G.enumerate_box(bound)
    xs = [x for x in box if G.is_positive(x) and G.leq(x, a)]
    ys = [y for y in box if G.is_positive(y) and G.leq(y, b)]
    checked = 0
    for x in xs:
        for y in ys:
            checked += 1
            if G.op(x, y) != G.op(y, x):
                return Verdict.failure((x, y), checked, "non-commuting pair")
    return Verdict.passed(checked)


RDP_VARIANTS = ("RIP", "RDP0", "RDP", "RDP1", "RDP2")


@dataclass(frozen=True)
class RdpWitness:
    variant: str
    inputs: tuple
    found: bool
    refinement: tuple | None = None  # ((c11, c12), (c21, c22)) or (c,) for RIP
    detail: str = ""


def _meet_is_identity(G: PoGroup, x: Element, y: Element, bound: int) -> bool:
    """Decide x ^ y = e.

    Built-in lattices use the coordinatewise meet; for general po-groups the
    meet is operationalized as 'e is the only common lower bound of {x, y}
    within the positive part of the box'.
    """
    if G.has_meet:
        return G.meet(x, y) == G.identity
    e = G.identity
    for z in G.enumerate_box(bound):
        if z != e and G.is_positive(z) and G.leq(z, x) and G.leq(z, y):
            return False
    return True


def rdp_witness(G: PoGroup, variant: str, a1, a2, b1, b2, bound: int) -> RdpWitness:
    """Search the enumeration box for a refinement witnessing the given
    Riesz property on the quadruple.

    found=False is a bounded-search verdict (INCONCLUSIVE at the caller),
    never a disproof.
    """
    if variant not in RDP_VARIANTS:
        raise PreconditionError(f"unknown RDP variant {variant!r}")
    inputs = (a1, a2, b1, b2)
    e = G.identity

    if variant == "RIP":
        for b in (b1, b2):
            for a in (a1, a2):
                if not G.leq(a, b):
                    raise PreconditionError("RIP requires a1,a2 <= b1,b2")
        for c in G.enumerate_box(bound):
            if G.leq(a1, c) and G.leq(a2, c) and G.leq(c, b1) and G.leq(c, b2):
                return RdpWitness(variant, inputs, True, (c,))
        return RdpWitness(variant, inputs, False, detail="no interpolant in box")

    if not all(G.is_positive(g) for g in inputs):
        raise PreconditionError("RDP inputs must lie in the positive cone")

    if variant == "RDP0":
        # a1 <= b1 + b2; find c11 <= b1, c12 <= b2 with a1 = c11 + c12.
        if not G.leq(a1, G.op(b1, b2)):
            raise PreconditionError("RDP0 requires a1 <= b1 + b2")
        for c11 in G.positive_box(bound):
            if not G.leq(c11, b1):
                continue
            c12 = G.op(G.inv(c11), a1)
            if G.is_positive(c12) and G.leq(c12, b2):
                return RdpWitness(variant, inputs, True, ((c11, c12), (e, e)))
        return RdpWitness(variant, inputs, False, detail="no decomposition in box")

    if G.op(a1, a2) != G.op(b1, b2):
        raise PreconditionError("RDP requires a1 + a2 = b1 + b2")

    for c11 in G.positive_box(bound):
        if not (G.leq(c11, a1) and G.leq(c11, b1)):
            continue
        c12 = G.op(G.inv(c11), a1)
        c21 = G.op(G.inv(c11), b1)
        if not (G.is_positive(c12) and G.is_positive(c21)):
            continue
        c22 = G.op(G.inv(c21), a2)
        if not G.is_positive(c22):
            continue
        if G.op(c12, c22) != b2:
            continue
        if variant == "RDP1" and not check_com(G, c12, c21, bound).ok:
            continue
        if variant == "RDP2" and not _meet_is_identity(G, c12, c21, bound):
            continue
        return RdpWitness(variant, inputs, True, ((c11, c12), (c21, c22)))
    return RdpWitness(variant, inputs, False, detail="no refinement in box")


# ---------------------------------------------------------------------------
# Structural self-checks used by tests and reports
# ---------------------------------------------------------------------------

def check_po_group_axioms(G: PoGroup, bound: int, translation_samples: int = 200,
                          rng=None) -> Verdict:
    """Group laws, order laws, and translation-invariance on the box.

    Associativity and translation-invariance are cubic/quartic in the box, so
    they are sampled when the box is large; reflexivity, antisymmetry,
    transitivity and the inverse law are exhaustive.
    """
    import random as _random
    rng = rng or _random.Random(0)
    box = G.enumerate_box(bound)
    e = G.identity
    checked = 0
    if e not in box:
        return Verdict.failure(("identity-missing",), detail="e not in box")
    for g in box:
        checked += 3
        if G.op(g, e) != g or G.op(e, g) != g:
            return Verdict.failure(("neutral", g), checked)
        if G.op(g, G.inv(g)) != e or G.op(G.inv(g), g) != e:
            return Verdict.failure(("inverse", g), checked)
        if not G.leq(g, g):
            return Verdict.failure(("reflexivity", g), checked)
    for g, h in itertools.product(box, repeat=2):
        checked += 1
        if G.leq(g, h) and G.leq(h, g) and g != h:
            return Verdict.failure(("antisymmetry", g, h), checked)

    def triples():
        if len(box) ** 3 <= 200_000:
            yield from itertools.product(box, repeat=3)
        else:
            for _ in range(200_000):
                yield rng.choice(box), rng.choice(box), rng.choice(box)

    for g, h, k in triples():
        checked += 2
        if G.op(G.op(g, h), k) != G.op(g, G.op(h, k)):
            return Verdict.failure(("associativity", g, h, k), checked)
        if G.leq(g, h) and G.leq(h, k) and not G.leq(g, k):
            return Verdict.failure(("transitivity", g, h, k), checked)

    pairs = [(a, b) for a, b in itertools.product(box, repeat=2) if G.leq(a, b)]
    for _ in range(translation_samples):
        a, b = rng.choice(pairs)
        x, y = rng.choice(box), rng.choice(box)
        checked += 1
        if not G.leq(G.op(G.op(x, a), y), G.op(G.op(x, b), y)):
            return Verdict.failure(("translation", a, b, x, y), checked)
    return Verdict.passed(checked)


def directed_upper_bound(G: PoGroup, g1: Element, g2: Element, bound: int):
    """Find a common upper bound of g1, g2 within an enlarged box, or None."""
    mag = max(
        (abs(c) for c in G.encode(g1) + G.encode(g2)), default=0,
    )
    for g in G.enumerate_box(bound + mag):
        if G.leq(g1, g) and G.leq(g2, g):
            return g
    return None
