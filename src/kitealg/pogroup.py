"""Partially ordered groups: built-in instances, bounded enumeration, meets
where they exist, and the group descriptor parser.

Elements are plain Python values: ints for Z, int tuples for Z^k, nested
pairs for lexicographic and direct products.  Every built-in element
serializes to a flat integer tuple via ``encode`` (lexicographic products
flatten left-first), which gives stable hashing and report output.
"""

from __future__ import annotations

import itertools
import operator
from typing import Any

Element = Any


class UnsupportedCarrier(Exception):
    """Raised when a bounded enumeration is requested on an opaque group."""


class PreconditionError(ValueError):
    """An operation was called with inputs violating its contract."""


class PoGroup:
    """A group with a decidable translation-invariant partial order.

    Subclasses supply the carrier: ``identity``, and ``op``, ``inv`` and
    ``leq`` as ordinary methods (perfbench/tracing.py wraps them as plain
    functions).  The cone tests ``is_positive``/``is_negative`` and the one
    whole-tuple operation, ``op_each``, have generic defaults built on those;
    a group overrides them only for speed, and the overrides must agree with
    the defaults.  Instances are immutable and all operations are pure, so
    they are safe to share between workers.
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

    # Lattice structure, where available (Z, Z^k and direct products of such,
    # and lexicographic products of a chain with a lattice).
    has_meet = False
    # Chains: Z, Z^1 and lexicographic products of chains.
    totally_ordered = False

    def meet(self, a: Element, b: Element) -> Element:
        raise UnsupportedCarrier(f"{self.name} is not a built-in lattice")

    # Derived helpers.

    def lt(self, a: Element, b: Element) -> bool:
        return self.leq(a, b) and a != b

    def is_positive(self, a: Element) -> bool:
        return self.leq(self.identity, a)

    def is_negative(self, a: Element) -> bool:
        return self.leq(a, self.identity)

    def cones(self, bound: int) -> tuple[list, list]:
        """The box's positive and negative elements, each in box order."""
        box = self.enumerate_box(bound)
        return ([g for g in box if self.is_positive(g)],
                [g for g in box if self.is_negative(g)])

    def op_each(self, xs, ys) -> tuple:
        """The coordinatewise products (x_i y_i) of two coordinate sequences
        of equal length."""
        return tuple(map(self.op, xs, ys))

    def __repr__(self) -> str:
        return self.name


class IntegerGroup(PoGroup):
    """(Z, +) with the natural total order."""

    name = "Z"
    has_meet = True
    totally_ordered = True

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
        self.totally_ordered = k == 1

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
    """Lexicographic product: first coordinate strict, or equal and second below.

    It is a lattice when the left factor is totally ordered and the right one
    is a lattice; over a partially ordered left factor two elements with
    incomparable first coordinates have no greatest lower bound.
    """

    def __init__(self, left, right):
        super().__init__(left, right)
        self.name = f"lex({left.name},{right.name})"
        self.has_meet = left.totally_ordered and right.has_meet
        self.totally_ordered = left.totally_ordered and right.totally_ordered

    def leq(self, a, b):
        if self.left.lt(a[0], b[0]):
            return True
        return a[0] == b[0] and self.right.leq(a[1], b[1])

    def meet(self, a, b):
        if not self.has_meet:
            return super().meet(a, b)
        if a[0] == b[0]:
            return (a[0], self.right.meet(a[1], b[1]))
        return a if self.left.leq(a[0], b[0]) else b


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
        return list(self.loop.enumerate_box(bound))

    def encode(self, a):
        return (a.m,) + tuple(
            c for g in a.coords for c in self.loop.G.encode(g)
        )


# ---------------------------------------------------------------------------
# Descriptor parsing: Z | Z^k | lex(d1,d2) | prod(d1,d2)
# ---------------------------------------------------------------------------

MAX_NESTING = 100  # a product's order tests recurse once per level


def parse_group(text: str) -> PoGroup:
    group, rest = _parse_desc(text.strip(), 0)
    if rest.strip():
        raise ValueError(f"trailing input in group descriptor: {rest!r}")
    return group


def _parse_desc(s: str, depth: int) -> tuple[PoGroup, str]:
    s = s.lstrip()
    if s.startswith("lex(") or s.startswith("prod("):
        if depth == MAX_NESTING:
            raise ValueError("group descriptor nested too deeply")
        ctor = LexProduct if s.startswith("lex(") else DirectProduct
        s = s[s.index("(") + 1:]
        left, s = _parse_desc(s, depth + 1)
        s = s.lstrip()
        if not s.startswith(","):
            raise ValueError("expected ',' in product descriptor")
        right, s = _parse_desc(s[1:], depth + 1)
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
