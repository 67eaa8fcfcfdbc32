"""Packed integers for kites and their intervals over Z, Z^k and lex(Z,Z).

Every scalar coordinate sits in a W-bit offset-binary field: a value c is
stored as c + B with B = 2**(W-2), and the top bit of each field is
headroom.  An element with n coordinates in Z^k is one int made of three
segments of n*k fields plus two tag bits each:

    plain | lam_inv-twisted << S | rho_inv-twisted << 2S

The tag bit is set in every segment of an Upper element (interval level 1),
whose three segments are equal: only a Lower element is ever twisted.  With
its twists stored, a mixed sum is one add and one cone mask test, a Lower +
Lower sum is one add of whole ints, and Upper + Upper is told by the tag
bits adding up to 2.  Order and differences are a subtraction and a mask.

A `Packing` offers the operations the axiom, embedding and subdirect
checkers call on a kite (`add`, `leq`, both differences and complements,
`one`, `zero`), over these ints.  The same ints serve the interval
Gamma(W, u) of the po-loop, a Lower element at level 0 and an Upper one at
level 1: `product` is the loop product of two of them, spelled from the
loop's rule on levels rather than the kite's on tags.

A lex(Z,Z) element (a, b) packs as the scalar a*M + b of Z.  While |b| < M
that map is an order embedding and a homomorphism, so a lex(Z,Z) kite packs
as a Z kite; M exceeds every second coordinate the kernel forms.
"""

from __future__ import annotations

import itertools
import operator
import random

from kitealg.indexsys import perm_inverse
from kitealg.pogroup import IntegerGroup, LexProduct, VectorGroup
from kitealg.verdict import sweep

# each kernel sweep re-runs this many of its tuples (all of them when there
# are fewer) through the object path, drawn by a Random of their own
RECHECK = 256
RECHECK_SEED = 20130829


def supports(G) -> bool:
    """Z, Z^k and lex(Z,Z) exactly: a subclass may change the arithmetic."""
    return type(G) in (IntegerGroup, VectorGroup) or type(G) is LexProduct and (
        type(G.left) is type(G.right) is IntegerGroup)


def field_width(bound: int) -> int:
    """Bits per field for scalars of absolute value at most bound: the bias
    exceeds 8 * bound, so sums and differences of up to three box values,
    plus the mask offsets, never leave their field."""
    return (8 * bound).bit_length() + 2


def multiplier(bound: int) -> int:
    """M for lex(Z,Z) pairs of absolute values at most bound: a sum or
    difference of up to three box values keeps |b| <= 3 * bound < M."""
    return 8 * bound + 1


def coordinate_bound(G, coord_tuples) -> int:
    """The largest absolute scalar in the given coordinate tuples."""
    flat = type(G) is IntegerGroup
    return max((abs(s) for cs in coord_tuples
                for s in (cs if flat else itertools.chain.from_iterable(cs))), default=0)


def twist(segment: int, src, width: int) -> int:
    """The segment whose block i (width bits) is block src[i] of segment."""
    mask = (1 << width) - 1
    out = 0
    for i, j in enumerate(src):
        out |= (segment >> j * width & mask) << i * width
    return out


def recheck_tuples(size: int, arity: int):
    """The index tuples a kernel sweep re-runs through the object path."""
    return sweep(range(size), arity, RECHECK, RECHECK, random.Random(RECHECK_SEED))[1]


class Packing:
    """Packed elements with n coordinates in G (Z, Z^k or lex(Z,Z)), every
    scalar of absolute value at most bound; sums of up to three of them, and
    their differences, stay exact.  The differences take members of the kite
    (Lower coordinates positive, Upper ones negative), for which the object
    path's re-addition of a difference always holds.  The complements are the
    differences from `one`.

    The permutations lam_src and rho_src name the coordinate that the
    lam_inv- and rho_inv-twisted segments carry at each position.  `add`
    reads them as the kite's twists, `product` as the loop's lam^-1 and
    rho^-1.  The operations are closures over the layout's constants, so a
    sweep calls them without attribute lookups.
    """

    def __init__(self, G, n: int, bound: int, lam_src, rho_src):
        self.flat = type(G) is not VectorGroup
        self.k = k = 1 if self.flat else G.k
        self.M = M = multiplier(bound) if type(G) is LexProduct else 0
        self.w = w = field_width(bound * (M + 1) if M else bound)
        self.bias = B = 1 << (w - 2)
        fields = n * k
        self.shifts = [w * f for f in range(fields)]
        ones = sum(1 << s for s in self.shifts)
        BIAS, HI, NEG = B * ones, 2 * B * ones, (B - 1) * ones
        self.block = block = k * w
        self.TAG = TAG = 1 << (fields * w)
        TAG2 = 2 * TAG
        self.S = S = fields * w + 2
        S2 = 2 * S
        SEG = (1 << S) - 1
        REP = 1 | 1 << S | 1 << S2
        BIAS3, HI3 = BIAS * REP, HI * REP
        self.BIAS, self.REP = BIAS, REP
        self.lam_src, self.rho_src = list(lam_src), list(rho_src)
        lam_fwd, rho_fwd = perm_inverse(self.lam_src), perm_inverse(self.rho_src)
        lower = self.lower

        def add(x, y):
            if y & TAG:  # Lower + Upper: x's lam_inv segment; Upper + Upper has tag 2
                s = (x >> S & SEG) + (y & SEG) - BIAS
                return None if s >= TAG2 or (s + NEG) & HI else s * REP
            if x & TAG:  # Upper + Lower: y's rho_inv segment
                s = (x & SEG) + (y >> S2) - BIAS
                return None if (s + NEG) & HI else s * REP
            return x + y - BIAS3

        def product(p, q):
            """The loop product p*q: p twisted by lam^-(level of q), q by
            rho^-(level of p), at the sum of the levels; None unless below u."""
            level = (p & TAG) + (q & TAG)  # TAG times the level
            if level == TAG2:
                return None
            if not level:  # no twist, and every segment is a sum
                return p + q - BIAS3
            s = (p >> S & SEG if q & TAG else p & SEG) + (q >> S2 if p & TAG else q & SEG) - BIAS
            return None if (s + NEG) & HI else s * REP

        def leq(x, y):
            if (x ^ y) & TAG:
                return not x & TAG
            return (y - x + HI3) & HI3 == HI3

        def positive(p):
            return (p + BIAS) & HI == HI

        def diff_left(b, a):
            """The d with d + a = b, or None."""
            if a & TAG:
                if not b & TAG:
                    return None
                li = (b & SEG) - (a & SEG) + BIAS  # d's lam_inv segment
                return lower(twist(li, lam_fwd, block)) if positive(li) else None
            if b & TAG:
                p = (b & SEG) - (a >> S2) + BIAS
                return None if (p + NEG) & HI else p * REP
            d = b - a + BIAS3
            return d if positive(d & SEG) else None

        def diff_right(a, b):
            """The c with a + c = b, or None."""
            if a & TAG:
                if not b & TAG:
                    return None
                ri = (b & SEG) - (a & SEG) + BIAS  # c's rho_inv segment
                return lower(twist(ri, rho_fwd, block)) if positive(ri) else None
            if b & TAG:
                p = (b & SEG) - (a >> S & SEG) + BIAS
                return None if (p + NEG) & HI else p * REP
            c = b - a + BIAS3
            return c if positive(c & SEG) else None

        self.add, self.product, self.leq = add, product, leq
        self.diff_left, self.diff_right = diff_left, diff_right
        self.zero = lower(BIAS)
        self.one = one = (TAG + BIAS) * REP
        self.complement_minus = lambda x: diff_left(one, x)
        self.complement_tilde = lambda x: diff_right(x, one)

    def lower(self, plain: int) -> int:
        """The Lower element with this plain segment."""
        return (plain | twist(plain, self.lam_src, self.block) << self.S
                | twist(plain, self.rho_src, self.block) << 2 * self.S)

    def pack(self, upper: bool, coords) -> int:
        """The element with these n coordinates, Upper (level 1) or Lower."""
        M = self.M
        scalars = ([a * M + b for a, b in coords] if M else
                   coords if self.flat else itertools.chain.from_iterable(coords))
        plain = self.BIAS + sum(map(operator.lshift, scalars, self.shifts))
        return (plain + self.TAG) * self.REP if upper else self.lower(plain)

    def decode(self, v: int) -> tuple[bool, tuple]:
        """(upper, coords) of a packed element."""
        mask = (1 << self.w) - 1
        scalars = [(v >> s & mask) - self.bias for s in self.shifts]
        if self.M:
            h = self.M // 2
            scalars = [(a, b - h) for a, b in (divmod(s + h, self.M) for s in scalars)]
        elif not self.flat:
            scalars = [tuple(scalars[i:i + self.k]) for i in range(0, len(scalars), self.k)]
        return bool(v & self.TAG), tuple(scalars)

    def restriction(self, lower_positions, upper_positions):
        """The map of an element to its restriction: a Lower one keeps its
        plain fields at lower_positions and its twisted fields at
        upper_positions, an Upper one its fields at upper_positions; every
        other field holds the identity.  This is a component's packing at
        the parent's positions when lam_inv and rho_inv carry
        lower_positions onto upper_positions."""
        blocks = (1 << self.block) - 1

        def fields(positions):
            return sum(blocks << p * self.block for p in positions)

        lo, up, S = fields(lower_positions), fields(upper_positions), self.S
        keep_lower = lo | up << S | up << 2 * S
        keep_upper = (up | self.TAG) * self.REP
        fill_lower = self.BIAS * self.REP & ~keep_lower
        fill_upper = self.BIAS * self.REP & ~keep_upper
        TAG = self.TAG

        def restrict(v):
            if v & TAG:
                return v & keep_upper | fill_upper
            return v & keep_lower | fill_lower
        return restrict
