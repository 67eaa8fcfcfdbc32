"""Packed integers for kites and their intervals over the built-in lattices.

`layout` embeds each built-in lattice in some Z^k, order and operation
alike, by one rule: Z^k is k fields, prod(X, Y) is X's fields then Y's, and
lex(X, Y) over a chain X (one field x) is x*M + y for each field y of Y.
A field is W bits of offset binary: a value c is stored as c + B with
B = 2**(W-2), and the top bit is headroom.  An element with n coordinates
in Z^k is one int of three segments of n*k fields plus two tag bits each:

    plain | lam_inv-twisted << S | rho_inv-twisted << 2S

The tag bit is set in every segment of an Upper element (interval level 1),
whose three segments are equal: only a Lower element is ever twisted.  With
its twists stored, a mixed sum is one add and one cone mask test, a Lower +
Lower sum is one add of whole ints, and Upper + Upper is told by the tag
bits adding up to 2.  Order and differences are a subtraction and a mask,
and a meet is a subtraction with every headroom bit set, read at those bits.

A `Packing` offers the kite operations that the axiom, rdp, embedding and
subdirect checkers call, over these ints, a subdirect component's on its
parent's packing (`restriction`).  They also serve the interval Gamma(W, u)
of the po-loop, Lower at level 0 and Upper at level 1: `product` is the loop
product, spelled from the loop's rule on levels, not on tags.
The kernel only encodes: a sweep over packed values names a witness's
elements by position in the caller's list, and the caller names them.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random

from kitealg.pogroup import DirectProduct, IntegerGroup, LexProduct, VectorGroup
from kitealg.verdict import choices

# each kernel sweep re-runs this many of its tuples (all of them when there
# are fewer) through the object path, drawn by a Random of their own
RECHECK = 256
RECHECK_SEED = 20130829


def layout(G, bound: int):
    """(fields, scalar bound, to_fields): G's order embedding and
    homomorphism into Z^fields, the fields of an element with scalars within
    bound being within the scalar bound; None off the built-in lattices,
    matched exactly, as a subclass may change the arithmetic."""
    if type(G) is IntegerGroup:
        return 1, bound, lambda a: (a,)
    if type(G) is VectorGroup:
        return G.k, bound, tuple
    if type(G) not in (DirectProduct, LexProduct):
        return None
    left, right = layout(G.left, bound), layout(G.right, bound)
    if left is None or right is None or type(G) is LexProduct and left[0] != 1:
        return None
    (kx, bx, to_x), (ky, by, to_y) = left, right
    if type(G) is DirectProduct:
        return kx + ky, max(bx, by), lambda a: to_x(a[0]) + to_y(a[1])
    # the three-fold sums and differences the kernel forms keep |y| <= 3 * by < M / 2
    M = 8 * by + 1
    return ky, bx * M + by, lambda a: tuple(to_x(a[0])[0] * M + y for y in to_y(a[1]))


def supports(G) -> bool:
    """G packs: it is a built-in lattice."""
    return layout(G, 0) is not None


def coordinate_bound(G, coord_tuples) -> int:
    """The largest absolute scalar in the given coordinate tuples."""
    return max((abs(s) for cs in coord_tuples for c in cs for s in G.encode(c)), default=0)


def twist(segment: int, src, width: int) -> int:
    """The segment whose block i (width bits) is block src[i] of segment."""
    mask = (1 << width) - 1
    out = 0
    for i, j in enumerate(src):
        out |= (segment >> j * width & mask) << i * width
    return out


def recheck_tuples(size: int, arity: int):
    """The index tuples a kernel sweep re-runs through the object path: all
    up to RECHECK, else RECHECK tuples picked as `sweep` picks them."""
    if size ** arity <= RECHECK:
        return itertools.product(range(size), repeat=arity)
    return zip(*[choices(random.Random(RECHECK_SEED), range(size), RECHECK * arity)] * arity)


class Packing:
    """Packed elements with n coordinates in a built-in lattice G, every
    scalar of absolute value at most bound; sums of up to three of them, and
    their differences, stay exact.  The differences take members of the kite
    (Lower coordinates positive, Upper ones negative), as the object path's
    do: a member candidate's sum is the target by construction, so neither
    re-adds.  The complements are the differences from `one`.  The meet is
    fieldwise, G's in each coordinate, and a Lower element's with an Upper one is itself.

    The twists are sys's: at position i the lam_inv- and rho_inv-twisted
    segments carry coordinates sys.lam_inv[i] and sys.rho_inv[i].  `add`
    reads them as the kite's twists, `product` as the loop's lam^-1 and
    rho^-1.  The operations are closures over the packing's constants, so a
    sweep calls them without attribute lookups.  `pack` has no inverse.
    """

    def __init__(self, G, sys, bound: int):
        k, scalar_bound, to_fields = layout(G, bound)
        # the bias exceeds 8 * scalar_bound, so sums and differences of up to
        # three, plus mask offsets, stay in the field
        w = (8 * scalar_bound).bit_length() + 2
        B, FIELD = 1 << (w - 2), (1 << w) - 1
        self.sys = sys
        fields = sys.n * k
        shifts = [w * f for f in range(fields)]
        ones = sum(1 << s for s in shifts)
        BIAS, HI, NEG = B * ones, 2 * B * ones, (B - 1) * ones
        self.block = block = k * w
        # a coordinate's fields as one int, memoised: a box repeats few coordinates
        self.coord = functools.cache(lambda c: sum(map(operator.lshift, to_fields(c), shifts)))
        self.coord_shifts = shifts[::k]
        self.TAG = TAG = 1 << (fields * w)
        TAG2 = 2 * TAG
        self.S = S = fields * w + 2
        S2 = 2 * S
        SEG = (1 << S) - 1
        REP = 1 | 1 << S | 1 << S2
        BIAS3, HI3 = BIAS * REP, HI * REP
        self.BIAS, self.REP = BIAS, REP
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
                return lower(twist(li, sys.lam, block)) if positive(li) else None
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
                return lower(twist(ri, sys.rho, block)) if positive(ri) else None
            if b & TAG:
                p = (b & SEG) - (a >> S & SEG) + BIAS
                return None if (p + NEG) & HI else p * REP
            c = b - a + BIAS3
            return c if positive(c & SEG) else None

        def meet(x, y):
            """The fieldwise min, which commutes with the twists: x - y with every headroom
            bit set keeps it where x >= y; widened to a mask, it takes those fields from y."""
            if (x ^ y) & TAG:
                return y if x & TAG else x
            m = (((x | HI3) - (y & ~HI3) & HI3) >> w - 1) * FIELD
            return y & m | x & ~m

        self.add, self.product, self.leq, self.meet = add, product, leq, meet
        self.diff_left, self.diff_right = diff_left, diff_right
        self.zero = zero = lower(BIAS)
        self.one = one = (TAG + BIAS) * REP
        self.complement_minus = lambda x: diff_left(one, x)
        self.complement_tilde = lambda x: diff_right(x, one)
        self.meet_is_zero = lambda x, y: meet(x, y) == zero
        # kite membership: a Lower element's fields are positive, an Upper one's negative
        self.member = lambda x: not ((x & SEG) + NEG) & HI if x & TAG else positive(x & SEG)

    def lower(self, plain: int) -> int:
        """The Lower element with this plain segment."""
        return (plain | twist(plain, self.sys.lam_inv, self.block) << self.S
                | twist(plain, self.sys.rho_inv, self.block) << 2 * self.S)

    def pack(self, upper: bool, coords) -> int:
        """The element with these n coordinates, Upper (level 1) or Lower."""
        plain = self.BIAS + sum(map(operator.lshift, map(self.coord, coords), self.coord_shifts))
        return (plain + self.TAG) * self.REP if upper else self.lower(plain)

    def restriction(self, lower_positions, upper_positions):
        """The map of an element to its restriction: a Lower one keeps its
        plain fields at lower_positions and its twisted fields at
        upper_positions, an Upper one its fields at upper_positions; every
        other field holds the identity.  For a component I' with preimage J'
        that is the projection onto it at the parent's positions: lam_inv and
        rho_inv carry I' into J', so the parent's twists there are its own."""
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
