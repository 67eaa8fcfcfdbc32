"""Differential tests of the whole-tuple fast path against per-coordinate
reference formulas written out here: kite sums, loop products, interval
membership and the group tuple operations, on seeded random elements whose
sums leave the enumeration box."""

import random

import pytest

from kitealg.indexsys import IndexSystem, perm_inverse
from kitealg.kite import LOWER, UPPER, KiteAlgebra, KiteElement
from kitealg.pogroup import PoGroup, parse_group
from kitealg.poloop import GammaInterval, LoopElement, PoLoop

GROUPS = ["Z", "Z^2", "Z^3", "lex(Z,Z)", "prod(Z,Z)"]
RADIUS = 2  # coordinates drawn from the box of this radius; sums reach twice it
PAIRS = 1500


@pytest.fixture(params=GROUPS)
def G(request):
    return parse_group(request.param)


def _draws(G, seed):
    """A seeded source of group elements: any, positive and negative ones,
    with the cones decided by the order itself."""
    rng = random.Random(seed)
    box = G.enumerate_box(RADIUS)
    e = G.identity
    cones = {
        "any": box,
        "pos": [g for g in box if G.leq(e, g)],
        "neg": [g for g in box if G.leq(g, e)],
    }
    return rng, lambda kind: rng.choice(cones[kind])


def _random_system(rng) -> IndexSystem:
    n = rng.randint(1, 4)
    lam, rho = list(range(n)), list(range(n))
    rng.shuffle(lam)
    rng.shuffle(rho)
    return IndexSystem(n, tuple(lam), tuple(rho))


# -- reference formulas -------------------------------------------------------

def reference_add(A, x, y):
    """The twisted sum by its per-coordinate definition: f <= a^-1 in every
    coordinate, then the product."""
    G, n = A.G, A.sys.n
    if x.tag == UPPER and y.tag == UPPER:
        return None
    if x.tag == LOWER and y.tag == LOWER:
        return KiteElement(LOWER, tuple(G.op(x.coords[i], y.coords[i]) for i in range(n)))
    lam_inv, rho_inv = perm_inverse(A.sys.lam), perm_inverse(A.sys.rho)
    out = []
    for i in range(n):
        if x.tag == UPPER:
            a, f = x.coords[i], y.coords[rho_inv[i]]
        else:
            f, a = x.coords[lam_inv[i]], y.coords[i]
        if not G.leq(f, G.inv(a)):
            return None
        out.append(G.op(a, f) if x.tag == UPPER else G.op(f, a))
    return KiteElement(UPPER, tuple(out))


def reference_mul(W, p, q):
    lam, rho = W.lam_pow(-q.m), W.rho_pow(-p.m)
    return LoopElement(p.m + q.m, tuple(W.G.op(p.coords[lam[i]], q.coords[rho[i]])
                                        for i in range(W.sys.n)))


# -- tests ----------------------------------------------------------------------

def test_tuple_operations(G):
    rng, draw = _draws(G, 1)
    e = G.identity
    negative_seen = 0
    for _ in range(PAIRS):
        n = rng.randint(0, 4)
        kind = rng.choice(["any", "neg"])
        xs = tuple(draw(kind) for _ in range(n))
        ys = tuple(draw(kind) for _ in range(n))
        products = tuple(G.op(x, y) for x, y in zip(xs, ys))
        negative = all(G.leq(p, e) for p in products)
        negative_seen += negative
        want = products if negative else None
        for p in products:
            assert G.is_negative(p) == G.leq(p, e)
            assert G.is_positive(p) == G.leq(e, p)
        # the fast path is fed iterators as well as tuples
        assert G.op_each(xs, ys) == products
        assert G.op_each(iter(xs), iter(ys)) == products
        assert G.op_each_negative(xs, ys) == want
        assert G.op_each_negative(iter(xs), iter(ys)) == want
        # an override must agree with the generic default
        assert PoGroup.op_each(G, xs, ys) == products
        assert PoGroup.op_each_negative(G, xs, ys) == want
    assert 0 < negative_seen < PAIRS


def test_kite_add(G):
    rng, draw = _draws(G, 2)
    seen = {(s, t, defined): 0 for s in (LOWER, UPPER) for t in (LOWER, UPPER)
            for defined in (True, False)}
    for _ in range(PAIRS):
        A = KiteAlgebra(G, _random_system(rng))
        n = A.sys.n
        x, y = (KiteElement(tag, tuple(draw("pos" if tag == LOWER else "neg")
                                       for _ in range(n)))
                for tag in (rng.choice((LOWER, UPPER)), rng.choice((LOWER, UPPER))))
        want = reference_add(A, x, y)
        assert A.add(x, y) == want, (A.sys, x, y)
        if x.tag == y.tag:
            want_leq = all(G.leq(a, b) for a, b in zip(x.coords, y.coords))
        else:
            want_leq = x.tag == LOWER
        assert A.leq(x, y) == want_leq
        seen[x.tag, y.tag, want is not None] += 1
    # Lower + Lower is always defined, Upper + Upper never
    assert seen.pop((LOWER, LOWER, False)) == 0
    assert seen.pop((UPPER, UPPER, True)) == 0
    assert all(seen.values()), seen


def test_loop_mul(G):
    rng, draw = _draws(G, 3)
    for _ in range(PAIRS):
        W = PoLoop(G, _random_system(rng))
        p, q = (LoopElement(rng.randint(-2, 2), tuple(draw("any") for _ in range(W.sys.n)))
                for _ in range(2))
        assert W.mul(p, q) == reference_mul(W, p, q)


def test_interval_contains(G):
    rng, draw = _draws(G, 4)
    outcomes = set()
    for _ in range(PAIRS):
        W = PoLoop(G, _random_system(rng))
        gamma = GammaInterval(W)
        kind = rng.choice(["any", "pos", "neg"])
        p = LoopElement(rng.randint(-1, 2), tuple(draw(kind) for _ in range(W.sys.n)))
        want = W.leq(W.neutral, p) and W.leq(p, W.unit)
        assert gamma.contains(p) == want, p
        outcomes.add(want)
    assert outcomes == {True, False}
