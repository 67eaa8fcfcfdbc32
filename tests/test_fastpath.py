"""Differential tests of the fast paths.

The whole-tuple operations are checked against per-coordinate reference
formulas written out here: kite sums, loop products, interval membership
and the group tuple operations, on seeded random elements whose sums leave
the enumeration box.  The packed-integer kernel (kitealg.packed) is checked
operation by operation against the object path, the three checkers that use
it must return the same Verdict as on a subclass (which takes the object
path), and a wrong twist in the kernel must surface as a FAIL; embed's sweep
must find a wrong kite sum or a wrong order without the re-check.
"""

import random

import pytest

from kitealg import packed
from kitealg.indexsys import IndexSystem, perm_inverse
from kitealg.kite import LOWER, UPPER, KiteAlgebra, KiteElement, check_pea_axioms
from kitealg.pogroup import PoGroup, parse_group
from kitealg.poloop import GammaInterval, LoopElement, PoLoop, embed_kite
from kitealg.subdirect import subdirect_embedding_check

from conftest import EX_3_8, EX_8_2, EX_8_5, ObjectPath, system

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


# -- the packed kernel ------------------------------------------------------------

KERNEL_GROUPS = ["Z", "Z^1", "Z^2", "Z^3"]


def _members(G, n, bound, rng, count):
    """count Lower and count Upper kite elements with coordinates within
    bound, extremes included, plus 0 and 1."""
    k = 1 if G.name == "Z" else G.k

    def scalar(sign):
        return sign * rng.choice([0, bound, rng.randint(0, bound)])

    def coord(sign):
        values = [scalar(sign) for _ in range(k)]
        return values[0] if G.name == "Z" else tuple(values)

    out = [KiteElement(tag, tuple(coord(1 if tag == LOWER else -1) for _ in range(n)))
           for tag in (LOWER, UPPER) for _ in range(count)]
    e = G.identity
    return out + [KiteElement(LOWER, (e,) * n), KiteElement(UPPER, (e,) * n)]


@pytest.mark.parametrize("bound", [0, 1, 2, 1000])
@pytest.mark.parametrize("group", KERNEL_GROUPS)
def test_packed_operations_match_objects(group, bound):
    G = parse_group(group)
    rng = random.Random(bound * 31 + len(group))
    outcomes = set()
    for _ in range(12):
        sys_ = _random_system(rng)
        A, W = KiteAlgebra(G, sys_), PoLoop(G, sys_)
        gamma = GammaInterval(W)
        K = packed.Packing(G, sys_.n, bound, sys_.lam_inv, sys_.rho_inv)

        def kite(r):
            return r if r is None or type(r) is bool else K.pack(r.tag == UPPER, r.coords)

        def interval(r):
            """An interval element packed as the kite element it images."""
            return r if r is None else K.pack(r.m == 1, r.coords)

        elements = _members(G, sys_.n, bound, rng, 8)
        assert K.zero == kite(A.zero) and K.one == kite(A.one)
        for x in elements:
            upper, coords = K.decode(kite(x))
            assert KiteElement(UPPER if upper else LOWER, coords) == x
            assert K.complement_minus(kite(x)) == kite(A.complement_minus(x))
            assert K.complement_tilde(kite(x)) == kite(A.complement_tilde(x))
        for _ in range(150):
            x, y, z = (rng.choice(elements) for _ in range(3))
            px, py = LoopElement(0 if x.tag == LOWER else 1, x.coords), \
                LoopElement(0 if y.tag == LOWER else 1, y.coords)
            s = A.add(x, y)
            outcomes.add((x.tag, y.tag, s is not None))
            assert K.add(kite(x), kite(y)) == kite(s)
            assert K.leq(kite(x), kite(y)) == A.leq(x, y)
            assert K.diff_left(kite(x), kite(y)) == kite(A.diff_left(x, y))
            assert K.diff_right(kite(x), kite(y)) == kite(A.diff_right(x, y))
            assert K.product(kite(x), kite(y)) == interval(gamma.add(px, py))
            assert K.leq(kite(x), kite(y)) == W.leq(px, py)
            if s is None:
                continue
            # three-fold sums and differences of a sum stay inside the fields
            for got, want in [(K.add(kite(s), kite(z)), A.add(s, z)),
                              (K.add(kite(z), kite(s)), A.add(z, s)),
                              (K.diff_left(kite(s), kite(y)), A.diff_left(s, y)),
                              (K.diff_right(kite(x), kite(s)), A.diff_right(x, s)),
                              (K.diff_left(kite(s), kite(x)), A.diff_left(s, x)),
                              (K.diff_right(kite(y), kite(s)), A.diff_right(y, s))]:
                assert got == kite(want)
            t = W.mul(px, py)
            if t.m <= 1 and W.leq(t, W.unit):
                assert K.product(kite(x), kite(y)) == interval(t)
    # every kind of sum occurred, defined and undefined
    assert {(LOWER, UPPER, True), (LOWER, UPPER, False), (UPPER, LOWER, True),
            (UPPER, LOWER, False), (LOWER, LOWER, True), (UPPER, UPPER, False)} \
        <= outcomes or bound == 0


@pytest.mark.parametrize("regime", [{}, {"triple_cap": 1_000, "pair_cap": 100, "draws": 500}],
                         ids=["table", "drawn"])
@pytest.mark.parametrize("group, lam_rho, bound", [
    ("Z", EX_8_2, 1), ("Z", EX_8_5, 2), ("Z^2", EX_3_8, 1), ("Z^3", ([2, 3, 1], [1, 3, 2]), 1),
])
def test_axioms_verdict_matches_object_path(group, lam_rho, bound, regime):
    from kitealg.cli import bounded_sample
    G = parse_group(group)
    A, R = KiteAlgebra(G, system(*lam_rho)), ObjectPath(G, system(*lam_rho))
    sample = bounded_sample(A.enumerate_box(bound), 40, 3, keep=(A.zero, A.one))
    v = check_pea_axioms(A, sample, seed=3, **regime)
    assert v.ok and v == check_pea_axioms(R, sample, seed=3, **regime)


@pytest.mark.parametrize("group, lam_rho, bound", [
    ("Z", EX_8_2, 1), ("Z", EX_8_5, 0), ("Z^2", ([2, 3, 1], [3, 1, 2]), 1),
    # 1,458 elements: 40,000 drawn pairs
    ("Z^2", ([2, 3, 1], [3, 1, 2]), 2),
])
def test_embed_verdict_matches_object_path(group, lam_rho, bound):
    G = parse_group(group)
    v = embed_kite(KiteAlgebra(G, system(*lam_rho)), bound)
    assert v.ok and v == embed_kite(ObjectPath(G, system(*lam_rho)), bound)


@pytest.mark.parametrize("group, lam_rho, bound, pair_cap", [
    ("Z", EX_8_2, 1, 200_000), ("Z", EX_3_8, 2, 200_000),
    ("Z^2", EX_3_8, 1, 3_000), ("Z^3", ([1, 2], [2, 1]), 1, 1_000),
])
def test_subdirect_report_matches_object_path(group, lam_rho, bound, pair_cap):
    G = parse_group(group)
    got = subdirect_embedding_check(KiteAlgebra(G, system(*lam_rho)), bound, pair_cap)
    want = subdirect_embedding_check(ObjectPath(G, system(*lam_rho)), bound, pair_cap)
    assert got.verdict.ok and got == want


def test_wrong_twist_fails_every_checker(monkeypatch):
    # the kernel's twisted segments left untwisted: its mixed sums go wrong
    # while the object path is sound, and only the re-check can tell
    monkeypatch.setattr(packed, "twist", lambda segment, src, width: segment)
    A = KiteAlgebra(parse_group("Z^2"), system(*EX_8_2))
    sample = list(A.enumerate_box(1))
    verdicts = [check_pea_axioms(A, sample), embed_kite(A, 1),
                subdirect_embedding_check(A, 1).hom_preservation]
    for v in verdicts:
        assert v.failed and v.witnesses[0][0] == "kernel-disagreement"
        assert all(isinstance(w, KiteElement) for w in v.witnesses[0][1:])


def test_embed_sweep_catches_a_wrong_kite_sum_unaided(monkeypatch):
    # the kernel's Lower + Upper sum reads the rho_inv-twisted segment where
    # the lam_inv one belongs; with no re-check, the sweep's comparison with
    # the loop product rule must find it
    class WrongLowerUpper(packed.Packing):
        def __init__(self, *args):
            super().__init__(*args)
            add, S, TAG = self.add, self.S, self.TAG
            plain = (1 << S) - 1

            def wrong(x, y):
                if y & TAG and not x & TAG:
                    x = x & plain | x >> 2 * S << S
                return add(x, y)
            self.add = wrong

    monkeypatch.setattr(packed, "RECHECK", 0)
    monkeypatch.setattr(packed, "Packing", WrongLowerUpper)
    v = embed_kite(KiteAlgebra(parse_group("Z^2"), system(*EX_3_8)), 1)
    assert v.failed and v.witnesses[0][0] in ("value", "definedness")
    assert all(isinstance(w, KiteElement) for w in v.witnesses[0][1:])


def test_embed_sweep_catches_a_wrong_packed_order_unaided(monkeypatch):
    # the kernel's order test is reversed; with no re-check, the sweep's
    # comparison with the order read from the kite's difference must find it
    class ReversedOrder(packed.Packing):
        def __init__(self, *args):
            super().__init__(*args)
            leq = self.leq
            self.leq = lambda x, y: leq(y, x)

    monkeypatch.setattr(packed, "RECHECK", 0)
    monkeypatch.setattr(packed, "Packing", ReversedOrder)
    v = embed_kite(KiteAlgebra(parse_group("Z^2"), system(*EX_3_8)), 1)
    assert v.failed and v.witnesses[0][0] == "order"
    assert all(isinstance(w, KiteElement) for w in v.witnesses[0][1:])
