"""Differential tests of the fast paths.

The whole-tuple operations are checked against per-coordinate reference
formulas written out here: kite sums, loop products, interval membership
and the group tuple operations, on seeded random elements whose sums leave
the enumeration box.  The packed-integer kernel (kitealg.packed) is checked
operation by operation against the object path on every kind of layout
(Z, Z^k, prod, lex over a chain, nested), the three checkers that use it
must return the same Verdict as on a subclass (which takes the object path),
each building one Packing where it runs packed and none where it does not,
and a wrong twist in the kernel, or a lex multiplier M too small for the
order embedding, must surface as a FAIL, as must a wrong packed meet in
rdp; embed's sweep must find a wrong kite sum or a wrong order without the
re-check.
"""

import random

import pytest

from kitealg import packed
from kitealg.cli import bounded_sample
from kitealg.indexsys import IndexSystem, components, perm_inverse
from kitealg.kite import (LOWER, UPPER, KiteAlgebra, KiteElement, check_kite_rdp,
                          check_pea_axioms, choose_kernel)
from kitealg.pogroup import IntegerGroup, LexProduct, PoGroup, parse_group
from kitealg.poloop import GammaInterval, LoopElement, PoLoop, embed_kite
from kitealg.subdirect import subdirect_embedding_check

from conftest import EX_3_8, EX_8_2, EX_8_5, ObjectPath, set_budget, system

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
    for _ in range(PAIRS):
        n = rng.randint(0, 4)
        kind = rng.choice(["any", "neg"])
        xs = tuple(draw(kind) for _ in range(n))
        ys = tuple(draw(kind) for _ in range(n))
        products = tuple(G.op(x, y) for x, y in zip(xs, ys))
        for p in products:
            assert G.is_negative(p) == G.leq(p, e)
            assert G.is_positive(p) == G.leq(e, p)
        # the fast path is fed iterators as well as tuples
        assert G.op_each(xs, ys) == products
        assert G.op_each(iter(xs), iter(ys)) == products
        # an override must agree with the generic default
        assert PoGroup.op_each(G, xs, ys) == products


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

KERNEL_GROUPS = ["Z", "Z^1", "Z^2", "Z^3", "lex(Z,Z)",
                 "prod(Z,Z)", "lex(Z,Z^2)", "lex(lex(Z,Z),Z)", "prod(lex(Z,Z),Z^2)"]
CYCLES_3 = ([2, 3, 1], [3, 1, 2])
SWAP_2 = ([2, 1], [2, 1])


def _scaled(g, c):
    """g to the power c, for a built-in element: every scalar times c."""
    return g * c if type(g) is int else tuple(_scaled(h, c) for h in g)


def _members(G, n, bound, rng, count):
    """count Lower and count Upper kite elements with coordinates within
    bound, plus 0 and 1: each coordinate is drawn from the cones of the box
    of radius at most 2, or from those of radius 1 scaled to bound or to a
    drawn size, so the extremes occur."""
    near, unit = G.cones(min(bound, 2)), G.cones(min(bound, 1))

    def coord(side):
        if rng.random() < 0.5:
            return rng.choice(near[side])
        return _scaled(rng.choice(unit[side]), rng.choice([bound, rng.randint(0, bound)]))

    out = [KiteElement(tag, tuple(coord(tag == UPPER) for _ in range(n)))
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
        K = packed.Packing(G, sys_, bound)

        def kite(r):
            return r if r is None or type(r) is bool else K.pack(r.tag == UPPER, r.coords)

        def interval(r):
            """An interval element packed as the kite element it images."""
            return r if r is None else K.pack(r.m == 1, r.coords)

        elements = _members(G, sys_.n, bound, rng, 8)
        assert K.zero == kite(A.zero) and K.one == kite(A.one)
        for x in elements:
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
            assert K.meet(kite(x), kite(y)) == kite(A.meet(x, y))
            assert K.diff_left(kite(x), kite(y)) == kite(A.diff_left(x, y))
            assert K.diff_right(kite(x), kite(y)) == kite(A.diff_right(x, y))
            assert K.product(kite(x), kite(y)) == interval(gamma.add(px, py))
            assert K.leq(kite(x), kite(y)) == W.leq(px, py)
            if s is None:
                continue
            # three-fold sums and differences of a sum stay inside the fields
            for got, want in [(K.add(kite(s), kite(z)), A.add(s, z)),
                              (K.add(kite(z), kite(s)), A.add(z, s)),
                              (K.meet(kite(s), kite(z)), A.meet(s, z)),
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


# the budget (CAP, DRAWS): the default, whose table holds the 40-element
# sample, and one that draws pairs and triples with no table
@pytest.mark.parametrize("regime", [(), (100, 500)], ids=["table", "drawn"])
@pytest.mark.parametrize("group, lam_rho, bound", [
    ("Z", EX_8_2, 1), ("Z", EX_8_5, 2), ("Z^2", EX_3_8, 1), ("Z^3", ([2, 3, 1], [1, 3, 2]), 1),
    ("lex(Z,Z)", CYCLES_3, 1), ("lex(Z,Z)", EX_8_2, 2),
    ("prod(Z,Z)", EX_8_2, 1), ("lex(Z,Z^2)", EX_3_8, 1), ("lex(lex(Z,Z),Z)", CYCLES_3, 1),
])
def test_axioms_verdict_matches_object_path(group, lam_rho, bound, regime, monkeypatch):
    if regime:
        set_budget(monkeypatch, *regime)
    G = parse_group(group)
    A, R = KiteAlgebra(G, system(*lam_rho)), ObjectPath(G, system(*lam_rho))
    sample = bounded_sample(A.enumerate_box(bound), 40, 3, keep=(A.zero, A.one))
    v = check_pea_axioms(A, sample, seed=3)
    assert v.ok and v == check_pea_axioms(R, sample, seed=3)


@pytest.mark.parametrize("group, lam_rho, bound", [
    ("Z", EX_8_2, 1), ("Z", EX_8_5, 0), ("Z^2", ([2, 3, 1], [3, 1, 2]), 1),
    # 1,458 elements: 40,000 drawn pairs
    ("Z^2", ([2, 3, 1], [3, 1, 2]), 2),
    ("lex(Z,Z)", CYCLES_3, 1), ("lex(Z,Z)", EX_3_8, 0),
    # 1,250 elements: 40,000 drawn pairs
    ("lex(Z,Z)", EX_8_2, 1),
    ("prod(Z,Z)", CYCLES_3, 1), ("lex(Z,Z^2)", CYCLES_3, 1), ("lex(lex(Z,Z),Z)", CYCLES_3, 1),
])
def test_embed_verdict_matches_object_path(group, lam_rho, bound):
    G = parse_group(group)
    v = embed_kite(KiteAlgebra(G, system(*lam_rho)), bound)
    assert v.ok and v == embed_kite(ObjectPath(G, system(*lam_rho)), bound)


# cap is the budget's CAP and DRAWS both
@pytest.mark.parametrize("group, lam_rho, bound, cap", [
    ("Z", EX_8_2, 1, 200_000), ("Z", EX_3_8, 2, 200_000),
    ("Z^2", EX_3_8, 1, 3_000), ("Z^3", ([1, 2], [2, 1]), 1, 1_000),
    ("lex(Z,Z)", EX_3_8, 1, 3_000), ("lex(Z,Z)", CYCLES_3, 2, 20_000),
    ("prod(Z,Z)", CYCLES_3, 1, 3_000), ("lex(Z,Z^2)", CYCLES_3, 1, 3_000),
    ("lex(lex(Z,Z),Z)", CYCLES_3, 1, 3_000),
    # several components, each run on the parent's packing: {1}, {2} ...
    ("prod(Z,Z)", SWAP_2, 1, 3_000), ("lex(Z,Z^2)", SWAP_2, 1, 3_000),
    ("lex(lex(Z,Z),Z)", SWAP_2, 1, 3_000), ("prod(lex(Z,Z),Z^2)", SWAP_2, 1, 3_000),
    # ... and {1}, {2, 3}
    ("prod(Z,Z)", ([1, 2, 3], [1, 3, 2]), 1, 3_000),
])
def test_subdirect_report_matches_object_path(group, lam_rho, bound, cap, monkeypatch):
    set_budget(monkeypatch, cap)
    G = parse_group(group)
    got = subdirect_embedding_check(KiteAlgebra(G, system(*lam_rho)), bound)
    want = subdirect_embedding_check(ObjectPath(G, system(*lam_rho)), bound)
    assert got.verdict.ok and got == want


def _rdp_sample(box, limit=None):
    """rdp's sample: its sum classes take every pair, so at most 60 elements."""
    return bounded_sample(box, min(limit or 60, 60), 0)


def _verdicts(A, limit=None):
    """The verdicts of the four checkers that run packed, at bound 1, the
    axioms' on a sample of at most limit box elements."""
    box = list(A.enumerate_box(1))
    sample = bounded_sample(box, limit or len(box), 0)
    return [check_pea_axioms(A, sample), embed_kite(A, 1),
            subdirect_embedding_check(A, 1).hom_preservation,
            check_kite_rdp(A, _rdp_sample(box, limit))]


def _assert_disagrees(v):
    assert v.failed and v.witnesses[0][0] == "kernel-disagreement"
    # elements, or rdp's quadruple of them
    for w in v.witnesses[0][1:]:
        assert all(isinstance(x, KiteElement) for x in (w if type(w) is tuple else (w,)))


def _assert_every_checker_disagrees(A):
    for v in _verdicts(A):
        _assert_disagrees(v)


# one group of each layout kind, with a system whose box at bound 1 the
# checkers reach quickly once the re-check has failed
LAYOUT_KINDS = [("Z", EX_8_2), ("Z^2", EX_8_2), ("prod(Z,Z)", EX_8_2), ("lex(Z,Z)", EX_8_2),
                ("lex(Z,Z^2)", CYCLES_3), ("lex(lex(Z,Z),Z)", CYCLES_3),
                ("prod(lex(Z,Z),Z^2)", SWAP_2)]


def test_wrong_twist_fails_every_checker(monkeypatch):
    # the kernel's twisted segments left untwisted: its mixed sums go wrong
    # while the object path is sound, and only the re-check can tell
    monkeypatch.setattr(packed, "twist", lambda segment, src, width: segment)
    for group, lam_rho in LAYOUT_KINDS:
        _assert_every_checker_disagrees(KiteAlgebra(parse_group(group), system(*lam_rho)))
    # lex(Z^2,Z) has no meet and no layout: it runs on objects, which the
    # broken twist cannot reach, so a wider supports() would fail here; rdp,
    # with no meet to refine from, is INCONCLUSIVE unsearched
    *v, rdp = _verdicts(KiteAlgebra(parse_group("lex(Z^2,Z)"), system([1, 2], [2, 1])), 24)
    assert all(x.ok for x in v) and rdp.status == "INCONCLUSIVE", (v, rdp)


def test_packed_meet_matches_objects():
    # on each layout kind's bound-1 box: every pair of a sample holding both
    # tags, 0, 1 and the Upper element at -1 in every field, where x - y
    # would borrow from the next field without the headroom bits
    for group, lam_rho in LAYOUT_KINDS:
        A = KiteAlgebra(parse_group(group), system(*lam_rho))
        bottom = next(g for g in A.G.cones(1)[1] if set(A.G.encode(g)) == {-1})
        extremes = (A.zero, A.one, KiteElement(UPPER, (bottom,) * A.sys.n))
        sample = bounded_sample(list(A.enumerate_box(1)), 120, 0, keep=extremes)
        K = packed.Packing(A.G, A.sys, 1)
        values = [K.pack(x.tag == UPPER, x.coords) for x in sample]
        tags = set()
        for x, px in zip(sample, values):
            for y, py in zip(sample, values):
                m = A.meet(x, y)
                assert K.meet(px, py) == K.pack(m.tag == UPPER, m.coords), (group, x, y)
                tags.add((x.tag, y.tag))
        assert len(tags) == 4


def test_wrong_meet_fails_rdp(monkeypatch):
    # the kernel's meet is the fieldwise max: only rdp's corner memo reads
    # it, and the re-check against find_kite_refinement must tell
    class MaxMeet(packed.Packing):
        def __init__(self, *args):
            super().__init__(*args)
            meet = self.meet
            self.meet = lambda x, y: x + y - meet(x, y)

    monkeypatch.setattr(packed, "Packing", MaxMeet)
    for group, lam_rho in LAYOUT_KINDS:
        A = KiteAlgebra(parse_group(group), system(*lam_rho))
        v = check_kite_rdp(A, _rdp_sample(list(A.enumerate_box(1))))
        _assert_disagrees(v)
        assert v.detail == "corner memo and find_kite_refinement disagree", group


def test_one_packing_per_packed_check(monkeypatch):
    # the kernel switch builds the one Packing a check runs on: exactly one
    # per packed check, subdirect's components included (ex8.2 has three),
    # and none on the object path, so a switch broken toward objects fails
    # here and not only in wall time
    built = []

    class Counting(packed.Packing):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(packed, "Packing", Counting)

    def subdirect(A):
        with monkeypatch.context() as budget:  # a stream of at most 3,000 pairs
            set_budget(budget, 3_000)
            return subdirect_embedding_check(A, 1).verdict

    def packings(A):
        box = list(A.enumerate_box(1))
        counts = []
        for check in (lambda: check_pea_axioms(A, bounded_sample(box, 24, 0)),
                      lambda: embed_kite(A, 1),
                      lambda: subdirect(A),
                      lambda: check_kite_rdp(A, bounded_sample(box, 24, 0))):
            built.clear()
            v = check()
            # off a lattice rdp has no meet to refine from and searches nothing
            assert v.ok or not A.G.has_meet and v.status == "INCONCLUSIVE", v
            counts.append(len(built))
        return counts

    for group, lam_rho in LAYOUT_KINDS:
        assert packings(KiteAlgebra(parse_group(group), system(*lam_rho))) == [1] * 4, group
    assert len(components(system(*EX_8_2))) == 3
    assert packings(KiteAlgebra(parse_group("lex(Z^2,Z)"), system([1, 2], [2, 1]))) == [0] * 4
    for group, lam_rho in [("Z", EX_8_2), ("Z^2", SWAP_2)]:
        assert packings(ObjectPath(parse_group(group), system(*lam_rho))) == [0] * 4


@pytest.mark.parametrize("group", ["Z", "Z^2", "lex(Z,Z)"])
def test_a_sample_with_a_non_member_takes_the_object_path(group):
    # choose_kernel tests each item's length, then its cone on the packed int:
    # a Lower element with a negative coordinate, an Upper one with a positive
    # coordinate and a short tuple each keep the whole sample on objects, so
    # the checks return the object path's verdicts
    G = parse_group(group)
    A, R = KiteAlgebra(G, system(*EX_8_2)), ObjectPath(G, system(*EX_8_2))
    box = bounded_sample(A.enumerate_box(1), 24, 0, keep=(A.zero, A.one))
    assert isinstance(choose_kernel(A, box)[0], packed.Packing)
    e = G.identity
    g = next(g for g in G.enumerate_box(1) if G.lt(e, g))
    assert choose_kernel(A, box + [A.lower(g, g)]) == (A, box + [A.lower(g, g)])
    for bad in (A.lower(g, G.inv(g), e, e), A.upper(e, g, e, e)):
        sample = box + [bad]
        assert choose_kernel(A, sample) == (A, sample)
        assert check_pea_axioms(A, sample) == check_pea_axioms(R, sample)
        assert check_kite_rdp(A, sample) == check_kite_rdp(R, sample)


LAYOUT = packed.layout


def _small_multiplier_layout(G, bound):
    """packed.layout with M = b_Y + 1 in each lex(X, Y): a*M + b is still a
    homomorphism, but no longer an order embedding once |b| reaches M / 2."""
    if type(G) is not LexProduct:
        return LAYOUT(G, bound)
    (_, bx, to_x), (ky, by, to_y) = (_small_multiplier_layout(G.left, bound),
                                     _small_multiplier_layout(G.right, bound))
    M = by + 1
    return ky, bx * M + by, lambda a: tuple(to_x(a[0])[0] * M + y for y in to_y(a[1]))


@pytest.mark.parametrize("group, lam_rho", [
    pytest.param("lex(Z,Z)", CYCLES_3, id="cycles-3"),
    pytest.param("lex(Z,Z)", EX_3_8, id="ex3.8"),
    # on cycles-3 the axioms' 256 re-checked triples miss the two-field
    # collisions, such as (0, (-1, -1)) + (1, (-1, -1)) packing as 0
    pytest.param("lex(Z,Z^2)", SWAP_2, id="lex(Z,Z^2)-equal-swap-2"),
    pytest.param("lex(lex(Z,Z),Z)", CYCLES_3, id="lex(lex(Z,Z),Z)-cycles-3"),
])
def test_small_lex_multiplier_fails_every_checker(monkeypatch, group, lam_rho):
    # at bound 1, M = 2: (-1, 2) packs as 0, which is both positive and
    # negative, so definedness and differences go wrong
    monkeypatch.setattr(packed, "layout", _small_multiplier_layout)
    _assert_every_checker_disagrees(KiteAlgebra(parse_group(group), system(*lam_rho)))


# per kind, a system whose box at bound 2 stays within some 30,000 elements
ROUND_TRIP = [("lex(Z,Z)", CYCLES_3), ("prod(Z,Z)", CYCLES_3), ("lex(Z,Z^2)", SWAP_2),
              ("lex(lex(Z,Z),Z)", SWAP_2), ("prod(lex(Z,Z),Z^2)", SWAP_2)]


@pytest.mark.parametrize("bound", [0, 1, 2])
def test_lex_pack_decode_round_trip(bound):
    # the kernel has no decode: for each kind of layout, the box packs
    # injectively, and the two- and three-fold sums the kernel forms equal
    # the packing of the object sums
    for group, lam_rho in ROUND_TRIP:
        A = KiteAlgebra(parse_group(group), system(*lam_rho))
        K = packed.Packing(A.G, A.sys, bound)

        def pack(x):
            return None if x is None else K.pack(x.tag == UPPER, x.coords)

        box = list(A.enumerate_box(bound))
        assert len(set(map(pack, box))) == len(box), group
        rng = random.Random(bound)
        sums = 0
        for _ in range(2_000):
            x, y, z = (rng.choice(box) for _ in range(3))
            s = A.add(x, y)
            assert K.add(pack(x), pack(y)) == pack(s)
            if s is None:
                continue
            t = A.add(s, z)
            assert K.add(K.add(pack(x), pack(y)), pack(z)) == pack(t)
            sums += t is not None
        assert sums > 0, group


def test_supports_exactly_the_built_in_lattices():
    class Lex(LexProduct):
        pass

    class Integers(IntegerGroup):
        pass

    outcomes = set()
    for desc in ["Z", "Z^1", "Z^3", "lex(Z,Z)", "lex(Z^1,Z)", "lex(Z,Z^2)", "prod(Z,Z)",
                 "lex(lex(Z,Z),Z)", "lex(Z,lex(Z,Z))", "prod(lex(Z,Z),Z^2)",
                 "lex(Z,prod(Z,lex(Z,Z)))", "lex(Z^2,Z)", "lex(prod(Z,Z),Z)",
                 "lex(lex(Z,Z^2),Z)", "prod(Z,lex(Z^2,Z))", "lex(Z,lex(Z^2,Z))"]:
        G = parse_group(desc)
        assert packed.supports(G) == G.has_meet, desc
        outcomes.add(G.has_meet)
    assert outcomes == {True, False}
    Z = IntegerGroup()
    assert not packed.supports(Lex(Z, Z))
    assert not packed.supports(LexProduct(Integers(), Z))
    assert not packed.supports(LexProduct(Z, Integers()))


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


def test_axiom_sweep_names_the_sample_elements_it_fails_on(monkeypatch):
    # the kernel finds no left difference; with no re-check, axiom (iii)
    # fails on a defined sum, and its witness names two sample elements
    class NoLeftDifference(packed.Packing):
        def __init__(self, *args):
            super().__init__(*args)
            self.diff_left = lambda b, a: None

    monkeypatch.setattr(packed, "RECHECK", 0)
    monkeypatch.setattr(packed, "Packing", NoLeftDifference)
    A = KiteAlgebra(parse_group("lex(Z,Z)"), system(*CYCLES_3))
    sample = bounded_sample(A.enumerate_box(1), 40, 3, keep=(A.zero, A.one))
    v = check_pea_axioms(A, sample)
    assert v.failed and v.witnesses[0][0] == "axiom-iii"
    assert len(v.witnesses[0]) == 3 and all(w in sample for w in v.witnesses[0][1:])


def test_subdirect_sweep_names_the_box_elements_it_fails_on(monkeypatch):
    # every restriction is off by one; with no re-check, the pair stream
    # fails on the first defined sum, and its witness names two box elements
    class WrongRestriction(packed.Packing):
        def restriction(self, lower_positions, upper_positions):
            restrict = super().restriction(lower_positions, upper_positions)
            return lambda v: restrict(v) + 1

    monkeypatch.setattr(packed, "RECHECK", 0)
    monkeypatch.setattr(packed, "Packing", WrongRestriction)
    A = KiteAlgebra(parse_group("Z^2"), system(*EX_3_8))
    report = subdirect_embedding_check(A, 1)
    v = report.hom_preservation
    assert v.failed and v.witnesses[0][0] == "sum"
    box = list(A.enumerate_box(1))
    assert len(v.witnesses[0]) == 4 and all(w in box for w in v.witnesses[0][2:])
    # the component is labelled 1-based, as the report lists it
    assert v.witnesses[0][1] in report.to_json()["components"]
