"""Tests of the benchmark's reference computations.

Run from the root of the repository: python3 -m pytest perfbench
"""

import itertools
import math

import pytest

import oracles
import workloads

S4 = list(itertools.permutations(range(4)))


def compose(f, g):
    return tuple(f[g[i]] for i in range(len(g)))


def inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


# -- index systems ------------------------------------------------------------

def test_sigma_and_tau_match_composition():
    for lam, rho in itertools.product(S4, repeat=2):
        assert oracles.sigma(lam, rho) == compose(rho, inverse(lam))
        assert oracles.tau(lam, rho) == compose(inverse(rho), lam)


@pytest.mark.parametrize("perm, orbits", [
    ((0, 1, 2, 3), [[0], [1], [2], [3]]),
    ((1, 2, 0, 3), [[0, 1, 2], [3]]),
    ((3, 2, 1, 0), [[0, 3], [1, 2]]),
    ((1, 2, 3, 0), [[0, 1, 2, 3]]),
    ((2, 0, 1), [[0, 1, 2]]),
])
def test_orbits(perm, orbits):
    assert oracles.orbits(perm) == orbits


def test_orbits_partition_and_are_invariant():
    for p in S4:
        blocks = oracles.orbits(p)
        assert sorted(i for b in blocks for i in b) == list(range(4))
        for b in blocks:
            assert sorted(p[i] for i in b) == b


def test_paper_examples_components():
    # ex3.8: lam = (1 2)(3 4), rho = (1 4)(2 3), so sigma = (1 3)(2 4)
    lam, rho = workloads.EX_3_8
    lam, rho = tuple(i - 1 for i in lam), tuple(i - 1 for i in rho)
    assert oracles.orbits(oracles.sigma(lam, rho)) == [[0, 2], [1, 3]]
    assert oracles.twists_commute(lam, rho)


def test_twists_commute():
    assert oracles.twists_commute((1, 0, 2), (1, 0, 2))
    assert oracles.twists_commute((1, 2, 0), (2, 0, 1))      # cycles-3
    assert not oracles.twists_commute((1, 0, 2), (0, 2, 1))  # two transpositions
    for lam, rho in itertools.product(S4, repeat=2):
        assert oracles.twists_commute(lam, rho) == (compose(lam, rho) == compose(rho, lam))


def test_cycle_type():
    assert oracles.cycle_type((0, 1, 2, 3)) == (1, 1, 1, 1)
    assert oracles.cycle_type((1, 0, 2, 3)) == (2, 1, 1)
    assert oracles.cycle_type((1, 0, 3, 2)) == (2, 2)
    assert oracles.cycle_type((1, 2, 0, 3)) == (3, 1)
    assert oracles.cycle_type((1, 2, 3, 0)) == (4,)


def test_cycle_type_class_sizes_of_s4():
    # class sizes 1, 6, 3, 8, 6; as sigma ranges over S4 x S4 each is hit 24 times as often
    counts = {}
    for lam, rho in itertools.product(S4, repeat=2):
        t = oracles.cycle_type(oracles.sigma(lam, rho))
        counts[t] = counts.get(t, 0) + 1
    assert counts == {(1, 1, 1, 1): 24, (2, 1, 1): 144, (2, 2): 72, (3, 1): 192, (4,): 144}


# -- box sizes and closed forms -----------------------------------------------------

@pytest.mark.parametrize("group, bound, pos", [
    ("Z", 1, 2), ("Z", 2, 3), ("Z^2", 1, 4), ("Z^2", 2, 9),
    ("lex(Z,Z)", 1, 5), ("lex(Z,Z)", 2, 13),
])
def test_cone_sizes(group, bound, pos):
    p, n = oracles.cones(group, bound)
    assert len(p) == len(n) == pos


@pytest.mark.parametrize("group, n, bound, box", [
    ("Z", 4, 1, 32), ("Z", 3, 2, 54), ("Z^2", 4, 1, 512), ("Z^2", 3, 1, 128),
    ("lex(Z,Z)", 3, 1, 250), ("lex(Z,Z)", 4, 1, 1250),
])
def test_box_size(group, n, bound, box):
    assert oracles.BoxCounts(group, n, bound).box == box


def _brute_force(group, n, bound, lam, rho):
    """Defined pairs and quadruples, by adding every pair of box elements."""
    _, leq = oracles.GROUPS[group]
    pos, neg = oracles.cones(group, bound)
    lam_inv, rho_inv = inverse(lam), inverse(rho)
    add = lambda a, b: tuple(x + y for x, y in zip(a, b))
    box = [("L", t) for t in itertools.product(pos, repeat=n)] + \
          [("U", t) for t in itertools.product(neg, repeat=n)]

    def kite_add(x, y):
        if x[0] == "L" and y[0] == "L":
            return ("L", tuple(add(f, g) for f, g in zip(x[1], y[1])))
        if x[0] == "U" and y[0] == "U":
            return None
        upper, lower, twist = (x[1], y[1], rho_inv) if x[0] == "U" else (y[1], x[1], lam_inv)
        out = []
        for i in range(n):
            a, f = upper[i], lower[twist[i]]
            if not leq(f, tuple(-c for c in a)):
                return None
            out.append(add(a, f))
        return ("U", tuple(out))

    by_sum = {}
    for x, y in itertools.product(box, repeat=2):
        s = kite_add(x, y)
        if s is not None:
            by_sum[s] = by_sum.get(s, 0) + 1
    return sum(by_sum.values()), sum(v * v for v in by_sum.values())


@pytest.mark.parametrize("group, lam, rho", [
    ("Z", (0, 2, 1, 3), (1, 2, 0, 3)),   # ex8.2
    ("Z", (1, 0, 3, 2), (3, 2, 1, 0)),   # ex3.8
    ("Z^2", (1, 2, 0), (2, 0, 1)),       # cycles-3
    ("lex(Z,Z)", (1, 2, 0), (2, 0, 1)),
    ("lex(Z,Z)", (0, 1), (1, 0)),
])
def test_pair_and_quadruple_counts_against_brute_force(group, lam, rho):
    counts = oracles.BoxCounts(group, len(lam), 1)
    defined, quadruples = _brute_force(group, len(lam), 1, lam, rho)
    assert counts.defined_pairs == defined
    assert counts.quadruples == quadruples


def test_closed_forms_over_z_at_bound_1():
    # n = 4: box 2^4 + 2^4; per coordinate 3 defined Upper/Lower pairs
    c = oracles.BoxCounts("Z", 4, 1)
    assert c.defined_pairs == 2 ** 8 + 2 * 3 ** 4
    assert c.quadruples == 6 ** 4 + 4 * 5 ** 4
    assert c.axioms_checked() == 32 * 33 + 32 + 418 + 32 ** 3
    assert c.embed_checked() == 32 + 32 ** 2
    # ex3.8: two components of size 2
    assert c.subdirect_checked([2, 2]) == 3 * 32 + 2 * (8 + 32 + 32 ** 2 + 4)


def test_census_draw_is_seeded_and_stratified():
    a, b = workloads.census_z(7), workloads.census_z(7)
    assert a == b
    assert a != workloads.census_z(8)
    strata = workloads.census_strata()
    assert sum(len(v) for v in strata.values()) == math.factorial(4) ** 2
    assert len(a) == sum(workloads.CENSUS_QUOTA[commute] for _, commute in strata)
    assert len({(s.lam, s.rho) for s in a}) == len(a)
