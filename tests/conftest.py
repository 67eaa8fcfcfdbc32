"""Shared fixtures: the built-in example systems, the fixed family of ten
permutation pairs used across the verification tests, and the test oracles
that check the package's groups and index systems from first principles."""

import itertools
import random

import pytest

from kitealg import verdict
from kitealg.indexsys import IndexSystem, derived_sigma, perm_inverse, perm_order
from kitealg.kite import KiteAlgebra
from kitealg.verdict import Verdict, sweep

# the four built-in example systems (1-based images, n = 4)
EX_8_2 = ([1, 3, 2, 4], [2, 3, 1, 4])
EX_8_4 = ([1, 3, 2, 4], [2, 1, 4, 3])
EX_8_5 = ([2, 3, 1, 4], [1, 3, 4, 2])
EX_3_8 = ([2, 1, 4, 3], [4, 3, 2, 1])

# ten fixed permutation pairs, including all four example systems
TEN_SYSTEMS = [
    ("id-1", [1], [1]),
    ("swap-2", [1, 2], [2, 1]),
    ("equal-swap-2", [2, 1], [2, 1]),
    ("cycles-3", [2, 3, 1], [3, 1, 2]),
    ("id-cycle-3", [1, 2, 3], [2, 3, 1]),
    ("double-swap-4", [1, 2, 3, 4], [2, 1, 4, 3]),
    ("ex8.2", *EX_8_2),
    ("ex8.4", *EX_8_4),
    ("ex8.5", *EX_8_5),
    ("ex3.8", *EX_3_8),
]


def set_budget(monkeypatch, cap, draws=None):
    """The one sweep budget, verdict.CAP and verdict.DRAWS, for one test;
    draws defaults to cap."""
    monkeypatch.setattr(verdict, "CAP", cap)
    monkeypatch.setattr(verdict, "DRAWS", cap if draws is None else draws)


def system(lam, rho) -> IndexSystem:
    return IndexSystem.from_one_based(lam, rho)


class ObjectPath(KiteAlgebra):
    """A no-op subclass: the packed kernel serves KiteAlgebra itself only."""


@pytest.fixture
def ex82():
    return system(*EX_8_2)


@pytest.fixture
def ex84():
    return system(*EX_8_4)


@pytest.fixture
def ex85():
    return system(*EX_8_5)


@pytest.fixture
def ex38():
    return system(*EX_3_8)


def connected_by_iteration(sys: IndexSystem, i: int, j: int) -> bool:
    """Search m >= 0 with sigma^m(i) = j or sigma^-m(i) = j, up to the
    permutation order."""
    sigma = derived_sigma(sys)
    sigma_inv = perm_inverse(sigma)
    fwd, bwd = i, i
    for _ in range(perm_order(sigma) + 1):
        if fwd == j or bwd == j:
            return True
        fwd, bwd = sigma[fwd], sigma_inv[bwd]
    return False


def check_po_group_axioms(G, bound: int, translation_samples: int = 200,
                          rng=None) -> Verdict:
    """Group laws, order laws, and translation-invariance on the box.

    Associativity and translation-invariance are cubic/quartic in the box, so
    they are sampled when the box is large; reflexivity, antisymmetry,
    transitivity and the inverse law are exhaustive.
    """
    rng = rng or random.Random(0)
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

    for g, h, k in sweep(box, 3, rng)[1]:
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
