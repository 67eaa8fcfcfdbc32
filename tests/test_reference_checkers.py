"""The sweeping checkers against reference copies of their direct versions.

`reference_check_pea_axioms` computes every sum where it is read, as the
axiom checker did before it shared one table of pair sums; the fast checker
must return the same `Verdict` (status, checked, witnesses, detail) in the
exhaustive and in the sampled regime, on sound kites and on kites with a
fault planted in each axiom.  The RDP and subdirect tests pin the order in
which their streams are evaluated.
"""

import itertools
import random

import pytest

from kitealg import kite, subdirect
from kitealg.cli import bounded_sample
from kitealg.kite import KiteAlgebra, KiteElement, LOWER, UPPER, check_pea_axioms
from kitealg.pogroup import IntegerGroup, VectorGroup, parse_group
from kitealg.verdict import Verdict, sweep

from conftest import EX_3_8, EX_8_2, EX_8_5, system

Z = IntegerGroup()


def reference_check_pea_axioms(A, sample, seed=0, triple_cap=600_000,
                               pair_cap=600_000, draws=40_000):
    rng = random.Random(seed)
    add, one, zero = A.add, A.one, A.zero
    checked = 0
    for a in sample:
        d, e = A.complement_tilde(a), A.complement_minus(a)
        if add(a, d) != one or add(e, a) != one:
            return Verdict.failure(("axiom-ii-closed-form", a), checked)
        for x in sample:
            if add(a, x) == one and x != d:
                return Verdict.failure(("axiom-ii-right-unique", a, x, d), checked)
            if add(x, a) == one and x != e:
                return Verdict.failure(("axiom-ii-left-unique", a, x, e), checked)
        checked += len(sample) + 1
    for a in sample:
        checked += 1
        if (add(one, a) is not None or add(a, one) is not None) and a != zero:
            return Verdict.failure(("axiom-iv", a), checked)
    for a, b in sweep(sample, 2, pair_cap, draws, rng)[1]:
        s = add(a, b)
        if s is None:
            continue
        checked += 1
        if A.diff_left(s, a) is None or A.diff_right(b, s) is None:
            return Verdict.failure(("axiom-iii", a, b), checked)
    exhaustive, triples = sweep(sample, 3, triple_cap, draws, rng)
    for a, b, c in triples:
        checked += 1
        ab = add(a, b)
        left = add(ab, c) if ab is not None else None
        bc = add(b, c)
        right = add(a, bc) if bc is not None else None
        if (left is None) != (right is None) or left != right:
            return Verdict.failure(("axiom-i", a, b, c), checked)
    mode = "exhaustive triples" if exhaustive else f"{draws} sampled triples"
    return Verdict.passed(checked, detail=mode)


# (triple_cap, pair_cap, draws): the table regime, and sampled triples with
# sampled pairs (no table)
REGIMES = {
    "exhaustive": {},
    "sampled": {"triple_cap": 1_000, "pair_cap": 100, "draws": 500},
}


def _both(A, sample, seed, regime):
    kwargs = REGIMES[regime]
    got = check_pea_axioms(A, sample, seed=seed, **kwargs)
    want = reference_check_pea_axioms(A, sample, seed=seed, **kwargs)
    assert got == want
    return got


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("group, lam_rho, bound, size, seed", [
    ("Z", EX_8_2, 1, 500, 0),
    ("Z", EX_8_5, 1, 20, 3),
    ("Z^2", EX_3_8, 1, 24, 7),
    ("lex(Z,Z)", ([2, 3, 1], [3, 1, 2]), 1, 30, 11),
])
def test_sound_kites_agree(group, lam_rho, bound, size, seed, regime):
    A = KiteAlgebra(parse_group(group), system(*lam_rho))
    sample = bounded_sample(A.enumerate_box(bound), size, seed, keep=(A.zero, A.one))
    v = _both(A, sample, seed, regime)
    assert v.ok
    assert v.detail.startswith("exhaustive" if regime == "exhaustive" else "500 sampled")


class SwappedSum(KiteAlgebra):
    """(ii): L[1,0,0,0] + L[0,1,0,0] gives 1, a second complement of both."""

    def add(self, x, y):
        if x == self.lower(1, 0, 0, 0) and y == self.lower(0, 1, 0, 0):
            return self.one
        return super().add(x, y)


class OneAbsorbs(KiteAlgebra):
    """(iv): 1 + L[0,0,1,0] is defined."""

    def add(self, x, y):
        if x == self.one and y == self.lower(0, 0, 1, 0):
            return y
        return super().add(x, y)


class NoLeftDifference(KiteAlgebra):
    """(iii): no left difference of an Upper sum by L[0,1,0,1]."""

    def diff_left(self, b, a):
        if a == self.lower(0, 1, 0, 1) and b.tag == UPPER:
            return None
        return super().diff_left(b, a)


class LeavesBox(KiteAlgebra):
    """(i): a Lower with a coordinate outside the bound-1 box adds with
    nothing, so (a+b)+c and a+(b+c) disagree once a+b leaves the box."""

    def add(self, x, y):
        if x.tag == LOWER and max(x.coords) > 1:
            return None
        return super().add(x, y)


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("cls, tag", [
    (SwappedSum, "axiom-ii-left-unique"),
    (OneAbsorbs, "axiom-iv"),
    (NoLeftDifference, "axiom-iii"),
    (LeavesBox, "axiom-i"),
])
def test_planted_faults_agree(cls, tag, regime):
    A = cls(Z, system(*EX_8_2))
    v = _both(A, A.enumerate_box(1), 5, regime)
    assert v.failed
    assert v.witnesses[0][0] == tag


def test_closed_form_fault_agrees():
    class WrongTilde(KiteAlgebra):
        def complement_tilde(self, x):
            return self.zero if x.tag == UPPER else super().complement_tilde(x)

    A = WrongTilde(Z, system(*EX_8_2))
    v = _both(A, A.enumerate_box(1), 0, "exhaustive")
    assert v.witnesses[0][0] == "axiom-ii-closed-form"


# ---------------------------------------------------------------------------
# RDP: the over-cap stream selects what sampling the full list selected
# ---------------------------------------------------------------------------

# random.sample picks from a copied pool when the cap is a large share of the
# population and from a set of taken positions otherwise; both occur here
@pytest.mark.parametrize("group, cap, seed", [("Z", 300, 4), ("Z", 5, 4), ("Z^2", 50, 9)])
def test_over_cap_rdp_stream_matches_list_sample(monkeypatch, group, cap, seed):
    A = KiteAlgebra(parse_group(group), system(*EX_8_5))
    sample = bounded_sample(A.enumerate_box(1), 18, seed, keep=(A.zero, A.one))
    quads = list(kite.rdp_quadruples(A, sample))
    assert len(quads) > cap
    want = random.Random(seed).sample(quads, cap)

    asked = []

    def record(A, variant, a1, a2, b1, b2, sample):
        asked.append((a1, a2, b1, b2))
        return None if len(asked) % 3 == 0 else ()

    monkeypatch.setattr(kite, "find_kite_refinement", record)
    v = kite.check_kite_rdp(A, "RDP2", sample, quad_cap=cap, seed=seed)
    assert asked == want
    missing = want[2::3]
    assert v.status == "INCONCLUSIVE" and v.checked == cap
    assert v.witnesses == tuple(missing[:5])
    assert v.detail == (f"{cap - len(missing)}/{cap} quadruples refined; "
                        f"{len(missing)} without a witness in the box")


def test_under_cap_rdp_streams_every_quadruple(monkeypatch):
    A = KiteAlgebra(Z, system(*EX_8_5))
    sample = A.enumerate_box(1)
    asked = []
    monkeypatch.setattr(kite, "find_kite_refinement",
                        lambda A, variant, *quad: asked.append(quad[:4]) or ())
    v = kite.check_kite_rdp(A, "RDP2", sample)
    assert asked == list(kite.rdp_quadruples(A, sample))
    assert v.ok and v.checked == len(asked)


# ---------------------------------------------------------------------------
# Subdirect: one pair stream, checked on every component
# ---------------------------------------------------------------------------

def test_subdirect_first_witness_is_first_failing_pair_and_component(monkeypatch):
    A = KiteAlgebra(Z, system(*EX_3_8))
    kernels = tuple(subdirect.component_kernel(A.sys, c)
                    for c in subdirect.components(A.sys))
    assert len(kernels) == 2
    box = A.enumerate_box(1)
    project = subdirect.project_component

    def broken(A_, k, x):
        # wrong only on coordinates 2 of the last component, which no box
        # element has: the zero, one and complement checks still pass
        p = project(A_, k, x)
        if k == kernels[-1] and 2 in p.coords:
            return KiteElement(p.tag, (0,) * len(p.coords))
        return p

    monkeypatch.setattr(subdirect, "project_component", broken)
    targets = [subdirect.component_algebra(A, k) for k in kernels]
    table = [[broken(A, k, x) for x in box] for k in kernels]
    v = subdirect._check_projection_hom(A, kernels, targets, box, table, pair_cap=200_000)

    checked = len(kernels) * len(box)
    for x, y in itertools.product(box, repeat=2):
        s = A.add(x, y)
        for k in kernels:
            checked += 1
            if s is None:
                continue
            target = subdirect.component_algebra(A, k)
            if broken(A, k, s) != target.add(broken(A, k, x), broken(A, k, y)):
                assert v == Verdict.failure(("sum", k.component, x, y), checked)
                assert k == kernels[-1]
                return
    pytest.fail("the broken projection was never caught")


def test_subdirect_pair_stream_over_cap_passes():
    A = KiteAlgebra(VectorGroup(2), system(*EX_3_8))
    box = A.enumerate_box(1)
    kernels = tuple(subdirect.component_kernel(A.sys, c)
                    for c in subdirect.components(A.sys))
    targets = [subdirect.component_algebra(A, k) for k in kernels]
    table = [[subdirect.project_component(A, k, x) for x in box] for k in kernels]
    v = subdirect._check_projection_hom(A, kernels, targets, box, table, pair_cap=1_000)
    assert v.ok and v.checked == len(kernels) * (len(box) + 1_000)
