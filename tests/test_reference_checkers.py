"""The sweeping checkers against reference copies of their direct versions.

`reference_check_pea_axioms` computes every sum where it is read, as the
axiom checker did before it shared one table of pair sums; the fast checker
must return the same `Verdict` (status, checked, witnesses, detail) in the
exhaustive and in the sampled regime, on sound kites and on kites with a
fault planted in each axiom.  `reference_check_kite_rdp` runs one
`find_kite_refinement` per quadruple of a list, drawn by rng.choice over
verdict.CAP; the RDP checker, which computes each sample pair's corner once
on a lattice, must return the same `Verdict` on sound kites and under a
planted side-condition fault.  The RDP and subdirect tests pin the order in
which their streams are evaluated.  Both regimes come from the one budget,
verdict.CAP and verdict.DRAWS, set per test.
"""

import itertools
import random

import pytest

from kitealg import kite, packed, subdirect, verdict
from kitealg.cli import bounded_sample
from kitealg.kite import KiteAlgebra, KiteElement, LOWER, UPPER, check_pea_axioms
from kitealg.pogroup import IntegerGroup, UnsupportedCarrier, VectorGroup, parse_group
from kitealg.verdict import Verdict, sweep

from conftest import EX_3_8, EX_8_2, EX_8_5, ObjectPath, set_budget, system

Z = IntegerGroup()


def reference_check_pea_axioms(A, sample, seed=0):
    rng = random.Random(seed)
    add, one, zero = A.add, A.one, A.zero
    checked = 0
    for a in sample:
        d, e = A.complement_tilde(a), A.complement_minus(a)
        if add(a, d) != one or add(e, a) != one:
            return Verdict.failure(("axiom-ii-closed-form", a), checked)
        for x in sample:
            if add(a, x) == one and x != d:
                return Verdict.failure(("axiom-ii-right-unique", a, x), checked)
            if add(x, a) == one and x != e:
                return Verdict.failure(("axiom-ii-left-unique", a, x), checked)
        checked += len(sample) + 1
    for a in sample:
        checked += 1
        if (add(one, a) is not None or add(a, one) is not None) and a != zero:
            return Verdict.failure(("axiom-iv", a), checked)
    for a, b in sweep(sample, 2, rng)[1]:
        s = add(a, b)
        if s is None:
            continue
        checked += 1
        d, e = A.diff_left(s, a), A.diff_right(b, s)
        if d is None or e is None or add(d, a) != s or add(b, e) != s:
            return Verdict.failure(("axiom-iii", a, b), checked)
    exhaustive, triples = sweep(sample, 3, rng)
    for a, b, c in triples:
        checked += 1
        ab = add(a, b)
        left = add(ab, c) if ab is not None else None
        bc = add(b, c)
        right = add(a, bc) if bc is not None else None
        if (left is None) != (right is None) or left != right:
            return Verdict.failure(("axiom-i", a, b, c), checked)
    mode = "exhaustive triples" if exhaustive else f"{verdict.DRAWS} sampled triples"
    return Verdict.passed(checked, detail=mode)


# (CAP, DRAWS): the default, the table regime, and sampled triples with
# sampled pairs (no table)
REGIMES = {
    "exhaustive": (),
    "sampled": (100, 500),
}


def _both(A, sample, seed, regime, monkeypatch):
    if REGIMES[regime]:
        set_budget(monkeypatch, *REGIMES[regime])
    got = check_pea_axioms(A, sample, seed=seed)
    want = reference_check_pea_axioms(A, sample, seed=seed)
    assert got == want
    return got


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("group, lam_rho, bound, size, seed", [
    ("Z", EX_8_2, 1, 500, 0),
    ("Z", EX_8_5, 1, 20, 3),
    ("Z^2", EX_3_8, 1, 24, 7),
    ("lex(Z,Z)", ([2, 3, 1], [3, 1, 2]), 1, 30, 11),
])
def test_sound_kites_agree(group, lam_rho, bound, size, seed, regime, monkeypatch):
    A = KiteAlgebra(parse_group(group), system(*lam_rho))
    sample = bounded_sample(A.enumerate_box(bound), size, seed, keep=(A.zero, A.one))
    v = _both(A, sample, seed, regime, monkeypatch)
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
def test_planted_faults_agree(cls, tag, regime, monkeypatch):
    A = cls(Z, system(*EX_8_2))
    v = _both(A, A.enumerate_box(1), 5, regime, monkeypatch)
    assert v.failed
    assert v.witnesses[0][0] == tag


class WrongDifference(KiteAlgebra):
    """(iii): the right difference of L[1,1,0,0] by L[1,0,0,0] is the member
    L[0,0,1,0], not L[0,1,0,0]; a difference that solved and tested
    membership alone would pass it, so only the re-addition finds it."""

    def diff_right(self, a, b):
        if a == self.lower(1, 0, 0, 0) and b == self.lower(1, 1, 0, 0):
            return self.lower(0, 0, 1, 0)
        return super().diff_right(a, b)


def test_wrong_difference_is_an_axiom_iii_fault(monkeypatch):
    A = WrongDifference(Z, system(*EX_8_2))
    v = _both(A, A.enumerate_box(1), 0, "exhaustive", monkeypatch)
    assert v.failed
    assert v.witnesses[0] == ("axiom-iii", A.lower(0, 1, 0, 0), A.lower(1, 0, 0, 0))


def test_closed_form_fault_agrees(monkeypatch):
    class WrongTilde(KiteAlgebra):
        def complement_tilde(self, x):
            return self.zero if x.tag == UPPER else super().complement_tilde(x)

    A = WrongTilde(Z, system(*EX_8_2))
    v = _both(A, A.enumerate_box(1), 0, "exhaustive", monkeypatch)
    assert v.witnesses[0][0] == "axiom-ii-closed-form"


# ---------------------------------------------------------------------------
# RDP: the corner memo against a loop of find_kite_refinement
# ---------------------------------------------------------------------------

def _quadruples(A, sample):
    """All position quadruples of the sample with equal defined sums."""
    return kite.quadruple_box(kite.sum_classes(A, sample))


def reference_check_kite_rdp(A, sample, seed=0):
    """check_kite_rdp as one find_kite_refinement per quadruple of a list:
    every quadruple up to verdict.CAP, else verdict.DRAWS rng.choice picks
    from it; the quadruples are named from their sample positions up front."""
    quads = [tuple(map(sample.__getitem__, q)) for q in _quadruples(A, sample)]
    if len(quads) > verdict.CAP:
        rng = random.Random(seed)
        quads = [rng.choice(quads) for _ in range(verdict.DRAWS)]
    found, witnesses = 0, []
    for quad in quads:
        if kite.find_kite_refinement(A, *quad) is not None:
            found += 1
        elif len(witnesses) < 5:
            witnesses.append(quad)
    checked = len(quads)
    if found < checked:
        return Verdict("INCONCLUSIVE", checked, tuple(witnesses),
                       f"{found}/{checked} quadruples refined; "
                       f"{checked - found} without a witness in the box")
    return Verdict.passed(checked, f"all {found} quadruples refined")


class RefusesCorners(KiteAlgebra):
    """A side-condition fault: c12 ^ c21 = 0 is refused for every c12 in a
    chosen set of box elements, so the quadruples behind those corners go
    unrefined, in the memo and in the reference alike."""

    def __init__(self, G, sys):
        super().__init__(G, sys)
        self.refused = frozenset(list(self.enumerate_box(1))[::3])

    def meet_is_zero(self, x, y):
        return x not in self.refused and super().meet_is_zero(x, y)


def _rdp_agrees(A, sample, seed=0):
    v = kite.check_kite_rdp(A, sample, seed=seed)
    assert v == reference_check_kite_rdp(A, sample, seed)
    return v


# over CAP the quadruples are drawn with replacement, DRAWS of them, each as
# rng.choice picks it from the list.  The witnesses are the first five
# unrefined quadruples and `found` counts the refined ones, so the whole
# Verdict pins which quadruples ran, in what order
@pytest.mark.parametrize("group, cap, seed", [("Z", 300, 4), ("Z", 5, 4), ("Z^2", 50, 9)])
def test_over_cap_rdp_stream_matches_list_sample(group, cap, seed, monkeypatch):
    set_budget(monkeypatch, cap)
    A = RefusesCorners(parse_group(group), system(*EX_8_5))
    sample = bounded_sample(A.enumerate_box(1), 18, seed, keep=(A.zero, A.one))
    assert len(_quadruples(A, sample)) > cap
    v = _rdp_agrees(A, sample, seed)
    assert v.status == "INCONCLUSIVE" and v.checked == cap and v.witnesses


def test_under_cap_rdp_streams_every_quadruple():
    A = RefusesCorners(Z, system(*EX_8_5))
    sample = A.enumerate_box(1)
    v = _rdp_agrees(A, sample)
    assert v.status == "INCONCLUSIVE" and len(v.witnesses) == 5
    assert v.checked == len(_quadruples(A, sample))


@pytest.mark.parametrize("cls", [KiteAlgebra, RefusesCorners])
@pytest.mark.parametrize("regime", ["exhaustive", "over-cap"])
@pytest.mark.parametrize("group", ["Z", "Z^2", "lex(Z,Z)", "prod(Z,Z)", "lex(Z,Z^2)"])
def test_rdp_verdict_matches_reference(group, regime, cls, monkeypatch):
    A = cls(parse_group(group), system([2, 3, 1], [3, 1, 2]))
    assert A.G.has_meet
    sample = bounded_sample(A.enumerate_box(1), 16, 3, keep=(A.zero, A.one))
    total = len(_quadruples(A, sample))
    set_budget(monkeypatch, total if regime == "exhaustive" else total // 3)
    v = _rdp_agrees(A, sample, seed=5)
    assert v.ok == (cls is KiteAlgebra)


def test_fault_in_the_memo_alone_is_a_kernel_disagreement(monkeypatch):
    A = KiteAlgebra(Z, system(*EX_8_5))
    sample = A.enumerate_box(1)
    # the memo takes sample positions; the witness names their elements
    box = kite.quadruple_box(kite.sum_classes(A, sample))
    (first,), = itertools.islice(packed.recheck_tuples(len(box), 1), 1)
    target, memo = box[first], kite.corner_memo

    def wrong_at_target(A, sample):
        refined = memo(A, sample)
        return lambda *quad: refined(*quad) != (quad == target)

    monkeypatch.setattr(kite, "corner_memo", wrong_at_target)
    assert kite.check_kite_rdp(A, sample) == Verdict.failure(
        ("kernel-disagreement", tuple(map(sample.__getitem__, target))), 0,
        "corner memo and find_kite_refinement disagree")


@pytest.mark.parametrize("group, searched", [("Z", "re-check"), ("lex(Z^2,Z)", "none")])
def test_find_kite_refinement_runs_where_the_memo_cannot(monkeypatch, group, searched):
    # on a lattice only the re-check searches; off one, where the meet the
    # search refines from does not exist, nothing is searched or packed
    A = KiteAlgebra(parse_group(group), system([2, 3, 1], [3, 1, 2]))
    sample = bounded_sample(A.enumerate_box(1), 20, 3, keep=(A.zero, A.one))
    quads = len(_quadruples(A, sample))
    calls, search, built = [], kite.find_kite_refinement, []
    monkeypatch.setattr(kite, "find_kite_refinement",
                        lambda *args: calls.append(args) or search(*args))

    class Counting(packed.Packing):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)
    monkeypatch.setattr(packed, "Packing", Counting)
    v = kite.check_kite_rdp(A, sample)
    if searched == "re-check":
        assert quads > packed.RECHECK and len(calls) == packed.RECHECK and len(built) == 1
        assert v.ok
    else:
        e = ((0, 0), 0)
        with pytest.raises(UnsupportedCarrier):
            A.meet(A.lower(((0, 1), 0), e, e), A.lower(((1, 0), 0), e, e))
        assert quads > 0 and calls == built == []
        assert v == Verdict("INCONCLUSIVE", 0, (), "lex(Z^2,Z) has no meet: no quadruple searched")


# ---------------------------------------------------------------------------
# Subdirect: one pair stream, checked on every component
# ---------------------------------------------------------------------------

def test_subdirect_first_witness_is_first_failing_pair_and_component(monkeypatch):
    A = ObjectPath(Z, system(*EX_3_8))
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
    v = subdirect._check_projection_hom(A, kernels, targets, box, table)

    checked = len(kernels) * len(box)
    for x, y in itertools.product(box, repeat=2):
        s = A.add(x, y)
        for k in kernels:
            checked += 1
            if s is None:
                continue
            target = subdirect.component_algebra(A, k)
            if broken(A, k, s) != target.add(broken(A, k, x), broken(A, k, y)):
                assert v == Verdict.failure(("sum", [i + 1 for i in k.component], x, y), checked)
                assert k == kernels[-1]
                return
    pytest.fail("the broken projection was never caught")


def test_subdirect_pair_stream_over_cap_passes(monkeypatch):
    set_budget(monkeypatch, 1_000)
    A = ObjectPath(VectorGroup(2), system(*EX_3_8))
    box = A.enumerate_box(1)
    kernels = tuple(subdirect.component_kernel(A.sys, c)
                    for c in subdirect.components(A.sys))
    targets = [subdirect.component_algebra(A, k) for k in kernels]
    table = [[subdirect.project_component(A, k, x) for x in box] for k in kernels]
    v = subdirect._check_projection_hom(A, kernels, targets, box, table)
    assert v.ok and v.checked == len(kernels) * (len(box) + 1_000)
