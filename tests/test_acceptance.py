"""End-to-end acceptance gate: nine criteria, one pass/fail line each.

Run with -s to see the per-criterion lines; each criterion is also a separate
test so the verbose listing doubles as the scoreboard.
"""

import json
import sys

import pytest

from kitealg.cli import bounded_sample, paper_examples, parse_spec, run_suite
from kitealg.indexsys import components
from kitealg.kite import KiteAlgebra, check_kite_rdp, check_pea_axioms
from kitealg.pogroup import IntegerGroup, VectorGroup
from kitealg.poloop import (
    PoLoop,
    block_subgroup,
    check_whole_block_lex_agreement,
    criteria_disagree,
    embed_kite,
    is_associative,
)
from kitealg.subdirect import subdirect_embedding_check

from conftest import TEN_SYSTEMS, system

Z = IntegerGroup()
Z2 = VectorGroup(2)
SAMPLE_CAP = 500


def report(num, label, ok, extra=""):
    line = f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" [{extra}]"
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_1_axiom_suite():
    checked = 0
    for G in (Z, Z2):
        for name, lam, rho in TEN_SYSTEMS:
            A = KiteAlgebra(G, system(lam, rho))
            box = A.enumerate_box(2)
            sample = bounded_sample(box, SAMPLE_CAP, seed=0, keep=(A.zero, A.one))
            v = check_pea_axioms(A, sample, seed=0)
            assert v.ok, (G.name, name, v.detail, v.witnesses)
            checked += v.checked
    report(1, "axiom suite", True, f"{checked} checks, 0 counterexamples")


def test_criterion_2_example_regression():
    rep = paper_examples()
    bad = [r for r in rep["results"] if r["status"] != "PASS"]
    report(2, "example regression", rep["status"] == "PASS" and not bad,
           f"{len(rep['results'])} expectations")


def test_criterion_3_isomorphism_suite():
    checked = 0
    for name, lam, rho in TEN_SYSTEMS:
        v = embed_kite(KiteAlgebra(Z, system(lam, rho)), bound=2)
        assert v.ok, (name, v.detail, v.witnesses)
        checked += v.checked
    report(3, "interval isomorphism", True, f"{checked} checks, 0 mismatches")


def test_criterion_4_complement_identities():
    checked = 0
    for name, lam, rho in TEN_SYSTEMS:
        A = KiteAlgebra(Z, system(lam, rho))
        for a in A.enumerate_box(2):
            assert A.add(A.complement_minus(a), a) == A.one, (name, a)
            assert A.add(a, A.complement_tilde(a)) == A.one, (name, a)
            assert A.complement_tilde(A.complement_minus(a)) == a, (name, a)
            assert A.complement_minus(A.complement_tilde(a)) == a, (name, a)
            checked += 4
    report(4, "complement identities", True, f"{checked} checks, exhaustive")


def test_criterion_5_associativity_criterion():
    for name, lam, rho in TEN_SYSTEMS:
        v = is_associative(PoLoop(Z, system(lam, rho)), bound=2)
        assert not criteria_disagree(v), (name, v.detail)
    report(5, "associativity criterion agreement", True,
           f"{len(TEN_SYSTEMS)} systems, 0 disagreements")


def test_criterion_6_subdirect_suite():
    multi = [t for t in TEN_SYSTEMS if len(components(system(t[1], t[2]))) > 1]
    assert multi
    for name, lam, rho in multi:
        rep = subdirect_embedding_check(KiteAlgebra(Z, system(lam, rho)), bound=2)
        assert rep.injectivity.ok, name
        assert all(v.ok for v in rep.surjectivity), name
        assert rep.reconstruction.ok, name
        assert rep.hom_preservation.ok, name
    report(6, "subdirect representation", True,
           f"{len(multi)} multi-component systems, exhaustive boxes")


def test_criterion_7_rdp2_suite():
    A = KiteAlgebra(Z, system(*TEN_SYSTEMS[6][1:]))  # the 4-index ex8.2 system
    box = A.enumerate_box(2)
    v = check_kite_rdp(A, box, seed=0)
    # over Z the meet is the only candidate and never reads the box, so a
    # missing refinement cannot come from truncation: PASS is required
    report(7, "RDP2 refinement", v.ok, v.detail)


def test_criterion_8_block_subgroups():
    sys84 = system(*TEN_SYSTEMS[7][1:])
    W = PoLoop(Z, sys84)
    _, v1 = block_subgroup(W, [{0, 3}, {1, 2}], bound=2, seed=0)
    assert v1.ok, v1.detail
    _, v2 = block_subgroup(W, [set(range(4))], bound=2, seed=0)
    assert v2.ok, v2.detail
    lex = check_whole_block_lex_agreement(W, bound=2)
    assert lex.ok, lex.detail
    report(8, "block-constant subgroups", True,
           "ex8.4 blocks and whole-block, generic triples at 27 levels each")


def test_criterion_9_determinism():
    spec = parse_spec(
        "group=Z n=4 lambda=[1,3,2,4] rho=[2,3,1,4] bound=1 samples=200 seed=7")
    a = json.dumps(run_suite(spec, "all"), sort_keys=True, indent=2)
    b = json.dumps(run_suite(spec, "all"), sort_keys=True, indent=2)
    report(9, "deterministic reports", a == b, f"{len(a)} bytes, byte-identical")
