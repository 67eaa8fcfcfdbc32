"""Spec parsing, suite execution, report determinism, exit codes, and the
command-line entry point."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import kitealg

from kitealg.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_PASS,
    EXIT_USAGE,
    PAPER_SYSTEMS,
    KiteSpec,
    SpecError,
    _kite_sample,
    _loop_sample,
    bounded_sample,
    exit_code,
    main,
    paper_examples,
    parse_blocks,
    parse_permutation,
    parse_spec,
    run_suite,
)
from kitealg import subdirect as sd
from kitealg.kite import KiteAlgebra
from kitealg.pogroup import MAX_NESTING, parse_group
from kitealg.poloop import PoLoop
from kitealg.verdict import FAIL, PASS, Box, Verdict

EX82_SPEC = """\
# four-index example system
group = Z
n = 4
lambda = [1,3,2,4]
rho = [2,3,1,4]
bound = 1
samples = 200
seed = 7
"""


class TestParsePermutation:
    def test_image_list(self):
        assert parse_permutation("[1,3,2,4]", 4) == (0, 2, 1, 3)

    def test_cycles(self):
        assert parse_permutation("(1 2 3)(4)", 4) == (1, 2, 0, 3)

    def test_cycles_with_commas(self):
        assert parse_permutation("(1,2)(3,4)", 4) == (1, 0, 3, 2)

    @pytest.mark.parametrize("bad", ["[1,1,2,3]", "(1 2)(2 3)", "[1,2,3]",
                                     "1 2 3 4", "[1,2,3,4", "(1 5)"])
    def test_rejects(self, bad):
        with pytest.raises(SpecError):
            parse_permutation(bad, 4)

    def test_short_image_list_is_rejected_before_the_identity_is_built(self):
        tracemalloc.start()
        try:
            with pytest.raises(SpecError):
                parse_permutation("[1]", 1_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestParseBlocks:
    def test_two_blocks(self):
        assert parse_blocks("{1,4},{2,3}", 4) == \
            (frozenset({0, 3}), frozenset({1, 2}))

    def test_rejects_nonpartition(self):
        with pytest.raises(SpecError):
            parse_blocks("{1,2},{2,3}", 4)


class TestParseSpec:
    def test_full_spec(self):
        spec = parse_spec(EX82_SPEC)
        assert spec == KiteSpec("Z", 4, (0, 2, 1, 3), (1, 2, 0, 3),
                                None, 1, 200, 7)

    def test_defaults(self):
        spec = parse_spec("n = 2\nlambda = [1,2]\nrho = [2,1]\n")
        assert (spec.group_desc, spec.bound, spec.samples, spec.seed) == ("Z", 2, 500, 0)

    def test_same_line_assignments(self):
        spec = parse_spec("n=2 lambda=[1,2] rho=(1 2)\n")
        assert spec.rho == (1, 0)

    def test_blocks(self):
        spec = parse_spec("n=4 lambda=[1,3,2,4] rho=[2,1,4,3] blocks={1,4},{2,3}")
        assert spec.blocks == (frozenset({0, 3}), frozenset({1, 2}))

    @pytest.mark.parametrize("text,fragment", [
        ("lambda=[1]\nrho=[1]", "missing required field: n"),
        ("n=2\nrho=[2,1]", "lambda"),
        ("n=2\nlambda=[1,2]\nrho=[2,1]\nfoo=1", "unknown fields"),
        ("n=2\nlambda=[2,2]\nrho=[1,2]", "invalid-permutation"),
        ("group=Q\nn=1\nlambda=[1]\nrho=[1]", "group"),
        ("n=1\nlambda=[1]\nrho=[1]\nbound=x", r"bad bound: 'x' \(line 4\)"),
        ("n=1\nlambda=[1]\nrho=[1]\nbound=-1", r"bad bound: -1 is negative \(line 4\)"),
        ("n=1\nlambda=[1]\nrho=[1]\nsamples=-5", r"bad samples: -5 is negative"),
        ("n=1\nlambda=[1]\nrho=[1]\nseed=1.5", r"bad seed: '1.5'"),
        ("n=1\nlambda=[1]\ngroup=Q\nrho=[1]", r"bad group descriptor: .* \(line 3\)"),
        ("n=2\nlambda=[1,2]\nrho=[2,1]\nfoo=1", r"unknown fields: \['foo'\] \(line 4\)"),
        ("n=2 bar=1\nlambda=[1,2]\nrho=[2,1]\nfoo=1", r"\['bar', 'foo'\] \(line 1\)"),
    ])
    def test_errors(self, text, fragment):
        with pytest.raises(SpecError, match=fragment):
            parse_spec(text)

    def test_error_carries_line(self):
        with pytest.raises(SpecError, match=r"line 3"):
            parse_spec("n = 4\nlambda = [1,2,3,4]\nrho = [1,1,3,4]\n")


class TestBoundedSample:
    def test_small_passthrough(self):
        assert bounded_sample([1, 2, 3], 10, 0) == [1, 2, 3]

    def test_deterministic_and_keeps(self):
        items = list(range(100))
        a = bounded_sample(items, 10, 42, keep=(99,))
        b = bounded_sample(items, 10, 42, keep=(99,))
        assert a == b and 99 in a

    @pytest.mark.parametrize("group, lam, rho, bound, samples, seed", [
        ("Z^2", *PAPER_SYSTEMS["ex3.8"], 1, 120, 0),
        ("lex(Z,Z)", [2, 3, 1], [3, 1, 2], 1, 60, 0),
        ("Z", *PAPER_SYSTEMS["ex8.2"], 2, 50, 7),
        ("Z", *PAPER_SYSTEMS["ex8.2"], 1, 500, 0),
    ], ids=["ex3.8-Z^2", "cycles-3-lex", "ex8.2-Z-bound-2", "whole-box"])
    def test_kite_sample_matches_the_built_box(self, group, lam, rho, bound,
                                               samples, seed):
        spec = parse_spec(f"group = {group}\nn = {len(lam)}\nlambda = {lam}\n"
                          f"rho = {rho}\nbound = {bound}\nsamples = {samples}\n"
                          f"seed = {seed}\n")
        A = KiteAlgebra(parse_group(group), spec.system)
        box = A.enumerate_box(bound)
        assert _kite_sample(spec, A) == bounded_sample(box, samples, seed,
                                                       keep=(A.zero, A.one))

    LARGE_BOX_SPEC = ("group = Z^2\nn = 7\nlambda = (1 2 3 4 5 6 7)\n"
                      "rho = [1,2,3,4,5,6,7]\nbound = 2\nsamples = 50\n")

    @staticmethod
    def refuse_to_build(monkeypatch):
        def refuse(self):
            raise AssertionError("the whole box was built")
        monkeypatch.setattr(Box, "__iter__", refuse)

    def test_kite_sample_leaves_a_large_box_unbuilt(self, tmp_path, capsys,
                                                    monkeypatch):
        # n = 7 over Z^2 at bound 2: a box of 2 * 9**7 elements
        self.refuse_to_build(monkeypatch)
        text = self.LARGE_BOX_SPEC
        spec = parse_spec(text)
        A = KiteAlgebra(parse_group("Z^2"), spec.system)
        sample = _kite_sample(spec, A)
        assert 50 <= len(sample) == len(set(sample)) <= 52
        assert A.zero in sample and A.one in sample
        assert all(A.is_member(x) for x in sample)
        spec_path = tmp_path / "n7.kite"
        spec_path.write_text(text)
        assert main(["axioms", "--spec", str(spec_path)]) == EXIT_PASS

    def test_loop_sample_leaves_a_large_box_unbuilt(self, monkeypatch):
        # the loop box at the clamped bound 2 has 5 * 25**7 elements, and
        # neither the sample nor the loop suite builds it
        self.refuse_to_build(monkeypatch)
        spec = parse_spec(self.LARGE_BOX_SPEC)
        W = PoLoop(parse_group("Z^2"), spec.system)
        sample = _loop_sample(spec, W, 2)
        assert 50 <= len(sample) == len(set(sample)) <= 52
        assert W.neutral in sample and W.unit in sample
        assert all(abs(p.m) <= 2 and len(p.coords) == 7 and
                   all(max(map(abs, g)) <= 2 for g in p.coords) for p in sample)
        assert run_suite(spec, "loop")["suites"]["loop"]["status"] == PASS


class TestRunSuite:
    @pytest.fixture
    def spec(self):
        return parse_spec(EX82_SPEC)

    def test_all_suites_pass(self, spec):
        report = run_suite(spec, "all")
        assert report["status"] == "PASS", {
            k: v["status"] for k, v in report["suites"].items()}

    def test_components_payload(self, spec):
        report = run_suite(spec, "components")
        entry = report["suites"]["components"]
        assert entry["components"] == [[1, 2], [3], [4]]
        assert entry["sigma"] == [2, 1, 3, 4]

    def test_commutativity_observation(self, spec):
        entry = run_suite(spec, "commutativity")["suites"]["commutativity"]
        assert entry["status"] == "PASS" and entry["commutative"] is False
        assert entry["witness"]

    def test_loop_observation(self, spec):
        entry = run_suite(spec, "loop")["suites"]["loop"]
        assert entry["status"] == "PASS" and entry["associative"] is False
        assert entry["witness"]
        assert set(entry["inverse_formula_readings"]) == {
            "right_matches_rho_after_lam", "right_matches_lam_after_rho",
            "left_matches_rho_after_lam", "left_matches_lam_after_rho"}

    def test_unknown_suite(self, spec):
        with pytest.raises(SpecError, match="unknown-suite"):
            run_suite(spec, "bogus")

    def test_deterministic_json(self, spec):
        a = json.dumps(run_suite(spec, "all"), sort_keys=True)
        b = json.dumps(run_suite(spec, "all"), sort_keys=True)
        assert a == b

    def test_lex_rdp_refines_through_the_meet(self):
        spec = parse_spec("group=lex(Z,Z) n=3 lambda=[2,3,1] rho=[3,1,2] "
                          "bound=1 samples=60 seed=0")
        entry = run_suite(spec, "rdp")["suites"]["rdp"]
        assert entry["status"] == "PASS" and entry["checked"] == 4270
        assert entry["detail"] == "all 4270 quadruples refined"

    def test_decomposition_with_blocks(self):
        spec = parse_spec("n=4 lambda=[1,3,2,4] rho=[2,1,4,3] blocks={1,4},{2,3} bound=1")
        entry = run_suite(spec, "decomposition")["suites"]["decomposition"]
        assert entry["status"] == "PASS" and entry["blocks"] == [[1, 4], [2, 3]]

    def test_decomposition_failure_sets_status(self):
        spec = parse_spec("n=4 lambda=[2,3,1,4] rho=[1,3,4,2] blocks={1,4},{2,3} bound=1")
        report = run_suite(spec, "decomposition")
        assert report["status"] == "FAIL"
        assert exit_code(report) == EXIT_FAIL


def test_planted_kernel_fault_fails_the_subdirect_entry(monkeypatch):
    planted = Verdict.failure(("kernel-intersection", "planted"), 5, "planted fault")
    monkeypatch.setattr(sd, "check_kernel_projects_to_zero", lambda *args: planted)
    report = run_suite(parse_spec(EX82_SPEC), "subdirect")
    entry = report["suites"]["subdirect"]
    assert report["status"] == entry["status"] == FAIL
    assert entry["kernel_check"] == planted.to_json()
    assert entry["witnesses"] == [repr(("kernel-intersection", "planted"))]
    assert all(v["status"] == PASS for v in entry["report"]["surjectivity"])


class TestExitCodes:
    def test_pass(self):
        assert exit_code({"status": "PASS"}) == EXIT_PASS

    def test_fail(self):
        assert exit_code({"status": "FAIL"}) == EXIT_FAIL

    def test_inconclusive(self):
        assert exit_code({"status": "INCONCLUSIVE"}) == EXIT_INCONCLUSIVE
        assert exit_code({"status": "INCONCLUSIVE"}, strict=True) == EXIT_FAIL


class TestPaperExamples:
    def test_all_expectations_hold(self):
        report = paper_examples()
        assert report["status"] == "PASS", [
            r for r in report["results"] if r["status"] != "PASS"]
        assert len(report["results"]) == 12


class TestMain:
    def test_requires_spec(self, capsys):
        assert main(["axioms"]) == EXIT_USAGE
        assert "--spec" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["axioms", "--spec", "/nonexistent.kite"]) == EXIT_USAGE

    def test_bad_suite(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_runs_and_writes_json(self, tmp_path, capsys):
        spec_path = tmp_path / "ex.kite"
        spec_path.write_text(EX82_SPEC)
        out = tmp_path / "report.json"
        code = main(["components", "--spec", str(spec_path), "--json", str(out)])
        assert code == EXIT_PASS
        assert "overall: PASS" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert data["suites"]["components"]["components"] == [[1, 2], [3], [4]]

    def test_seed_override_and_env(self, tmp_path, capsys, monkeypatch):
        spec_path = tmp_path / "ex.kite"
        spec_path.write_text(EX82_SPEC)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv("KITEALG_SEED", "123")
        main(["axioms", "--spec", str(spec_path), "--json", str(out1)])
        main(["axioms", "--spec", str(spec_path), "--seed", "123",
              "--json", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        assert json.loads(out1.read_text())["spec"]["seed"] == 123

    @pytest.mark.parametrize("suite", ["loop", "all"])
    def test_loop_at_bound_zero_is_an_observation(self, tmp_path, capsys, suite):
        # W's box at bound 0 is {neutral}: non-associativity is decided all
        # the same, with no witness in the box and no criterion disagreement
        spec_path = tmp_path / "ex.kite"
        spec_path.write_text(EX82_SPEC.replace("bound = 1", "bound = 0"))
        out = tmp_path / "report.json"
        assert main([suite, "--spec", str(spec_path), "--json", str(out)]) == EXIT_PASS
        entry = json.loads(out.read_text())["suites"]["loop"]
        assert entry["status"] == PASS and entry["associative"] is False
        assert "criterion-disagreement" not in json.dumps(entry)
        assert "no concrete witness" in entry["associativity_detail"]

    def test_paper_examples_entry(self, capsys):
        assert main(["paper-examples"]) == EXIT_PASS
        assert "overall: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,message", [
        (["loop", "--bound", "-1"], "bad --bound: -1 is negative"),
        (["subdirect", "--bound", "-2"], "bad --bound: -2 is negative"),
        (["axioms", "--samples", "-5"], "bad --samples: -5 is negative"),
    ])
    def test_negative_override_is_usage(self, tmp_path, capsys, argv, message):
        spec_path = tmp_path / "ex.kite"
        spec_path.write_text(EX82_SPEC)
        assert main(argv + ["--spec", str(spec_path)]) == EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["bound = x", "bound = -1", "samples = -5"])
    def test_bad_spec_number_is_usage(self, tmp_path, capsys, field):
        spec_path = tmp_path / "bad.kite"
        spec_path.write_text(EX82_SPEC + field + "\n")
        assert main(["axioms", "--spec", str(spec_path)]) == EXIT_USAGE
        assert "line 9" in capsys.readouterr().err

    def test_bad_env_seed_is_usage(self, tmp_path, capsys, monkeypatch):
        spec_path = tmp_path / "ex.kite"
        spec_path.write_text(EX82_SPEC)
        monkeypatch.setenv("KITEALG_SEED", "abc")
        assert main(["axioms", "--spec", str(spec_path)]) == EXIT_USAGE
        assert "bad KITEALG_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("suite,text,message", [
        ("components", b"n = 4\nlambda = (1 2\nrho = [2,3,1,4]\n",
         "unterminated cycle in '(1 2' (line 2)"),
        ("decomposition", b"n = 4\nlambda = [1,3,2,4]\nrho = [2,3,1,4]\nblocks = {1,2\n",
         "unterminated block in '{1,2' (line 4)"),
        ("subdirect", b"n = 0\nlambda = []\nrho = []\n", "bad n: 0 is not positive (line 1)"),
        ("all", b"n = -1\nlambda = []\nrho = []\n", "bad n: -1 is not positive (line 1)"),
        ("axioms", EX82_SPEC.encode() + b"\xff\xfe", "error: 'utf-8' codec can't decode"),
    ], ids=["unterminated-cycle", "unterminated-block", "n-zero", "n-negative", "not-utf8"])
    def test_malformed_spec_is_usage(self, tmp_path, capsys, suite, text, message):
        spec_path = tmp_path / "bad.kite"
        spec_path.write_bytes(text)
        assert main([suite, "--spec", str(spec_path)]) == EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("group", [
        "lex(" * 1_200 + "Z",
        "lex(" * 5_000 + "Z",
        "prod(" * 5_000 + "Z" + ",Z)" * 5_000,
        # parses within the recursion limit, but overflows it in the box suites
        "lex(" * 700 + "Z" + ",Z)" * 700,
    ], ids=["lex-1200-open", "lex-5000-open", "prod-5000-closed", "lex-700-closed"])
    def test_deeply_nested_group_is_usage(self, tmp_path, capsys, group):
        spec_path = tmp_path / "deep.kite"
        spec_path.write_text(f"n = 2\ngroup = {group}\nlambda = [1,2]\nrho = [2,1]\n")
        assert main(["components", "--spec", str(spec_path)]) == EXIT_USAGE
        assert ("error: bad group descriptor: group descriptor nested too deeply (line 2)"
                in capsys.readouterr().err)

    def test_deepest_accepted_group_runs_the_axioms(self, tmp_path):
        # a product's order tests recurse once per level, so every descriptor
        # the parser accepts must still be evaluable by the box suites
        group = "lex(" * MAX_NESTING + "Z" + ",Z)" * MAX_NESTING
        spec_path = tmp_path / "deep.kite"
        spec_path.write_text(f"n = 1\ngroup = {group}\nlambda = [1]\nrho = [1]\nbound = 0\n")
        assert main(["axioms", "--spec", str(spec_path)]) == EXIT_PASS

    def test_spec_error_is_usage(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.kite"
        spec_path.write_text("n=4\nlambda=[1,1,2,3]\nrho=[1,2,3,4]\n")
        assert main(["components", "--spec", str(spec_path)]) == EXIT_USAGE
        assert "invalid-permutation" in capsys.readouterr().err


def test_embed_samples_a_large_box(tmp_path, capsys):
    # 13,122 elements over Z^2 at bound 2: 172M pairs, so embed draws 40,000
    spec_path = tmp_path / "ex82z2.kite"
    spec_path.write_text("group = Z^2\nn = 4\nlambda = [1,3,2,4]\nrho = [2,3,1,4]\n")
    out = tmp_path / "report.json"
    assert main(["embed", "--spec", str(spec_path), "--json", str(out)]) == EXIT_PASS
    embedding = json.loads(out.read_text())["suites"]["embed"]["embedding"]
    assert embedding["checked"] == 13_122 + 40_000
    assert embedding["detail"] == "40000 sampled pairs"


def test_reports_identical_across_hash_seeds(tmp_path):
    spec_path = tmp_path / "ex82.kite"
    spec_path.write_text(EX82_SPEC)
    src = os.path.dirname(os.path.dirname(kitealg.__file__))
    outputs = []
    for hash_seed in ("0", "1", "12345"):
        out = tmp_path / f"report-{hash_seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "kitealg.cli", "all", "--spec",
                        str(spec_path), "--json", str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


# sha256 of `kitealg all --json` at bound 1 (the file the CLI writes), so
# that a change meant to keep reports byte-identical is checked here.  Over
# Z the sample is the whole 32-element box; over Z^2 samples = 100 keeps the
# four reports to about 40 s while still drawing the axiom triples.
REPORT_SHA256 = {
    ("ex8.2", "Z", 500): "b494bf5b9ba83c4ea76391907e2cc0d865a309e88a3766f8afed9998e56d957f",
    ("ex8.4", "Z", 500): "df7b8988c60697b899dfa5c3fa307a72d3703d7f6e0647fc78be76f545d56690",
    ("ex8.5", "Z", 500): "e1dd97b2531ba22962ddce8327b579a44d533988b5b2ab0f11bcfbcf7c363afd",
    ("ex3.8", "Z", 500): "12d6075f593addc9336b55ed8652baa8365b94fe195fb6c7482867d3f8eb06cd",
    ("ex8.2", "Z^2", 100): "a7f1eb5ce090eaf1596754e04fe2ede172fca65b7561db06d29d0f6deec7ce59",
    ("ex8.4", "Z^2", 100): "0610e51cafc82b19bcc43c4cdc00991e018788ef8a0af8223b204497a4ce8c59",
    ("ex8.5", "Z^2", 100): "23e921cc52171b50d3e42914f1fbb19a3365c02b7197f56963a42c636e65612a",
    ("ex3.8", "Z^2", 100): "6134be4d8205a386cc577c2b1e0bdabcdc6d3a06562bc5a8e83d7e63522c792a",
}


@pytest.mark.parametrize("name, group, samples", sorted(REPORT_SHA256))
def test_paper_system_reports_are_pinned(name, group, samples):
    lam, rho = PAPER_SYSTEMS[name]
    spec = parse_spec(f"group = {group}\nn = 4\nlambda = {lam}\nrho = {rho}\n"
                      f"bound = 1\nsamples = {samples}\n")
    text = json.dumps(run_suite(spec, "all"), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[name, group, samples]
