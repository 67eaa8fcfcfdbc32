"""Spec parsing, suite execution, report determinism, exit codes, and the
command-line entry point."""

import json

import pytest

from kitealg.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_PASS,
    EXIT_USAGE,
    KiteSpec,
    SpecError,
    bounded_sample,
    exit_code,
    main,
    paper_examples,
    parse_blocks,
    parse_permutation,
    parse_spec,
    run_suite,
)

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

    def test_decomposition_with_blocks(self):
        spec = parse_spec("n=4 lambda=[1,3,2,4] rho=[2,1,4,3] blocks={1,4},{2,3} bound=1")
        entry = run_suite(spec, "decomposition")["suites"]["decomposition"]
        assert entry["status"] == "PASS" and entry["blocks"] == [[1, 4], [2, 3]]

    def test_decomposition_failure_sets_status(self):
        spec = parse_spec("n=4 lambda=[2,3,1,4] rho=[1,3,4,2] blocks={1,4},{2,3} bound=1")
        report = run_suite(spec, "decomposition")
        assert report["status"] == "FAIL"
        assert exit_code(report) == EXIT_FAIL


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

    def test_spec_error_is_usage(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.kite"
        spec_path.write_text("n=4\nlambda=[1,1,2,3]\nrho=[1,2,3,4]\n")
        assert main(["components", "--spec", str(spec_path)]) == EXIT_USAGE
        assert "invalid-permutation" in capsys.readouterr().err
