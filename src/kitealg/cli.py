"""Batch front-end: parse kite spec files, run named verification suites,
emit human-readable and machine-readable reports, and reproduce the built-in
example systems.

Reports are deterministic for a fixed (spec, suite, seed); timings appear only
in the human-readable output so that JSON reports are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys as _sys
import time
from dataclasses import dataclass, replace

from kitealg import indexsys as ixs
from kitealg import kite as kt
from kitealg import poloop as pl
from kitealg import subdirect as sd
from kitealg.indexsys import COMPOSITION_CONVENTION, IndexSystem
from kitealg.pogroup import parse_group
from kitealg.verdict import FAIL, INCONCLUSIVE, PASS, Verdict, merge

SUITES = ("components", "dual-components", "decomposition", "axioms",
          "commutativity", "rdp", "loop", "embed", "subdirect", "all")

EXIT_PASS, EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_USAGE = 0, 1, 2, 3


class SpecError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


@dataclass(frozen=True)
class KiteSpec:
    group_desc: str
    n: int
    lam: tuple[int, ...]  # 0-based images
    rho: tuple[int, ...]
    blocks: tuple | None = None
    bound: int = 2
    samples: int = 500
    seed: int = 0

    @property
    def system(self) -> IndexSystem:
        return IndexSystem(self.n, self.lam, self.rho)

    def to_json(self) -> dict:
        lam1, rho1 = self.system.one_based()
        return {
            "group": self.group_desc,
            "n": self.n,
            "lambda": lam1,
            "rho": rho1,
            "blocks": None if self.blocks is None else
                      [sorted(i + 1 for i in b) for b in self.blocks],
            "bound": self.bound,
            "samples": self.samples,
            "seed": self.seed,
        }


def parse_permutation(text: str, n: int) -> tuple[int, ...]:
    """Accept a one-line image list [1,3,2,4] or cycle notation (1 2 3)(4)."""
    s = text.strip()
    if s.startswith("["):
        if not s.endswith("]"):
            raise SpecError("unterminated image list")
        try:
            images = [int(v) for v in s[1:-1].replace(",", " ").split()]
        except ValueError:
            raise SpecError(f"bad image list {text!r}")
        if len(images) != n or sorted(images) != list(range(1, n + 1)):
            raise SpecError(f"invalid-permutation: {text!r} is not a permutation of 1..{n}")
        return tuple(v - 1 for v in images)
    if s.startswith("("):
        images = list(range(n))
        depth_content, i = [], 0
        while i < len(s):
            if s[i] != "(":
                raise SpecError(f"bad cycle notation {text!r}")
            j = s.find(")", i)
            if j < 0:
                raise SpecError(f"unterminated cycle in {text!r}")
            try:
                cycle = [int(v) for v in s[i + 1:j].replace(",", " ").split()]
            except ValueError:
                raise SpecError(f"bad cycle {s[i:j + 1]!r}")
            for k, v in enumerate(cycle):
                if not 1 <= v <= n:
                    raise SpecError(f"cycle entry {v} out of range 1..{n}")
                images[v - 1] = cycle[(k + 1) % len(cycle)] - 1
            depth_content.extend(cycle)
            i = j + 1
            while i < len(s) and s[i].isspace():
                i += 1
        if len(set(depth_content)) != len(depth_content):
            raise SpecError(f"invalid-permutation: repeated index in {text!r}")
        if sorted(images) != list(range(n)):
            raise SpecError(f"invalid-permutation: {text!r}")
        return tuple(images)
    raise SpecError(f"unrecognized permutation syntax: {text!r}")


def parse_blocks(text: str, n: int):
    """Blocks like {1,4},{2,3}; must partition 1..n."""
    s = text.strip()
    blocks, i = [], 0
    while i < len(s):
        if s[i] != "{":
            raise SpecError(f"expected '{{' in blocks at {s[i:]!r}")
        j = s.find("}", i)
        if j < 0:
            raise SpecError(f"unterminated block in {text!r}")
        try:
            block = frozenset(int(v) - 1 for v in s[i + 1:j].replace(",", " ").split())
        except ValueError:
            raise SpecError(f"bad block {s[i:j + 1]!r}")
        blocks.append(block)
        i = j + 1
        if i < len(s) and s[i] == ",":
            i += 1
    try:
        return ixs.normalize_partition(blocks, n)
    except ValueError as exc:
        raise SpecError(f"invalid-partition: {exc}")


def parse_spec(text: str) -> KiteSpec:
    fields: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for chunk in _split_assignments(line):
            if "=" not in chunk:
                raise SpecError(f"expected key=value, got {chunk!r}", lineno)
            key, value = chunk.split("=", 1)
            fields[key.strip()] = (value.strip(), lineno)

    def take(key, default=None):
        return fields.pop(key, (default, None))

    group_desc, group_line = take("group", "Z")
    n_text, n_line = take("n")
    if n_text is None:
        raise SpecError("missing required field: n")
    n = parse_int("n", n_text, n_line)
    if n < 1:
        raise SpecError(f"bad n: {n} is not positive", n_line)
    lam_text, lam_line = take("lambda")
    rho_text, rho_line = take("rho")
    if lam_text is None or rho_text is None:
        raise SpecError("missing required fields: lambda and rho")

    def at_line(line, parse, text):
        try:
            return parse(text, n)
        except SpecError as exc:
            raise SpecError(str(exc), line)
    lam = at_line(lam_line, parse_permutation, lam_text)
    rho = at_line(rho_line, parse_permutation, rho_text)
    blocks_text, blocks_line = take("blocks")
    blocks = at_line(blocks_line, parse_blocks, blocks_text) if blocks_text else None
    bound = parse_count("bound", *take("bound", "2"))
    samples = parse_count("samples", *take("samples", "500"))
    seed = parse_int("seed", *take("seed", "0"))
    try:
        parse_group(group_desc)
    except ValueError as exc:
        raise SpecError(f"bad group descriptor: {exc}", group_line)
    if fields:
        raise SpecError(f"unknown fields: {sorted(fields)}",
                        min(line for _, line in fields.values()))
    return KiteSpec(group_desc, n, lam, rho, blocks, bound, samples, seed)


def parse_int(name: str, text, line=None) -> int:
    try:
        return int(text)
    except ValueError:
        raise SpecError(f"bad {name}: {text!r}", line)


def parse_count(name: str, text, line=None) -> int:
    """A non-negative integer field (bound, samples)."""
    value = parse_int(name, text, line)
    if value < 0:
        raise SpecError(f"bad {name}: {value} is negative", line)
    return value


def _split_assignments(line: str) -> list[str]:
    """Split 'a=1 b=[2,3] c=(1 2)' on whitespace that precedes 'key='."""
    starts = [m.start() for m in re.finditer(r"(?:^|\s)[A-Za-z_][A-Za-z_0-9]*\s*=", line)]
    if not starts:
        return [line]
    return [line[s:end].strip() for s, end in zip(starts, starts[1:] + [len(line)])]


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def bounded_sample(elements: list, limit: int, seed: int, keep=()) -> list:
    """Deterministic subsample when the carrier is too large to exhaust."""
    if len(elements) <= limit:
        return list(elements)
    rng = random.Random(seed)
    picked = rng.sample(elements, limit)
    for x in keep:
        if x not in picked:
            picked.append(x)
    return picked


def _entry(verdict: Verdict, **extra) -> dict:
    data = verdict.to_json()
    data.update(extra)
    return data


def _partition_1based(partition) -> list[list[int]]:
    return [sorted(i + 1 for i in b) for b in partition]


def run_suite(spec: KiteSpec, suite: str, strict: bool = False) -> dict:
    """Execute one named suite (or all); returns the machine-readable report."""
    if suite not in SUITES:
        raise SpecError(f"unknown-suite: {suite!r}; expected one of {SUITES}")
    names = [s for s in SUITES if s != "all"] if suite == "all" else [suite]
    G = parse_group(spec.group_desc)
    sys_ = spec.system
    results = {}
    for name in names:
        results[name] = _SUITE_FUNCS[name](spec, G, sys_)
    statuses = {r["status"] for r in results.values()}
    overall = next((s for s in (FAIL, INCONCLUSIVE) if s in statuses), PASS)
    return {
        "convention": COMPOSITION_CONVENTION,
        "spec": spec.to_json(),
        "suite": suite,
        "strict": strict,
        "suites": results,
        "status": overall,
    }


def exit_code(report: dict, strict: bool = False) -> int:
    if report["status"] == FAIL:
        return EXIT_FAIL
    if report["status"] == INCONCLUSIVE:
        return EXIT_FAIL if strict else EXIT_INCONCLUSIVE
    return EXIT_PASS


def _suite_components(spec, G, sys_):
    return _entry(ixs.check_component_laws(sys_),
                  components=_partition_1based(ixs.components(sys_)),
                  sigma=[i + 1 for i in ixs.derived_sigma(sys_)])


def _suite_dual_components(spec, G, sys_):
    return _entry(ixs.check_component_laws(sys_),
                  dual_components=_partition_1based(ixs.dual_components(sys_)),
                  tau=[i + 1 for i in ixs.derived_tau(sys_)])


def _suite_decomposition(spec, G, sys_):
    blocks = spec.blocks
    note = ""
    if blocks is None:
        blocks = (frozenset(range(sys_.n)),)
        note = "no blocks in spec; checked the one-block decomposition"
    verdict = ixs.validate_decomposition(sys_, blocks)
    extra = {"blocks": _partition_1based(blocks), "note": note}
    if verdict.ok:
        mixed = ixs.check_mixed_commutation(sys_, blocks, rng=3)
        extra["mixed_commutation"] = mixed.to_json()
        if not mixed.ok:
            verdict = mixed
    return _entry(verdict, **extra)


def _kite_sample(spec, A):
    """The kite sample, keeping 0 and 1, drawn by position from the box."""
    return bounded_sample(A.enumerate_box(spec.bound), max(spec.samples, 2), spec.seed,
                          keep=(A.zero, A.one))


def _loop_sample(spec, W, bound):
    """The loop sample, keeping neutral and u, drawn by position from the box."""
    return bounded_sample(W.enumerate_box(bound), spec.samples, spec.seed,
                          keep=(W.neutral, W.unit))


def _suite_axioms(spec, G, sys_):
    A = kt.KiteAlgebra(G, sys_)
    sample = _kite_sample(spec, A)
    verdict = kt.check_pea_axioms(A, sample, seed=spec.seed)
    return _entry(verdict, sample_size=len(sample))


def _suite_commutativity(spec, G, sys_):
    A = kt.KiteAlgebra(G, sys_)
    sample = _kite_sample(spec, A)
    result = kt.check_commutativity(A, sample)
    # a witness is an observation about the algebra, not a suite failure
    if result.failed:
        return _entry(Verdict.passed(result.checked,
                                     detail=f"non-commutative: {result.detail}"),
                      commutative=False,
                      witness=[repr(w) for w in result.witnesses])
    return _entry(Verdict.passed(result.checked, detail="commutative on sample"),
                  commutative=True)


def _suite_rdp(spec, G, sys_):
    A = kt.KiteAlgebra(G, sys_)
    sample = _kite_sample(spec, A)
    verdict = kt.check_kite_rdp(A, "RDP2", sample, seed=spec.seed)
    return _entry(verdict, variant="RDP2", sample_size=len(sample))


def _suite_loop(spec, G, sys_):
    W = pl.PoLoop(G, sys_)
    bound = min(spec.bound, 2)
    assoc = pl.is_associative(W, bound=bound)
    sample = _loop_sample(spec, W, bound)
    inv_failures = [
        p for p, (right, left) in zip(sample, map(W.inverses, sample))
        if W.mul(p, right) != W.neutral or W.mul(left, p) != W.neutral
    ]
    unit = pl.strong_unit_check(W, sample, nmax=spec.bound + 2)
    readings = pl.inverse_formula_readings(W, sample[0])
    # non-associativity with a witness is an observation; only a disagreement
    # between the two associativity criteria (or a broken law) is a failure
    checked = assoc.checked + len(sample) + unit.checked
    if pl.criteria_disagree(assoc) or inv_failures or not unit.ok:
        witness = tuple(inv_failures[:1]) or assoc.witnesses or unit.witnesses
        status = Verdict("FAIL", checked=checked,
                         witnesses=witness, detail=assoc.detail or unit.detail)
    else:
        status = Verdict.passed(checked, detail=assoc.detail)
    return _entry(
        status,
        associative=W.twists_commute(),
        associativity_detail=assoc.detail,
        witness=[repr(w) for w in assoc.witnesses],
        strong_unit=unit.to_json(),
        inverse_formula_readings=readings,
    )


def _suite_embed(spec, G, sys_):
    A = kt.KiteAlgebra(G, sys_)
    bound = min(spec.bound, 2)
    verdict = pl.embed_kite(A, bound=bound)
    gamma = pl.GammaInterval(pl.PoLoop(G, sys_))
    comp = gamma.check_complements(bound)
    return _entry(merge([verdict, comp]), embedding=verdict.to_json(),
                  interval_complements=comp.to_json())


def _suite_subdirect(spec, G, sys_):
    A = kt.KiteAlgebra(G, sys_)
    bound = min(spec.bound, 2)
    report = sd.subdirect_embedding_check(A, bound=bound)
    return _entry(report.verdict, report=report.to_json(),
                  kernel_check=report.kernel_check.to_json())


_SUITE_FUNCS = {
    "components": _suite_components,
    "dual-components": _suite_dual_components,
    "decomposition": _suite_decomposition,
    "axioms": _suite_axioms,
    "commutativity": _suite_commutativity,
    "rdp": _suite_rdp,
    "loop": _suite_loop,
    "embed": _suite_embed,
    "subdirect": _suite_subdirect,
}


# ---------------------------------------------------------------------------
# Built-in example systems
# ---------------------------------------------------------------------------

# (name, lambda images, rho images), all 1-based, n = 4
PAPER_SYSTEMS = {
    "ex8.2": ([1, 3, 2, 4], [2, 3, 1, 4]),
    "ex8.4": ([1, 3, 2, 4], [2, 1, 4, 3]),
    "ex8.5": ([2, 3, 1, 4], [1, 3, 4, 2]),
    "ex3.8": ([2, 1, 4, 3], [4, 3, 2, 1]),
}


def _expect(name, condition, got, results):
    results.append({
        "check": name,
        "status": PASS if condition else FAIL,
        "got": got,
    })
    return condition


def paper_examples() -> dict:
    """Run the four built-in example systems against their expected verdicts.

    Any mismatch is a release blocker and fails the report.
    """
    results: list[dict] = []

    def system(key):
        lam, rho = PAPER_SYSTEMS[key]
        return IndexSystem.from_one_based(lam, rho)

    # ex8.2: non-commuting twists, non-associative loop, {1,2,3}/{4} decomposes
    s = system("ex8.2")
    W = pl.PoLoop(parse_group("Z"), s)
    _expect("ex8.2 twists do not commute", not W.twists_commute(),
            W.twists_commute(), results)
    assoc = pl.is_associative(W, bound=1)
    _expect("ex8.2 loop non-associative with witness",
            assoc.failed and not pl.criteria_disagree(assoc),
            assoc.detail, results)
    comps = ixs.components(s)
    _expect("ex8.2 components {1,2},{3},{4}",
            _partition_1based(comps) == [[1, 2], [3], [4]],
            _partition_1based(comps), results)
    dec = ixs.validate_decomposition(s, [{0, 1, 2}, {3}])
    _expect("ex8.2 decomposition {1,2,3},{4} valid", dec.ok, dec.status, results)

    # ex8.4: {1,4},{2,3} satisfies the block-decomposition hypotheses
    s = system("ex8.4")
    dec = ixs.validate_decomposition(s, [{0, 3}, {1, 2}])
    _expect("ex8.4 decomposition {1,4},{2,3} valid", dec.ok, dec.status, results)

    # ex8.5: {1,4},{2,3} fails at the block-image condition; {I} works
    s = system("ex8.5")
    dec = ixs.validate_decomposition(s, [{0, 3}, {1, 2}])
    lam_image = sorted(i + 1 for i in ixs.perm_image(s.lam, frozenset({0, 3})))
    ok = _expect("ex8.5 decomposition {1,4},{2,3} fails", dec.failed, dec.status, results)
    if ok:
        _expect("ex8.5 failure is lambda({1,4}) = {2,4}", lam_image == [2, 4],
                lam_image, results)
    whole = ixs.validate_decomposition(s, [{0, 1, 2, 3}])
    _expect("ex8.5 decomposition {I} valid", whole.ok, whole.status, results)

    # ex3.8: commuting twists of order 2, rho not a power of lambda
    s = system("ex3.8")
    lam_rho = ixs.perm_compose(s.lam, s.rho)
    rho_lam = ixs.perm_compose(s.rho, s.lam)
    _expect("ex3.8 twists commute", lam_rho == rho_lam, list(lam_rho), results)
    ident = ixs.perm_identity(4)
    _expect("ex3.8 lambda^2 = id = rho^2",
            ixs.perm_power(s.lam, 2) == ident and ixs.perm_power(s.rho, 2) == ident,
            None, results)
    powers = {ixs.perm_power(s.lam, m) for m in range(ixs.perm_order(s.lam))}
    _expect("ex3.8 rho is not a power of lambda", s.rho not in powers,
            sorted(list(p) for p in powers), results)
    W = pl.PoLoop(parse_group("Z"), s)
    assoc = pl.is_associative(W, bound=1)
    _expect("ex3.8 loop associative", assoc.ok, assoc.detail, results)

    status = PASS if all(r["status"] == PASS for r in results) else FAIL
    return {
        "convention": COMPOSITION_CONVENTION,
        "suite": "paper-examples",
        "results": results,
        "status": status,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def render_human(report: dict, elapsed: float) -> str:
    lines = [f"composition convention: {report['convention']}"]
    if "spec" in report:
        s = report["spec"]
        lines.append(f"system: group={s['group']} n={s['n']} "
                     f"lambda={s['lambda']} rho={s['rho']} "
                     f"bound={s['bound']} seed={s['seed']}")
    if "suites" in report:
        for name, entry in report["suites"].items():
            lines.append(f"  [{entry['status']:>12}] {name}: {entry.get('detail', '')}")
            for w in entry.get("witnesses", []):
                lines.append(f"        witness: {w}")
    if "results" in report:
        for r in report["results"]:
            lines.append(f"  [{r['status']:>4}] {r['check']} (got: {r['got']})")
    lines.append(f"overall: {report['status']}  ({elapsed:.2f}s)")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kitealg",
        description="Construct and verify kite partial algebras over po-groups.",
    )
    parser.add_argument("suite", choices=SUITES + ("paper-examples",))
    parser.add_argument("--spec", help="path to a kite spec file")
    parser.add_argument("--bound", type=int, help="override enumeration bound")
    parser.add_argument("--samples", type=int, help="override sample count")
    parser.add_argument("--seed", type=int, help="override random seed")
    parser.add_argument("--json", dest="json_path", help="write the JSON report here")
    parser.add_argument("--strict", action="store_true",
                        help="treat INCONCLUSIVE as failure")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0

    start = time.monotonic()
    try:
        if args.suite == "paper-examples":
            report = paper_examples()
        else:
            if not args.spec:
                print("error: --spec is required for named suites", file=_sys.stderr)
                return EXIT_USAGE
            with open(args.spec, encoding="utf-8") as fh:
                spec = parse_spec(fh.read())
            env_seed = os.environ.get("KITEALG_SEED")
            overrides = {}
            if args.bound is not None:
                overrides["bound"] = parse_count("--bound", args.bound)
            if args.samples is not None:
                overrides["samples"] = parse_count("--samples", args.samples)
            if args.seed is not None:
                overrides["seed"] = args.seed
            elif env_seed is not None:
                overrides["seed"] = parse_int("KITEALG_SEED", env_seed)
            spec = replace(spec, **overrides)
            report = run_suite(spec, args.suite, strict=args.strict)
    except (SpecError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE

    elapsed = time.monotonic() - start
    print(render_human(report, elapsed))
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return exit_code(report, strict=args.strict)


if __name__ == "__main__":
    raise SystemExit(main())
