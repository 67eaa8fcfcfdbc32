"""Benchmark of kitealg: whole suites on seeded index systems.

Run from the root of the repository:

    python3 perfbench/run.py --workload census-z --seed 1 --seconds 40 --trace 0

One job is one suite on one system, run through `cli.run_suite` on a spec
parsed by `cli.parse_spec`; its JSON report is checked against the reference
computations in `oracles.py`.  A round runs every job of the workload once,
in a fresh single-threaded interpreter (`worker.py`), so nothing one round
computes can serve the next.  Rounds run one after another until the next
would end after --seconds, and at least one runs.  Set-up is also measured
in SETUP_PROBES interpreters that run no job.

With --trace 1 the run makes one untraced round and one round under the
wrappers of `tracing.py`, and reports the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Each run's jobs, and its spans when traced, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9
ROUND_TIMEOUT_S = 150


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_round(spec_texts, job_list, trace=False) -> dict:
    """One round in a fresh interpreter; adds its set-up time, interpreter
    start to first job, as `setup_s`."""
    task = json.dumps({"specs": spec_texts, "jobs": job_list, "trace": trace})
    t0 = perf_counter()
    done = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")], input=task,
                          text=True, capture_output=True, timeout=ROUND_TIMEOUT_S, check=True)
    result = json.loads(done.stdout)
    result["setup_s"] = result["ready"] - t0
    return result


def verify(records, expected) -> list[str]:
    """Problems of the jobs that did not raise; adds `checked` to each."""
    problems = []
    for r in records:
        if r["error"] is not None:
            continue
        entry = json.loads(r["report"])["suites"][r["suite"]]
        r["checked"] = entry["checked"]
        problems += expected[r["system"]].problems(r["suite"], entry)
    return problems


def round_wall(records) -> float:
    """First job's start to last job's end."""
    return records[-1]["end"] - records[0]["start"]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(rounds, setup_times) -> dict:
    # wall_s is the mean round, all the run's job time over its rounds: the
    # machine's speed drifts over tens of seconds, and a mean of rounds
    # follows that drift more steadily than their median does
    walls = [round_wall(r["records"]) for r in rounds]
    checked = sum(j.get("checked", 0) for r in rounds for j in r["records"])
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "wall_s": metric(statistics.mean(walls), "s"),
        "cases_per_s": metric(checked / sum(walls), "1/s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_kb"] for r in rounds) / 1024, "MB"),
    }


def job_percentiles(rounds) -> dict:
    """Median and 90th percentile of time to verdict per job, each job timed
    as its median over the rounds, which all run the same jobs in the same
    order.  Written to the run's file, not gated: see README.md."""
    job_s = [statistics.median(r["records"][i]["end"] - r["records"][i]["start"]
                               for r in rounds)
             for i in range(len(rounds[0]["records"]))]
    return {"jobs": len(job_s), "p50_s": statistics.median(job_s),
            "p90_s": statistics.quantiles(job_s, n=10)[-1]}


def per_layer(traced, untraced) -> dict:
    dump = traced["trace"]
    calls, seconds = dump["calls"], dump["seconds"]
    out = {"cli.parse_spec.s": metric(tracing.span_seconds(dump, "cli.parse_spec"), "s")}
    for suite in workloads.SUITES:
        out[f"cli.suite.{suite}.s"] = metric(
            tracing.span_seconds(dump, f"cli.suite.{suite}"), "s")
    for name in ("pogroup.op", "pogroup.leq", "pogroup.inv", "pogroup.enumerate_box",
                 "indexsys.perm_inverse", "indexsys.check_component_laws",
                 "kite.add", "kite.diff", "kite.leq", "kite.find_kite_refinement",
                 "poloop.mul", "poloop.gamma_add", "subdirect.project_component",
                 "verdict.merge"):
        out[f"{name}.calls"] = metric(calls.get(name, 0), "count")
    for name in ("kite.add", "kite.find_kite_refinement", "poloop.mul"):
        out[f"{name}.s"] = metric(seconds.get(name, 0.0), "s")
    out["kite.add.defined_ratio"] = metric(dump["add_defined"] / calls["kite.add"], "ratio")
    out["kite.rdp.quadruples"] = metric(calls.get("kite.rdp.quadruples", 0), "count")
    out["verdict.checked"] = metric(sum(j.get("checked", 0) for j in traced["records"]),
                                    "count")
    for name in tracing.CHECKERS:
        out[f"{name}.self_s"] = metric(tracing.self_seconds(dump, name), "s")
    out["trace.overhead_ratio"] = metric(
        round_wall(traced["records"]) / round_wall(untraced["records"]), "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join("src", "kitealg")):
        print("error: no src/kitealg here; run from the root of the repository",
              file=sys.stderr)
        return 2

    systems = workloads.WORKLOADS[args.workload](args.seed)
    spec_texts = [s.spec_text() for s in systems]
    job_list = workloads.jobs(systems, args.seed)
    expected = [checks.Expected(s) for s in systems]

    rounds = []
    if args.trace:
        rounds.append(run_round(spec_texts, job_list))
        rounds.append(run_round(spec_texts, job_list, trace=True))
        setup_times = []
    else:
        setup_times = [run_round(spec_texts, [])["setup_s"] for _ in range(SETUP_PROBES)]
        start = perf_counter()
        while True:
            t0 = perf_counter()
            rounds.append(run_round(spec_texts, job_list))
            now = perf_counter()
            if now - start + (now - t0) > args.seconds:
                break
        setup_times += [r["setup_s"] for r in rounds]

    problems = [p for r in rounds for p in verify(r["records"], expected)]
    errors = [j for r in rounds for j in r["records"] if j["error"] is not None]
    for j in errors[:5]:
        print(f"job raised: {systems[j['system']].name}/{j['suite']}: {j['error']}",
              file=sys.stderr)
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    metrics = per_layer(rounds[1], rounds[0]) if args.trace else end_to_end(rounds, setup_times)
    result = {"correct": not problems,
              "attempted": sum(len(r["records"]) for r in rounds),
              "failed": len(errors), "metrics": metrics}
    write_out(args, spec_texts, systems, job_list, rounds, setup_times, result)
    print(json.dumps(result))
    return 0


def write_out(args, spec_texts, systems, job_list, rounds, setup_times, result):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    jobs = [{"round": n, "system": systems[j["system"]].name, "suite": j["suite"],
             "seconds": j["end"] - j["start"], "checked": j.get("checked"),
             "error": j["error"]} for n, r in enumerate(rounds) for j in r["records"]]
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
                   "setup_s": setup_times, "result": result,
                   "job_s": job_percentiles(rounds[:1] if args.trace else rounds),
                   "repeat_share": workloads.repeat_share(systems, job_list),
                   "specs": spec_texts, "jobs": jobs}, fh, indent=1)
    if args.trace:
        with open(stem + ".trace.json", "w", encoding="utf-8") as fh:
            json.dump(rounds[1]["trace"], fh)


if __name__ == "__main__":
    raise SystemExit(main())
