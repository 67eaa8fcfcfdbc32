"""One round of a workload in a fresh interpreter.

Reads a task on stdin as JSON: {"specs": [spec text, ...], "jobs": [[spec
index, suite], ...], "trace": bool}.  Imports kitealg from ./src, parses
every spec with `cli.parse_spec`, then runs each job through `cli.run_suite`
and serializes its JSON report.  Prints one JSON object: the monotonic clock
(shared by all processes) when set-up ended, each job's start, end, report
or exception, the process's peak resident memory and, when traced, the
tracer's dump.  With no jobs it only measures set-up.
"""

import json
import os
import resource
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.getcwd(), "src"))


def main():
    task = json.load(sys.stdin)
    tracer = None
    if task["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    from kitealg import cli

    specs = [cli.parse_spec(text) for text in task["specs"]]
    ready = perf_counter()
    records = []
    for k, suite in task["jobs"]:
        t0 = perf_counter()
        try:
            text, error = json.dumps(cli.run_suite(specs[k], suite), sort_keys=True), None
        except Exception as exc:  # a job that raises is a failed operation
            text, error = None, repr(exc)
        records.append({"system": k, "suite": suite, "start": t0, "end": perf_counter(),
                        "report": text, "error": error})
    json.dump({"ready": ready, "records": records,
               "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               "trace": tracer.dump() if tracer else None}, sys.stdout)


if __name__ == "__main__":
    main()
