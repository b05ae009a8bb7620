"""relconj benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Runs each workload in a fresh process (worker.py), prints every metric by
name with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are BENCHMARK.json's end-to-end metrics; with --trace 1 its per-layer ones.
Standard library only; run from anywhere inside a checkout of the repo.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("short-batch", "long-words", "cli")
NEEDED = ("BENCHMARK.json", "src/relconj/__init__.py",
          "demos/presentations/zxz2.txt", "demos/presentations/free2.txt",
          "demos/presentations/zc2.txt")
TIMEOUT_S = 175


class BenchError(Exception):
    pass


def run_workload(name, seed, seconds, trace, spec):
    spawned = time.time()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), name, str(seed),
         str(seconds), str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("%s did not finish in %d s" % (name, TIMEOUT_S))
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s worker exited with %d" % (name, proc.returncode))
    res = json.loads(lines[-1])
    values = res["layers"] if trace else res["values"]
    # in-process workloads: the worker's own start-up stands in for the
    # per-query process start-up the cli workload measures
    if trace and "process.startup_ms" not in values:
        values["process.startup_ms"] = (res["ready_wall"] - spawned) * 1e3
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise BenchError("%s did not report %s" % (name, m["name"]))
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print("== %s seed=%d seconds=%d trace=%d" % (name, seed, seconds, trace))
    for key, m in metrics.items():
        print("  %-48s %14.6g %s" % (key, m["value"], m["unit"]))
    for key, value in res["extras"].items():
        print("  %-48s %s" % (key, value))
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in NEEDED if not (ROOT / p).is_file()]
    if missing:
        print("perfbench: not a relconj checkout, missing %s"
              % ", ".join(missing), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace, spec)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, k): m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
