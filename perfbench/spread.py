"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py WORKLOAD [--runs 10] [--seed0 1] [--seconds S]

Runs the benchmark once per seed (seed0, seed0+1, ...) and prints, for each
metric, the median, the distance between the first and third quartile as a
share of the median (statistics.quantiles(values, n=4)), and that spread
against a third of the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for i in range(args.runs):
        seed = args.seed0 + i
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        runs.append(res)
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, res["correct"], res["attempted"], res["failed"]),
            flush=True)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print("%-24s %14s %9s %9s" % ("metric", "median", "iqr/med", "bound/3"))
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        spread = stats.relative_iqr(values) if len(values) >= 2 else 0.0
        bound = bounds.get(name)
        print("%-24s %14.6g %9.4f %9s" % (
            name, stats.median(values), spread,
            "-" if bound is None else "%.4f" % (bound / 3)))
    print(json.dumps({name: [r["metrics"][name]["value"] for r in runs]
                      for name in runs[0]["metrics"]}))


if __name__ == "__main__":
    sys.exit(main())
