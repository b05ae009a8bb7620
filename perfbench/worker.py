"""One workload in a fresh interpreter, so module-level caches start cold.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE

Prints the workload's result as one JSON line.  run.py starts it and turns
that line into the benchmark's report.
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402 - needs the source tree on sys.path

READY = time.time()  # interpreter started and relconj imported


def main():
    name, seed, seconds, trace = sys.argv[1:5]
    # One client on one core: the speed readings, the queries and the cli
    # children all run on the same core, so a reading describes the core
    # the timed work ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = workloads.WORKLOADS[name](int(seed), int(seconds), trace == "1")
    result["ready_wall"] = READY
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
