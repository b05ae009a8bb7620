"""Run one relconj command line with the benchmark's spans installed.

    python3 perfbench/cli_child.py SNAPSHOT_FILE <relconj arguments...>

Behaves like ``python -m relconj <arguments...>`` (same stdout, stderr and
exit code) and, on the way out, writes the span aggregates and spans as JSON
to SNAPSHOT_FILE for the traced cli run to merge.
"""

import json
import sys

from tracer import Instrumentation, Tracer

from relconj import cli


def main():
    snapshot, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    Instrumentation(tracer).install()
    try:
        return cli.main(argv)
    finally:
        with open(snapshot, "w") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main())
