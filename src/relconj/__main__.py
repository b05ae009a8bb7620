"""Process entry point: ``python -m relconj`` and the ``relconj`` console
script both run :func:`main`.

It runs ``cli.main()`` with the collector as it is, then freezes the heap
before the interpreter exits: what is alive then is never freed before the
process ends, so the exit-time collection of the interpreter's modules and
objects would only walk it once more.  Atexit handlers, stream flushes,
module teardown and the exit code are unchanged.  ``cli.main(argv)`` itself
never freezes, since tests and callers run it inside their own process.
"""

import gc
import sys

from . import cli


def main() -> int:
    code = cli.main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
