"""Golden transcript of the command line: fixed commands on the demo
presentations, run in-process through cli.main, with their exit codes and
stdout compared byte for byte against tests/cli_golden.txt.

After a deliberate output change, rewrite the transcript with

    PYTHONPATH=src python tests/test_cli_golden.py --write

and record the change in CHANGES.md.  To compare without pytest (on any
interpreter the package supports), run

    PYTHONPATH=src python tests/test_cli_golden.py --check

which prints a unified diff against the transcript and exits 1 when there
is one.
"""

import contextlib
import difflib
import io
import shlex
import sys
from pathlib import Path

from relconj import cli

ROOT = Path(__file__).resolve().parents[1]
PRESENTATIONS = ROOT / "demos" / "presentations"
TRANSCRIPT = Path(__file__).with_name("cli_golden.txt")

# presentation arguments name files in demos/presentations
COMMANDS = [
    "wp free2.txt ab",
    "wp free2.txt abBA",
    "wp zxz2.txt xyXY",
    "wp zxz2.txt axxyAXYyx",
    "wp zc2.txt tt",
    "wp zc2.txt tatA",
    "wp c5.txt aaaaa",
    "wp c5.txt aaAA",
    "wp zxz2.txt yx",
    "wp zxz2.txt axyXYA",
    "wp zc2.txt aTA",
    "classify free2.txt abaBA",
    "classify zxz2.txt axA",
    "classify zxz2.txt ayxAxy",
    "classify zxz2.txt ''",
    "classify zc2.txt atAt",
    "classify c5.txt a",
    "conj free2.txt ab ba --search",
    "conj free2.txt ab aB",
    "conj zxz2.txt x y",
    "conj zxz2.txt x y --search",
    "conj zxz2.txt axA x --search",
    "conj zxz2.txt axyA yx",
    "conj zxz2.txt a x",
    "conj zxz2.txt axxyAy xxyyA --search",
    "conj zxz2.txt axxyAy yaxxyA --search",
    "conj zc2.txt atA t --search",
    "conj zc2.txt at ta",
    "crosscheck free2.txt 2",
    "crosscheck zxz2.txt 2",
    "crosscheck zc2.txt 2",
    "precompute free2.txt",
    "precompute zxz2.txt",
    "precompute zc2.txt",
    "precompute c5.txt",
    "wp zf2.txt xyXY",
    "wp zf2.txt axyYxA",
    "wp zf2.txt yxXyYY",
    "classify zf2.txt axyxA",
    "classify zf2.txt xyaYX",
    "conj zf2.txt xyy yxy --search",
    "conj zf2.txt xxyy xyxy",
    "conj zf2.txt axyA yx --search",
    "conj zf2.txt x a",
    "wp surface2.txt abABcdCD",
    "wp surface2.txt abABcdC",
    "wp surface2.txt ABcaaab",
    "classify surface2.txt ab",
    "wp c5c7.txt aaabbbbb",
    "wp c5c7.txt aaaaaBBBBBBB",
    "wp c5c7_twin.txt aaabbbbb",
    "wp c5c7_twin.txt aaaaaBBBBBBB",
    "classify c5c7_twin.txt aaabbbbb",
    "conj c5c7_twin.txt ab ba --search",
]


def _argv(command: str) -> list:
    return [str(PRESENTATIONS / arg) if arg.endswith(".txt") else arg
            for arg in shlex.split(command)]


def render() -> str:
    """Each command in plain form and with --json: a '$ command' line, the
    exit code, then stdout."""
    out = []
    for command in COMMANDS:
        for line in (command, "--json " + command):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(_argv(line))
            out.append("$ %s\nexit=%d\n%s" % (line, code, stdout.getvalue()))
    return "".join(out)


def test_cli_golden_transcript():
    want = TRANSCRIPT.read_text()
    got = render()
    for expected, actual in zip(want.split("$ ")[1:], got.split("$ ")[1:]):
        assert actual == expected
    assert got == want


def check() -> int:
    """0 when the rendered transcript equals the stored one; otherwise
    print the unified diff and return 1."""
    want = TRANSCRIPT.read_text()
    got = render()
    if got == want:
        print("%s: %d commands match" % (TRANSCRIPT.name, 2 * len(COMMANDS)))
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        want.splitlines(True), got.splitlines(True),
        str(TRANSCRIPT), "rendered"))
    return 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        TRANSCRIPT.write_text(render())
    elif sys.argv[1:] == ["--check"]:
        sys.exit(check())
    else:
        sys.exit("usage: test_cli_golden.py --write | --check")
