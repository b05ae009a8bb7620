"""Smoke test of the demos: each runs to completion as a script; the
unchanged-word, cyclic shortening and relator step lines of the
word-problem demo and the ball size and delta lines of the ground-truth
demo stay as they are."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

EXPECTED_LINES = {
    "ground_truth_demo": [
        "  radius 4: 609 elements",
        "  radius 0: thin-triangle delta >= 0 (exhaustive over relative "
        "length <= 0)",
        "  radius 1: thin-triangle delta >= 0 (exhaustive over relative "
        "length <= 1)",
        "  radius 2: thin-triangle delta >= 0 (exhaustive over relative "
        "length <= 2)",
    ],
    "word_problem_demo": [
        "  'aaxAA'      -> unchanged in 0 steps",
        "  'axA'          -> alpha='x' conjugator='a' (0 end-run merges)",
        "  'xxxxyAXXXY'   -> alpha='Ax' conjugator='xxxxy' (1 end-run merges)",
        "  'yx'           -> alpha='xy' conjugator='' (0 end-run merges)",
        "      [table-replacement] 'aaa' -> 'AA' at 0..3",
    ],
}


@pytest.mark.parametrize("name", ["conjugacy_demo", "ground_truth_demo",
                                  "word_problem_demo"])
def test_demo_runs(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / (name + ".py"))],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for line in EXPECTED_LINES.get(name, []):
        assert line in lines
