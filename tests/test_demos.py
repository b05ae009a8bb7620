"""Smoke test of the demos: each runs to completion as a script, and the
cyclic shortening lines and the relator step of the word-problem demo stay
as they are."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

EXPECTED_LINES = {
    "word_problem_demo": [
        "  'axA'          -> alpha='x' conjugator='a' (0 seam passes)",
        "  'xxxxyAXXXY'   -> alpha='Ax' conjugator='xxxxy' (1 seam passes)",
        "  'yx'           -> alpha='xy' conjugator='' (0 seam passes)",
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
