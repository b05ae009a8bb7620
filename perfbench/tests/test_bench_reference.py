"""The benchmark's independent reference agrees with relconj's brute-force
Cayley-graph oracle on exhaustive balls.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import pytest  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402

from relconj import conjugacy, metric_oracle, tables  # noqa: E402


@pytest.mark.parametrize("name, radius", [("zxz2", 4), ("free2", 5),
                                          ("zc2", 5)])
def test_conjugacy_key_matches_brute_force_classes(name, radius):
    p = workloads.load_for_generation([name])[name]
    classes = metric_oracle.conjugacy_classes(p, radius)
    key_of_class, class_of_key = {}, {}
    for w, rep in classes.items():
        key = reference.conjugacy_key(p, w)
        assert key_of_class.setdefault(rep, key) == key, w
        assert class_of_key.setdefault(key, rep) == rep, w


@pytest.mark.parametrize("name", ["zxz2", "zc2", "free2"])
def test_verdict_matches_classify_on_a_ball(name):
    p = workloads.load_for_generation([name])[name]
    t = tables.precompute(p)
    for w in metric_oracle.ball(p, 3).elements:
        c = conjugacy.classify(p, t, w)
        assert reference.verdict(p, w) == (c.verdict, c.index), w


def test_conjugates_checks_a_witness():
    p = workloads.load_for_generation(["zxz2"])["zxz2"]
    assert reference.conjugates(p, "a", "x", "axA")
    assert not reference.conjugates(p, "", "x", "axA")
    assert reference.is_trivial(p, "xyXY")
    assert not reference.is_trivial(p, "xyXYa")
