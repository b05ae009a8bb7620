"""Tests of the benchmark's own helpers: the tail rule, the slope fit, the
reference-process factors, self time, the wrappers, and seeded input
generation.

    python3 -m pytest perfbench/tests
"""

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import pytest  # noqa: E402

import reference  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracer import Instrumentation, Tracer  # noqa: E402

from relconj import conjugacy, words  # noqa: E402


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 29))  # 28 samples
    pct, value = stats.tail(reversed(values))
    assert pct == pytest.approx(100 * 18 / 28)
    assert value == 18
    assert sum(v > value for v in values) == 10


def test_tail_is_capped_at_p999():
    values = list(range(100_000))
    pct, value = stats.tail(values)
    assert pct == stats.TAIL_CAP
    assert sum(v > value for v in values) == 100


def test_tail_of_ten_or_fewer_is_the_maximum():
    assert stats.tail([3, 1, 2]) == (100.0, 3)


def test_loglog_slope_recovers_exponents():
    ns = [64, 128, 256, 512]
    assert stats.loglog_slope(ns, [3 * n * n for n in ns]) == pytest.approx(2)
    assert stats.loglog_slope(ns, [7 * n for n in ns]) == pytest.approx(1)
    with pytest.raises(ValueError):
        stats.loglog_slope([64], [1.0])
    with pytest.raises(ValueError):
        stats.loglog_slope([64, 64], [1.0, 2.0])


def test_reference_factors_take_the_median_of_nearby_runs():
    nominal = speed.REFERENCE_NOMINAL_S
    # one slow outlier among steady references is dropped by the median
    walls = [nominal] * 4 + [9 * nominal] + [nominal] * 4
    assert speed.reference_factors(walls) == pytest.approx([1.0] * 8)
    # a contended phase moves every reference near it, and the factors
    walls = [nominal] * 5 + [2 * nominal] * 8
    factors = speed.reference_factors(walls)
    assert len(factors) == 12
    assert factors[0] == pytest.approx(1.0)
    assert factors[-1] == pytest.approx(2.0)
    # process i sees the references i - 2 .. i + 3 (window 3 either side)
    walls = [float(i) for i in range(10)]
    assert speed.reference_factors(walls, window=3)[4] == pytest.approx(
        4.5 / nominal)
    with pytest.raises(ValueError):
        speed.reference_factors([nominal])


class FakeClock:
    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_child_spans():
    # a [0, 100] holds b [10, 30] and c [40, 45]; c is renamed on exit
    tr = Tracer(clock=FakeClock(0, 10, 30, 40, 45, 100))
    tr.enter("a")
    tr.enter("b")
    tr.exit()
    tr.enter("c")
    tr.exit("c.done")
    tr.exit()
    assert tr.stats["a"] == [1, 100, 75]
    assert tr.stats["b"] == [1, 20, 20]
    assert tr.stats["c.done"] == [1, 5, 5]
    assert tr.edges == {("a", "b"): 1, ("a", "c.done"): 1}
    assert tr.spans == [("a", 0, 100, -1, -1), ("b", 10, 30, 0, -1),
                        ("c.done", 40, 45, 0, -1)]


def test_span_cap_keeps_aggregates():
    tr = Tracer(clock=FakeClock(0, 1, 2, 3), span_cap=1)
    for _ in range(2):
        tr.enter("x")
        tr.exit()
    assert tr.calls("x") == 2 and len(tr.spans) == 1 and tr.dropped == 1


def test_merge_adds_a_child_trace():
    child = Tracer(clock=FakeClock(0, 2, 3, 10))
    child.enter("a")
    child.enter("b")
    child.exit()
    child.exit()
    parent = Tracer(clock=FakeClock(0, 4))
    parent.enter("a")
    parent.exit()
    parent.query = 7
    parent.merge(child.snapshot())
    assert parent.stats["a"] == [2, 14, 13]
    assert parent.spans[1:] == [("a", 0, 10, -1, 7), ("b", 2, 3, 1, 7)]


def test_instrumentation_wraps_and_restores():
    ps = workloads.load_for_generation(["free2"])
    p = ps["free2"]
    t = workloads.tables.precompute(p)
    original = conjugacy.decide
    tr = Tracer()
    inst = Instrumentation(tr)
    inst.install()
    try:
        assert conjugacy.decide(p, t, "ab", "ba").answer == "conjugate"
        assert conjugacy.decide(p, t, "ab", "aB").answer == "not-conjugate"
    finally:
        inst.uninstall()
    assert conjugacy.decide is original
    assert tr.calls("conjugacy.decide.conjugate") == 1
    assert tr.calls("conjugacy.decide.not-conjugate") == 1
    assert tr.calls("words.normalize") > 0
    assert tr.counts["words.normalize.letters"] > 0


def fields(queries):
    return [(q.kind, q.pres, q.u, q.v, q.expected) for q in queries]


def test_same_seed_gives_the_same_inputs():
    assert fields(workloads.short_batch_queries(5)) == \
        fields(workloads.short_batch_queries(5))
    assert fields(workloads.short_batch_queries(5)) != \
        fields(workloads.short_batch_queries(6))
    assert fields(workloads.long_words_queries(5)) == \
        fields(workloads.long_words_queries(5))
    assert fields(workloads.cli_queries(5, 12)[1]) == \
        fields(workloads.cli_queries(5, 12)[1])


def test_cli_mix_does_not_depend_on_the_seed():
    def mix(seed):
        return Counter((q.kind, q.pres)
                       for q in workloads.cli_queries(seed, 60)[1])
    assert mix(1) == mix(2)
    assert set(mix(1).values()) == {5}


def test_long_words_inputs_have_the_promised_shape():
    ps = workloads.load_for_generation(workloads.LONG_NAMES)
    for q in workloads.long_words_queries(3):
        p = ps[q.pres]
        if q.kind == "wp":
            assert reference.is_trivial(p, q.u) is q.expected
            continue
        n = len(q.u)
        assert words.normalize(p, q.u) == q.u
        assert words.normalize(p, q.v) == q.v
        if q.expected:
            assert len(q.v) == n + 2 * (n // 4)
        else:
            assert Counter(q.v) == Counter(q.u)
        same = reference.conjugacy_key(p, q.u) == reference.conjugacy_key(
            p, q.v)
        assert same is q.expected
