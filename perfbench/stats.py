"""Summary statistics shared by the workloads: medians, the tail-percentile
rule and the log-log slope fit.  Standard library only."""

from __future__ import annotations

import math
import statistics

# A tail beyond p99.9 rests on a few hundred of the slowest samples out of
# hundreds of thousands and moves with every scheduler hiccup; p99.9 is the
# highest tail the short-batch runs report steadily.
TAIL_CAP = 99.9
TAIL_MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list (0 < p <= 100)."""
    n = len(sorted_values)
    rank = max(1, math.ceil(p / 100.0 * n - 1e-9))
    return sorted_values[min(rank, n) - 1]


def tail(values):
    """(percentile, value): the highest percentile that still has at least
    ten samples beyond it, capped at TAIL_CAP.  With ten samples or fewer
    no percentile qualifies and the maximum is returned as p100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_MIN_BEYOND:
        return 100.0, ordered[-1]
    p = min(TAIL_CAP, 100.0 * (n - TAIL_MIN_BEYOND) / n)
    return p, percentile(ordered, p)


def loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x): the growth exponent."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("a slope needs at least two (x, y) points")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    sxx = sum((a - mx) ** 2 for a in lx)
    if sxx == 0:
        raise ValueError("a slope needs two distinct x values")
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sxx


def relative_iqr(values):
    """Distance between the first and third quartile over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
