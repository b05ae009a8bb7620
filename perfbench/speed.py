"""Machine-speed calibration.

The 2-core machine these runs are sized for shares its cores with other
tenants: the same pure-Python loop takes anywhere from 1x to 2x its best time
from one second to the next, and a whole run can sit in a slow phase.  So
every timing is divided by the speed factor measured around it, and reported
times are milliseconds (or seconds) at nominal speed; run.py prints the raw
wall-clock figures and the factors beside them.

In-process work (short-batch, long-words) is judged by a fixed kernel: the
time it takes just before and just after the timed block, over the kernel's
nominal time.  The kernel is plain Python that never touches relconj (a
change to the program cannot move it) and allocates no object the garbage
collector tracks (it cannot trigger a collection that scans the program's
heap).  Child processes (cli) are judged by a reference process instead; see
reference_factors below.
"""

from __future__ import annotations

import contextlib
import random
import signal
import statistics
import time

# The kernel's time on an uncontended core of the 2-core machine; a constant
# of the benchmark, so figures from different runs and commits compare.
NOMINAL_NS = 1_800_000

_rng = random.Random(20141407)
_TEXT = "".join(_rng.choice("aAbBxXyY") for _ in range(8000))
# indexed by code point: no hashing, so the interpreter's per-process hash
# seed cannot change the kernel's speed
_INVERSE = [chr(i).swapcase() for i in range(128)]


def kernel_ns():
    """Free reduction over a fixed word plus comparisons of its slices."""
    stack = []
    inverse = _INVERSE
    text = _TEXT
    clock = time.perf_counter_ns
    start = clock()
    for c in text:
        if stack and stack[-1] == inverse[ord(c)]:
            stack.pop()
        else:
            stack.append(c)
    acc = 0
    for i in range(0, len(text) - 5, 3):
        if text[i:i + 4] < text[i + 1:i + 5]:
            acc += 1
    return clock() - start


SAMPLES = 5  # kernel runs per speed reading; their median is the reading
PERIOD_S = 0.1  # interval of the readings taken while sampling


def reading_ns():
    return sorted(kernel_ns() for _ in range(SAMPLES))[SAMPLES // 2]


class Speed:
    """Speed factors of consecutive timed blocks: call mark() before the
    first block and factor() after each one.  While sampling() is on, a
    timer signal also takes a kernel reading every PERIOD_S inside the
    block, so a block of several seconds is not judged by its two ends
    alone; the time the readings take is counted in stolen_ns, for the
    caller to subtract."""

    def __init__(self):
        self.last = None
        self.inside = []
        self.stolen_ns = 0
        self.factors = []

    def mark(self):
        self.last = reading_ns()

    def factor(self):
        now = reading_ns()
        readings = [(self.last + now) / 2.0] + self.inside
        f = sum(readings) / (len(readings) * NOMINAL_NS)
        self.last = now
        self.inside = []
        self.factors.append(f)
        return f

    def _sample(self, signum, frame):
        start = time.perf_counter_ns()
        self.inside.append(kernel_ns())
        self.stolen_ns += time.perf_counter_ns() - start

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


# Process start-up (exec, dynamic loading, site, reading and unmarshalling
# bytecode) does not slow down in step with the kernel above: a busy
# neighbour on the same or the other core can stretch a start-up by 40 % or
# double it while the kernel, which fits in one time slice, reads the same.
# So a process's wall time is judged against a reference process run next to
# it instead: the same interpreter, environment and directory, importing a
# fixed set of standard-library modules and nothing of relconj.
REFERENCE_CODE = ("import argparse, dataclasses, hashlib, inspect, json, "
                  "pathlib, tempfile")
# The reference's wall time on an uncontended core of the 2-core machine.
REFERENCE_NOMINAL_S = 0.070
# Reference runs whose median gives one process's factor: the three run
# before it and the three after.  Start-up times have single slow outliers
# that a median drops; contended phases last seconds and move all of them.
REFERENCE_WINDOW = 3


def reference_factors(walls, window=REFERENCE_WINDOW):
    """Speed factors of processes 0..n-1 from n + 1 reference wall times,
    reference i having run just before process i (and reference n after the
    last): the median of the references within `window` on either side of
    each process, over REFERENCE_NOMINAL_S."""
    n = len(walls) - 1
    if n < 1:
        raise ValueError("need a reference run after the last process")
    out = []
    for i in range(n):
        near = walls[max(0, i + 1 - window):i + 1 + window]
        out.append(statistics.median(near) / REFERENCE_NOMINAL_S)
    return out
