"""Host-speed probe: how slow the machine is running right now.

The benchmark's host is a share of a machine whose speed drifts: the same
op, run back to back in one process, takes anywhere from 0.7x to 1.8x its
median, in spells of seconds to minutes, and a fixed pure-Python loop
slows down in the same spells.  So the benchmark brackets every op with a
probe: a short fixed kernel that uses no latmin code, timed a few times.
`probe()` returns the kernel's time over its reference time.  An op's
slowdown is the geometric mean of the probes right before and right after
it, and the op's time divided by its slowdown is its time at reference
speed.  (Medians or means over wider windows of probes gave steadier
values for neither the median nor the tail of op times.)  The probe is
unaffected by any change to latmin, so a slower program still reads slower.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from statistics import median
from time import perf_counter

# The kernel's median time on the reference host (a 2-vCPU shared x86-64
# VM, Python 3.11).  A constant of the benchmark: changing it rescales
# every reported time.
REFERENCE_S = 0.0007
REPEATS = 3


def kernel() -> float:
    """Fixed interpreter work of the kinds latmin's hot paths do: small
    tuples, dict updates, float math and sorting short sequences."""
    acc = 0.0
    table: dict = {}
    for i in range(500):
        p = (i % 3, (i * 7) % 5, i % 4)
        table[p] = table.get(p, 0.0) + math.sqrt(1.0 + p[0] + p[1]) - 0.3 * abs(p[1] - p[2])
        acc += sorted(p)[1] * 0.5 + math.exp(-0.1 * p[1])
    return acc + len(table)


def probe() -> float:
    """Current slowdown: median kernel time over REFERENCE_S."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return median(times) / REFERENCE_S


class Recorder:
    """The probes of a timed pass, with the clock time each one ended."""

    def __init__(self):
        self.times: list[float] = []
        self.values: list[float] = []

    def probe(self) -> float:
        value = probe()
        self.times.append(perf_counter())
        self.values.append(value)
        return value

    def slowdown(self, start: float, end: float) -> float:
        """Slowdown of an op from `start` to `end`: the geometric mean of
        the last probe that ended by `start` and the first that ended after
        `end`.  The op must be bracketed by probes."""
        before = self.values[bisect_right(self.times, start) - 1]
        after = self.values[bisect_left(self.times, end)]
        return math.sqrt(before * after)
