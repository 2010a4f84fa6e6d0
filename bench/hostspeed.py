"""The host's speed, sampled between timed calls, and times scaled to it.

A shared host runs the same Python code up to twice as fast at one moment as
at another, in swings that last seconds to minutes.  Timings taken straight
from a clock measure those swings as much as the program.  So the benchmark
times its calls in CPU time of its own process (which leaves out the time it
waits for a core) and, between calls, runs a fixed reference loop that does
not touch the program.  Each timed interval is scaled by the reference loop's
cost around it:

    scaled = CPU time of the interval x REFERENCE_S / mean cost of the
             reference samples on either side of it

A change to the program moves the interval and not the reference loop, so it
shows in full; a change in the host's speed moves both and cancels.  A scaled
time is in seconds as the reference host would have taken them.
"""

from __future__ import annotations

import bisect
import heapq
import statistics
import time
from typing import List

clock = time.process_time

# About the CPU seconds of one reference sample on the reference host, a
# 2-core shared x86-64 sandbox running CPython 3.11, whose own speed swings
# (medians of 400 samples there ranged from 1.9 to 2.3 ms).  It only fixes
# the unit of scaled times; any constant would do as long as it never changes.
REFERENCE_S = 0.00235
# One sample is owed for each EVERY_S of CPU time since the last; at about
# 2.4 ms a sample, they cost about a tenth of a run.  After a long call the
# owed samples are taken in one burst, at most MAX_BURST of them, so that a
# long call is scaled by as many samples as the same time in short calls.
EVERY_S = 0.025
MAX_BURST = 40
REFERENCE_EVENTS = 2500


class _Gate:
    __slots__ = ("a", "b", "out", "table")

    def __init__(self, a: int, b: int, out: int, table: tuple):
        self.a, self.b, self.out, self.table = a, b, out, table


def reference_work() -> int:
    """A fixed toy event simulation: a ring of table gates driven from a heap.

    It uses the interpreter operations the benchmarked code spends its time
    in (heap operations, dict and tuple lookups, attribute access, calls,
    string formatting), and nothing of the program.  Returns a checksum so
    the work cannot be skipped.
    """
    gates = [_Gate(i, (i + 5) % 16, (i + 1) % 16, (0, 1, 1, i & 1)) for i in range(16)]
    levels = dict.fromkeys(range(16), 1)
    seen: dict = {}
    heap = [(g, g) for g in range(8)]
    out = []
    for _ in range(REFERENCE_EVENTS):
        t, g = heapq.heappop(heap)
        gate = gates[g]
        key = (levels[gate.a], levels[gate.b])
        v = gate.table[2 * key[0] + key[1]]
        seen[key] = seen.get(key, 0) + 1
        if levels[gate.out] != v:
            levels[gate.out] = v
            out.append(f"{t},{gate.out},{v};")
        heapq.heappush(heap, (t + 1 + (g & 3), gate.out))
    return len("".join(out)) + sum(seen.values())


class Speedometer:
    """Reference samples taken between timed calls, and the scaling of a
    timed interval by the samples around it."""

    def __init__(self):
        self._end: List[float] = []  # clock at the end of each sample
        self._cost: List[float] = []
        self.sample()

    def sample(self, n: int = 1) -> None:
        """A burst of ``n`` samples, kept as one with their mean cost."""
        t0 = clock()
        for _ in range(n):
            reference_work()
        t1 = clock()
        self._end.append(t1)
        self._cost.append((t1 - t0) / n)

    def catch_up(self, at_least: int = 0) -> None:
        """Take the samples owed since the last, and at least ``at_least``.
        Call it only between timed intervals."""
        owed = int((clock() - self._end[-1]) / EVERY_S)
        n = min(max(owed, at_least), MAX_BURST)
        if n:
            self.sample(n)

    def scaled(self, t0: float, t1: float) -> float:
        """Length of the interval [t0, t1] at the reference host's speed.  It
        is scaled by the mean cost of the last burst before it, the bursts
        inside it (none, when samples are only taken between calls) and the
        first burst after it, so take a sample before scaling the last
        interval."""
        lo = max(bisect.bisect_right(self._end, t0) - 1, 0)
        hi = bisect.bisect_left(self._end, t1) + 1
        return (t1 - t0) * REFERENCE_S / statistics.fmean(self._cost[lo:hi])

    def median_cost(self) -> float:
        return statistics.median(self._cost)
