"""Host speed, measured with a fixed reference loop between ops.

The shared host this benchmark was written on changes speed by up to a
factor of 1.5 over minutes, and back-to-back runs of the same op can differ
by a third: a run's raw op times follow the host, not the program.  Each
run therefore also times a fixed integer loop that calls no linkform code,
at the start, after every CALIBRATE_EVERY_S of op time and at the end,
outside the timed region.  Each op's time is scaled by
``REFERENCE_S / loop time``, with the loop time taken as the median of the
timings from SMOOTH_S before the op to SMOOTH_S after it, and at least the
timings just before and just after it: gated times read as times on a host
where the loop takes REFERENCE_S.  A change to linkform moves them as it
moves the raw times; the raw times are printed next to them.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

REFERENCE_S = 0.004  # about the loop's time on that host
CALIBRATE_EVERY_S = 0.25
SMOOTH_S = 1.0  # enough timings around a short op to even out their own noise


def _loop() -> int:
    total = 0
    for i in range(60000):
        total += i * i % 7
    return total


def loop_seconds() -> float:
    """Median of three timings of the reference loop."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _loop()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class HostClock:
    """Reference-loop timings taken through a run."""

    def __init__(self):
        self.taken: list[float] = []  # when each timing started
        self.samples: list[float] = []
        self._since = 0.0
        self._take()

    def _take(self) -> None:
        self.taken.append(perf_counter())
        self.samples.append(loop_seconds())
        self._since = 0.0

    def tick(self, op_seconds: float) -> None:
        """Count an op that just ended."""
        self._since += op_seconds
        if self._since >= CALIBRATE_EVERY_S:
            self._take()

    def finish(self) -> None:
        """Take a last timing, so that every op has one after it."""
        if self._since:
            self._take()

    def factor(self, start: float, end: float) -> float:
        """Factor from raw seconds to reference-host seconds for an op that
        ran from `start` to `end` (perf_counter times)."""
        before = bisect_right(self.taken, start) - 1
        after = bisect_left(self.taken, end)
        lo = min(before, bisect_left(self.taken, start - SMOOTH_S))
        hi = max(after, bisect_right(self.taken, end + SMOOTH_S) - 1)
        return REFERENCE_S / statistics.median(self.samples[max(lo, 0) : hi + 1])

    def scale(self) -> float:
        """One factor for the whole run, from the median timing."""
        return REFERENCE_S / statistics.median(self.samples)
