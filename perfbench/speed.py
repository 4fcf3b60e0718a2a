"""The machine's speed, sampled between operations, to put times on one scale.

The host this benchmark was built on runs pure Python at two speeds about 1.8
times apart and switches between them every few seconds to every few minutes,
so a run can fall wholly in either.  Raw wall times then spread across runs
far more than any change worth measuring.  A fixed calibration workload of
the benchmark's own (formula formatting, dualizing and sorting from ``gen``,
plus an integer loop) slows down with the engine by nearly the same factor,
so the run samples it every few milliseconds between operations and scales
each measured time by ``REFERENCE_S`` over the calibration time around it:
the reported times are the ones the machine gives at its reference speed.
The calibration never calls the engine, so a change to the engine moves the
scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import random
import statistics
from time import perf_counter

from . import gen

#: seconds between calibration samples, taken between operations
EVERY_S = 0.025
#: samples this close to an operation's start or end count for it
WINDOW_S = 0.06
#: the calibration's time at the reference speed: its fast state on a 2-vCPU
#: shared virtual machine running Python 3.11.7
REFERENCE_S = 0.0010

_FORMULAS = [gen.random_formula(random.Random(i), 5, ("p", "q", "r")) for i in range(40)]


def calibrate() -> int:
    """Fixed pure-Python work resembling the engine's, about a millisecond."""
    out = 0
    for f in _FORMULAS:
        g = gen.dual(f)
        out += len(gen.fmt(f)) + len(gen.fmt(g))
        out += len(sorted((f, g, ("->", f, g)), key=gen.sort_key))
    for i in range(10_000):
        out += i * i % 7
    return out


class Speed:
    """Calibration samples of one run: (middle, seconds), in time order."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        calibrate()
        t1 = perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)

    def tick(self) -> None:
        """Sample once for every ``EVERY_S`` since the last sample, at most
        five times: a long operation gets as many samples after it as the
        short ones before it had around them."""
        due = 1 if not self.at else int((perf_counter() - self.at[-1]) / EVERY_S)
        for _ in range(min(due, 5)):
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Reference over measured calibration time around ``[start, end]``:
        the median of the samples within ``WINDOW_S``, or within the
        interval's own length if longer, of either end.  A ``tick`` before
        and after every operation leaves at least one there."""
        pad = max(WINDOW_S, end - start)
        lo = bisect.bisect_left(self.at, start - pad)
        hi = bisect.bisect_right(self.at, end + pad)
        return REFERENCE_S / statistics.median(self.took[lo:hi])
