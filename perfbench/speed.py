"""Interpreter speed, for scaling benchmark times to a reference speed.

Kept free of mops imports so that a fresh set-up interpreter can probe its
own speed around the set-up it times.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

# How often the interpreter's speed is sampled between timed calls, and the
# probe time that defines reference speed: about the probe's time in the fast
# phase of a shared 2-CPU Intel Xeon virtual machine running CPython 3.11.
PROBE_EVERY_S = 0.05
REFERENCE_PROBE_S = 0.00075
# Probes within this many seconds of a timed call give its local speed.
WINDOW_S = 0.5


def probe_work() -> int:
    """Fixed pure-Python work shaped like the library's: lists, sets, loops."""
    parent = list(range(64))
    seen = set()
    acc = 0
    for i in range(1500):
        a, b = (i * 7) % 64, (i * 13) % 64
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[max(a, b)] = min(a, b)
        if i % 97 == 0:
            parent = list(range(64))
        seen.add(i & 255)
        acc += len(seen)
    return acc


class SpeedProbe:
    """The interpreter's speed, sampled between timed calls.

    On a shared virtual machine the speed of one core can switch by up to 2x
    every few seconds as other tenants come and go, which swamps the effects
    a benchmark is meant to show. Every ``PROBE_EVERY_S``, outside the timed
    regions, this times ``probe_work``. A timed call is then scaled by
    ``REFERENCE_PROBE_S`` over the mean probe time within ``WINDOW_S`` of it,
    i.e. reported in seconds on an interpreter running at reference speed.
    The scaling assumes that the library runs on the calling thread, as it
    does.
    """

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        probe_work()
        end = perf_counter()
        self.times.append(end)
        self.samples.append(end - start)

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self.sample()

    def mean_s(self) -> float:
        return statistics.fmean(self.samples)

    def scale(self) -> float:
        """Reference over the run's mean speed, for totals over the run."""
        return REFERENCE_PROBE_S / self.mean_s()

    def scaled(self, seconds: float, start: float) -> float:
        """``seconds`` of a call that began at ``start``, at reference speed."""
        mid = start + seconds / 2
        lo = bisect.bisect_left(self.times, mid - WINDOW_S - seconds / 2)
        hi = bisect.bisect_right(self.times, mid + WINDOW_S + seconds / 2)
        if lo == hi:  # no probe close by: take the nearest one
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            hi = lo + 1
        return seconds * REFERENCE_PROBE_S / statistics.fmean(self.samples[lo:hi])
