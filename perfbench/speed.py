"""Correcting wall times for the speed the machine ran at while they were taken.

On a shared host, CPU-bound code can run 30-100% slower for seconds to minutes
at a time, in CPU time as much as in wall time, so the cause is not
preemption. While a timed phase runs, a timer signal every ``PROBE_EVERY_S``
times a fixed probe of interpreter, container and numpy work that does not touch
sessionrec. A run's corrected time is its wall time, less the probes that
fell inside it, scaled by ``REFERENCE_PROBE_S`` over the mean of the probes
from the last one before it to the first one after it. A change to
sessionrec moves the run but not the probe, while a slow spell of the host
moves both alike.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from typing import Iterator

import numpy as np

# The probe's time on an undisturbed core of the 2-vCPU x86-64 machine the
# benchmark was tuned on (its 1st percentile over 6000 runs). Corrected times
# read as that machine's undisturbed times.
REFERENCE_PROBE_S = 1.8e-3
PROBE_EVERY_S = 0.1


def probe() -> float:
    """Seconds taken by a fixed mix of the kinds of work sessionrec does.

    An interpreter loop; a set union, sort and filtered list, which slow
    down more than plain arithmetic in a slow spell, as retrieval does;
    small numpy ops; and a GEMM.
    """
    started = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i
    pool = set(range(0, 12_000, 3)) | set(range(0, 12_000, 5))
    kept = [x for x in sorted(pool, reverse=True) if x % 7]
    v = np.ones(100)
    for _ in range(200):
        v = v * 1.0001 + 0.5
    m = np.ones((100, 100))
    m @ m
    del kept
    return time.perf_counter() - started


Mark = tuple[int, float]  # (probes taken so far, seconds they took)


class Timeline:
    """Probes taken on a timer while timed phases run."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.spent = 0.0

    def _tick(self, *_: object) -> None:
        took = probe()
        self.probes.append(took)
        self.spent += took

    @contextlib.contextmanager
    def running(self) -> Iterator["Timeline"]:
        """Probe at the start, on the timer, and at the end of the block."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._tick()

    def mark(self) -> Mark:
        return len(self.probes), self.spent

    def corrected(self, wall: float, start: Mark, end: Mark) -> float:
        """``wall`` was timed between marks ``start`` and ``end`` inside one block."""
        own = wall - (end[1] - start[1])
        speed = statistics.fmean(self.probes[start[0] - 1 : end[0] + 1])
        return own * REFERENCE_PROBE_S / speed

    def slowdown(self) -> float:
        """Median probe over its reference: how slow the machine ran."""
        return statistics.median(self.probes) / REFERENCE_PROBE_S
