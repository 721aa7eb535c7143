"""Machine-speed probe, for reporting times at a fixed reference speed.

On a shared machine the same pure-Python work can run 30% slower for tens of
seconds at a time, because of load outside this container.  A short fixed
integer loop, timed next to each measured piece of work, tracks that
slowdown; a measured time t is reported as t * REFERENCE_S / probe, the time
it would take on a machine where the probe takes REFERENCE_S.  The loop
touches no containers, so it cannot trigger garbage collection and does not
depend on the state the program leaves behind.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.002
_LOOPS = 30000


def probe(repeats: int = 3) -> float:
    """Median time of a few runs of the fixed loop, in seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(_LOOPS):
            acc = (acc + i * 7919) % 1000003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def normalize(seconds: float, before: float, after: float) -> float:
    """A time measured between two probes, at the reference speed."""
    return seconds * REFERENCE_S * 2 / (before + after)
