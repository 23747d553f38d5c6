"""How fast the host runs, sampled while a measured process runs.

The machine this benchmark was built on is a 2-vCPU VM whose speed steps
between levels about 1.5x apart (sometimes 3x) every few seconds, on both
vCPUs at once, as neighbouring load comes and goes.  Raw wall times of a
10-20 s process therefore spread by 30-50% between runs.  To remove that,
a background thread times a small fixed pure-Python loop (which imports
nothing from factcert, so no change to the program can move it) every
INTERVAL_S while a child runs on the other vCPU.  The mean loop time over
the child's lifetime, divided by REF_UNIT_S, is the host's slowness during
that child; dividing the child's wall time by it gives its wall time at the
reference speed.
"""

from __future__ import annotations

import statistics
import threading
import time

INTERVAL_S = 0.1
# unit() time while a child runs on the other vCPU, at the quiet level of
# the machine the benchmark was built on (Intel Xeon vCPU at 2.1 GHz, Python
# 3.11), so scaled times read close to raw seconds there.  Only the scale
# of the scaled times depends on it.
REF_UNIT_S = 0.0068


def unit() -> int:
    """A fixed mix of small-int loops, dict stores and big-int arithmetic."""
    acc = 0
    table = {}
    for i in range(1, 24_000):
        acc = (acc * 31 + i * i) % 1_000_003
        table[i % 257] = acc
    big = 1
    for k in range(2, 1_300):
        big *= k
    for q in range(10_007, 10_060, 2):
        acc ^= big % (q**6)
    return acc


class HostSpeed:
    """Background sampler: (monotonic midpoint, seconds) for each unit()."""

    def __init__(self) -> None:
        self.readings: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.is_set():
            t0 = time.monotonic()
            unit()
            t1 = time.monotonic()
            self.readings.append(((t0 + t1) / 2, t1 - t0))
            self._stop.wait(INTERVAL_S)

    def slowness(self, start: float, end: float) -> float:
        """Mean unit() time over [start, end] relative to REF_UNIT_S; the
        nearest three readings stand in when the span holds fewer."""
        inside = [d for t, d in self.readings if start <= t <= end]
        if len(inside) < 3:
            mid = (start + end) / 2
            nearest = sorted(self.readings, key=lambda r: abs(r[0] - mid))[:3]
            inside = [d for _, d in nearest]
        return statistics.fmean(inside) / REF_UNIT_S
