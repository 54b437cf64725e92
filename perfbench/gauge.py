"""Machine-speed gauge: a fixed kernel timed between items.

On a shared machine the CPU speed drifts by tens of percent over tens of
seconds, so raw wall times of two runs are not comparable. The gauge times a
small kernel of the benchmark's own code, never the program's: small QR
factorizations, a Python loop, list, dict and JSON work, and a 4 MB sweep.
It reads at the start, between items at least every INTERVAL_S, and at the
end. Each measured interval is then reported in reference seconds: its wall
time times NOMINAL_S over the median reading within WINDOW_S of it. The
harness reports raw wall times alongside.
"""

from __future__ import annotations

import json
import math
import statistics
import time

import numpy as np

_RNG = np.random.default_rng(0)
_M8 = _RNG.standard_normal((8, 4)) + 0j
_BIG = _RNG.standard_normal(1 << 19)


def kernel():
    s = 0.0
    for _ in range(40):
        q, _ = np.linalg.qr(_M8)
        s += float(np.abs(q).sum())
    x = 0
    for i in range(5000):
        x += i * i
    rows = [list(range(50)) for _ in range(200)]
    table = {i: str(i) for i in range(3000)}
    return s + x + len(json.dumps(rows)) + len(table) + float(_BIG.sum())


class SpeedGauge:
    NOMINAL_S = 3.0e-3  # one kernel call on the reference machine
    INTERVAL_S = 0.3
    WINDOW_S = 5.0
    REPEATS = 3

    def __init__(self):
        self.readings = []  # (time, fastest seconds per kernel call)
        self._last = -math.inf

    def read(self):
        """Take a reading now; returns its index. An untimed first call
        refills the caches that the last item or child process evicted."""
        kernel()
        best = math.inf
        for _ in range(self.REPEATS):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        self._last = time.perf_counter()
        self.readings.append((self._last, best))
        return len(self.readings) - 1

    def tick(self):
        """Index of the reading that precedes the next interval."""
        if time.perf_counter() - self._last >= self.INTERVAL_S:
            return self.read()
        return len(self.readings) - 1

    def factor(self, before):
        """Reference seconds per second for an interval after reading ``before``."""
        lo = self.readings[before][0] - self.WINDOW_S
        hi = self.readings[min(before + 1, len(self.readings) - 1)][0] + self.WINDOW_S
        near = [secs for t, secs in self.readings if lo <= t <= hi]
        return self.NOMINAL_S / statistics.median(near)
