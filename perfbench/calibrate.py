"""Machine-speed calibration for the benchmark's time metrics.

Shared cloud machines change speed by up to 1.4x over minutes. On a 2-vCPU
x86-64 machine, a fixed CPU loop took between 67 and 100 ms per call within
90 s. Ten seeded runs of ``stream-durable`` took 4.3-4.7 s per invocation
for five seeds and 5.3-6.5 s for the next five; their set-up times moved by
the same factor. Raw wall times then spread more between runs than any
useful regression bound allows.

So a run times this fixed kernel before its first measurement and after each
one, once per two seconds measured. It scales every time it reports by
``REFERENCE_S / median(kernel times)``, giving seconds at the reference
machine speed. The kernel uses only the standard library and NumPy, so a
change to the program cannot change it, and a slower program still reads
slower. Its mix follows the program's: tuple-keyed dict churn, JSON encode
and decode, NumPy sorts and gathers, and deflate. The raw times are reported
beside the scaled ones.
"""

from __future__ import annotations

import json
import statistics
import time
import zlib
from typing import List

import numpy as np

#: Kernel time that defines the reference speed (about its time on the
#: 2-vCPU x86-64 machine above, Python 3.11, NumPy 2.4).
REFERENCE_S = 0.16
#: Seconds of measurement per kernel timing.
EVERY_S = 2.0


class Calibration:
    """The calibration kernel with its fixed inputs, and the times taken."""

    def __init__(self):
        rng = np.random.default_rng(20200715)
        self._keys = rng.integers(0, 1 << 40, size=400_000)
        self._blob = rng.integers(0, 64, size=1_500_000, dtype=np.uint8).tobytes()
        self._records = [{"op": "insert", "u": i, "v": i * 7 % 1000} for i in range(15_000)]
        self.times: List[float] = []

    def after(self, elapsed: float) -> None:
        """Time the kernel after a measurement that took ``elapsed`` seconds:
        once per ``EVERY_S`` of it, so the kernel samples every part of a
        run about equally."""
        for _ in range(max(1, round(elapsed / EVERY_S))):
            self.measure()

    def measure(self) -> float:
        start = time.perf_counter()
        table = {}
        for i in range(60_000):
            table[(i, i ^ 5)] = i
        json.loads(json.dumps(self._records))
        ordered = np.sort(self._keys)
        ordered[np.argsort(self._keys % 1000, kind="stable")]
        zlib.compress(self._blob, 6)
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        return elapsed


def speed_factor(kernel_times: List[float]) -> float:
    """Multiply a raw time by this to get seconds at the reference speed."""
    return REFERENCE_S / statistics.median(kernel_times)
