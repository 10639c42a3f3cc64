"""Host speed reference for the end-to-end timings.

On a shared host the speed of a core follows the load its neighbours put
on the machine: the same pass of the same code ran up to 1.6x slower a few
minutes apart on a 2-vCPU KVM guest, in user time, not in waiting. No
statistic taken within one run removes a change that lasts longer than the
run. So the benchmark times two fixed reference kernels that do not use
heavytail between the steps of every pass: one of interpreted Python, one
of vectorised numpy (a sort and small matrix products), because a busy host
slows the two kinds of work by different shares. The end-to-end timings
are scaled by the geometric mean of the kernels' speed relative to
``REFERENCE_S``, which puts them in seconds at a fixed host speed. A change
to heavytail moves the scaled times as much as the measured ones, while a
change of host speed moves the kernels too and largely cancels. Set-up
time is not scaled: it tracks the kernels too loosely.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Median kernel times on a 2-vCPU Intel Xeon KVM guest with Python 3.11,
# numpy 2.4 and one BLAS thread; a scaled time is a time at that speed.
REFERENCE_S = {"python": 0.0024, "numpy": 0.0095}
REPEATS = 3  # runs of each kernel per sample


class HostSpeed:
    """Times the reference kernels and gives the scale for measured times."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._columns = rng.standard_normal((5000, 40))
        self._matrix = rng.standard_normal((150, 150))
        self.samples = {name: [] for name in REFERENCE_S}

    def sample(self) -> None:
        for name, kernel in (("python", self._python), ("numpy", self._numpy)):
            for _ in range(REPEATS):
                start = time.perf_counter()
                kernel()
                self.samples[name].append(time.perf_counter() - start)

    def medians(self) -> dict:
        return {name: statistics.median(times) for name, times in self.samples.items()}

    def scale(self) -> float:
        """Factor that turns a time measured in this run into one at the reference speed."""
        ratios = [REFERENCE_S[name] / median for name, median in self.medians().items()]
        return math.prod(ratios) ** (1.0 / len(ratios))

    @staticmethod
    def _python() -> int:
        total = 0
        for i in range(30_000):
            total += i * i
        return total

    def _numpy(self) -> None:
        np.argsort(self._columns, axis=0)
        for _ in range(30):
            self._matrix @ self._matrix
