"""Wall time corrected for the speed of the core it ran on.

The cores of a shared host change speed by up to 1.6x from one second to the
next, as other tenants load the host, and they stay slow or fast for seconds
to minutes. A run's median then moves by more than any gain worth measuring.
While a ``CoreClock`` runs, a ``SIGALRM`` handler times a fixed calibration
kernel (the benchmark's own code, never vista's: a pure-Python loop and a few
64x64 matmuls) every ``INTERVAL_S`` on the thread that runs the workload.
``core_s(t0, t1)`` is the wall time of ``[t0, t1]``, less the kernel's own
time, scaled by the kernel's reference time over its mean time inside that
interval (the slowest tenth of the samples left out): how long the interval
would have taken on a core that runs the kernel at its reference speed. A
change to vista cannot change the kernel, so it moves ``core_s`` as much as it
moves the wall time.

On a 2-vCPU Intel Xeon VM, 194 repeats of one ``predict-pairs`` operation
spread 0.23 in wall time (interquartile range over median) and 0.07 in
``core_s``; the operation's time went as the kernel's to the power 0.97.
Sampling costs about 1.5% of the run; ``core_s`` leaves it out.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np

INTERVAL_S = 0.02
# The kernel's median time on a 2-vCPU Intel Xeon VM (Python 3.11, numpy
# 2.4, one OpenBLAS thread): core_s reads roughly as wall seconds there.
REFERENCE_KERNEL_S = 150e-6

# Share of the slowest samples in an interval that is left out: a sample
# the host preempted, or that met a garbage collection, reads several times
# its usual time and would skew a whole operation.
TRIM = 0.1

_M = np.random.default_rng(0).standard_normal((64, 64))
# Preallocated, so that the kernel allocates no object the cyclic garbage
# collector tracks and never starts a collection itself.
_TABLE = [0] * 16


def kernel() -> int:
    acc = 0
    for i in range(300):
        acc += i * i % 7
        _TABLE[i & 15] = acc
    for _ in range(8):
        _M @ _M
    return acc


class CoreClock:
    """Samples the kernel from ``start()`` to ``stop()``."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent: list[float] = []
        self._previous = None

    def _sample(self, _signum, _frame):
        # The first call brings the kernel's code and data back into the
        # caches, so the second, timed one depends on the core's speed and
        # not on how much of the cache the workload had taken.
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        kernel()
        t2 = time.perf_counter()
        self.at.append(t2)
        self.took.append(t2 - t1)
        self.spent.append(t2 - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def core_s(self, t0: float, t1: float) -> float:
        """Wall time of ``[t0, t1]`` (``perf_counter`` times), less the
        kernel's own time in it, at the reference core speed. An interval
        too short to hold three samples also uses the ones just before it."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        wall = t1 - t0 - sum(self.spent[lo:hi])
        lo = min(lo, max(0, hi - 3))
        if hi == lo:
            return wall
        took = sorted(self.took[lo:hi])[: math.ceil((hi - lo) * (1 - TRIM))]
        return wall * REFERENCE_KERNEL_S * len(took) / sum(took)
