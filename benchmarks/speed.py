"""Core-speed sampling, to report times at a fixed reference speed.

On a shared host the speed of one core changes by up to about 1.5x for
periods of one to tens of seconds, independently on each core, and that
moves every wall time and CPU time by the same factor. While a pass runs,
a SIGALRM handler times a fixed NumPy kernel every PERIOD_S seconds on the
benchmark's own thread. An interval's reference time is its wall time
scaled by REFERENCE_S over the kernel's time in that interval, that is, the
time the same work would take on a core where the kernel takes REFERENCE_S.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

PERIOD_S = 0.025
REPEATS = 3
CAPACITY = 1 << 16  # samples kept: 27 minutes at PERIOD_S; later samples are dropped
# A fixed scale: about the kernel's median time on the machine the benchmark
# was defined on (a 2-vCPU Xeon VM, numpy 2.4 with OpenBLAS), so that
# reference times there read close to measured ones.
REFERENCE_S = 10e-6


class SpeedSampler:
    """Times the calibration kernel on SIGALRM; use as a context manager.

    Sampling allocates nothing from the C heap: a sample that did could stop
    glibc from returning freed memory to the system, and so change the page
    faults and system time of the very workload being measured.
    """

    def __init__(self):
        self._operand = np.random.default_rng(0).standard_normal((32, 32))
        self._out = np.empty_like(self._operand)
        self._times = np.zeros(CAPACITY)
        self._durations = np.zeros(CAPACITY)
        self._n = 0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._n == self._times.size:
            return
        # The fastest of a few runs: the first may find the operand evicted by
        # the workload, which would tie the sample to the workload's memory use.
        best = math.inf
        for _ in range(REPEATS):
            start = time.perf_counter()
            np.sin(self._operand, out=self._out)
            best = min(best, time.perf_counter() - start)
        self._times[self._n] = time.perf_counter()
        self._durations[self._n] = best
        self._n += 1

    def __enter__(self):
        self._sample(signal.SIGALRM, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, start: float, end: float) -> float:
        """Mean of REFERENCE_S / kernel time over the samples taken in [start, end].

        An interval shorter than the sampling period may hold no sample; it
        takes the sample nearest to its end. There is always one, taken on
        entry.
        """
        times = self._times[:self._n]
        ratios = REFERENCE_S / self._durations[:self._n]
        inside = (times >= start) & (times <= end)
        if inside.any():
            return float(ratios[inside].mean())
        return float(ratios[np.argmin(np.abs(times - end))])

    def median_kernel_s(self) -> float:
        return float(np.median(self._durations[:self._n]))
