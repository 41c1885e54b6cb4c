"""The machine's current speed, from timings of a fixed reference kernel.

On a shared host, co-tenants slow a small VM by up to half, in phases
from under a second to tens of seconds, on each vCPU separately (seen on
a 2-vCPU Xeon VM, where raw times of one workload spread by 10-35%
between runs and their medians shift by more between periods).  The
reference kernel uses numpy but no diffbridge code: 32x32 FFT pairs,
small-vector calls and a 64-wide matrix-vector product in a Python loop,
like diffbridge's own work.  A time's calibrated value is its value at
the kernel's REFERENCE_S pace: the time, times the mean of REFERENCE_S
over kernel times taken while it ran.

SpeedSampler takes those kernel times inside the measured process, so
they could also reflect the program's own cache state: right after
diffbridge code, or a 64 MB array sweep, one kernel run is 20-35% slower
than the next.  Each sample therefore runs the kernel WARM_RUNS times in
a row and keeps the last time.  To measure what bias is left, every HOT_EVERY-th sample
taken during an operation runs on to HOT_RUNS runs, whose last one no
longer depends on what ran before; ``bias`` is the median ratio of the
kept time to that hot time, less 1, and the workloads flag a run where
it exceeds BIAS_LIMIT.  The two times are a few milliseconds apart, so
the machine's changing speed cancels out of the ratio.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

_KERNEL_RNG = np.random.default_rng(0)
_KERNEL_FIELD = _KERNEL_RNG.standard_normal((32, 32))
_KERNEL_POINTS = _KERNEL_RNG.standard_normal((3, 2))
_KERNEL_MATRIX = _KERNEL_RNG.standard_normal((64, 64)) / 8.0
_KERNEL_VECTOR = _KERNEL_RNG.standard_normal(64)
REFERENCE_S = 0.0008   # about one warm kernel run on a quiet 2-vCPU Xeon VM
PERIOD_S = 0.05
WARM_RUNS = 2
HOT_RUNS = 8
HOT_EVERY = 10
BIAS_LIMIT = 0.1       # largest |bias()| before a run is flagged ...
BIAS_SAMPLES = 20      # ... when it rests on at least this many pairs
WARMUP = 3


def reference_kernel() -> float:
    """Seconds one run of the reference kernel takes."""
    start = time.perf_counter()
    x = _KERNEL_FIELD
    for _ in range(10):
        x = np.fft.ifft2(np.fft.fft2(x, norm="ortho") * 0.5, norm="ortho").real + _KERNEL_FIELD
        d = np.sum((_KERNEL_POINTS - x[0, :2]) ** 2, axis=-1)
        w = np.exp(d - d.max())
        w /= w.sum()
        np.tanh(_KERNEL_VECTOR @ _KERNEL_MATRIX)
    return time.perf_counter() - start


def speed(samples) -> float:
    """Mean of REFERENCE_S over kernel times: calibrated seconds per raw second."""
    return statistics.fmean(REFERENCE_S / d for d in samples)


class SpeedSampler:
    """Kernel timings taken on SIGALRM every PERIOD_S while active."""

    def __init__(self):
        self.samples = [reference_kernel() for _ in range(WARMUP)]
        self.spent = 0.0                 # seconds spent taking samples
        self.ratios: list[float] = []    # kept over hot time, during timed calls
        self.last = (0.0, 0.0)   # (seconds, calibrated seconds) of the latest timed call
        self._in_op = False
        self._ticks = 0
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        hot = self._in_op and self._ticks % HOT_EVERY == 0
        self._ticks += 1
        runs = [reference_kernel() for _ in range(HOT_RUNS if hot else WARM_RUNS)]
        self.samples.append(runs[WARM_RUNS - 1])
        if hot:
            self.ratios.append(runs[WARM_RUNS - 1] / runs[-1])
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)   # restart system calls it interrupts
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def bias(self) -> float:
        """Median of kept over hot kernel time during timed calls, less 1.

        Positive when what the program left in the caches still slows
        the kept run, which makes calibrated times read low.
        """
        return statistics.median(self.ratios) - 1.0 if self.ratios else 0.0

    def biased(self) -> bool:
        """Whether enough pairs show a bias beyond BIAS_LIMIT."""
        return len(self.ratios) >= BIAS_SAMPLES and abs(self.bias()) > BIAS_LIMIT

    def timed(self, fn):
        """fn()'s result; ``last`` becomes its seconds without the samples, and calibrated."""
        first, spent = len(self.samples), self.spent
        self._in_op = True
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._in_op = False
            taken = self.samples[first:]
            busy = time.perf_counter() - start - (self.spent - spent)
            self.last = (busy, busy * speed(taken or self.samples[-WARMUP:]))
