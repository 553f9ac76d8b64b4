"""Machine-speed reference, for timings that hold still on a shared machine.

The machine this benchmark was tuned on is a 2-vCPU virtual machine shared
with other tenants.  Its speed drifts by up to 1.8x between 10-second windows
and stays slow or fast for minutes, and CPU time moves with wall time, so no
statistic of raw op times is steady from run to run.  A fixed reference
kernel, doing the same kind of work as the library (small numpy arrays driven
from Python), slows down with it.

So a run times the kernel between rounds, and scales its timings, setup_s
included, by NOMINAL_S over the mean kernel time of the run.  A scaled time
is the time the op would take on this machine when the kernel takes
NOMINAL_S.  The mean, not the median, of the samples is used: the machine
slows in bursts, and op times include the bursts.  The kernel is bench code:
a change to the library does not move it, and so cannot hide a slowdown in
it.  README.md gives the raw and scaled spreads of the two baselines in
baselines/; scaling narrows them most on decoy_roundtrip and short_runs.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Median kernel time on the tuning machine (Xeon, 2 vCPU, Python 3.11, numpy
# 2.4) in a quiet period.  Any constant would do; this one keeps scaled times
# close to raw times there.
NOMINAL_S = 1.5e-3
SAMPLE_EVERY_S = 0.25  # take a sample between rounds at most this often
SAMPLE_RUNS = 3        # kernel runs per sample; the sample is their median

_FIELD = np.linspace(0.0, 1.0, 256).reshape(64, 4)


def reference_kernel() -> float:
    acc = 0.0
    for i in range(100):
        p = 1.0 - np.exp(-_FIELD * (1 + i % 5))
        acc += float(np.where(_FIELD > 0.5, p, 1.0 - p).prod(axis=1).sum())
        acc += sum(math.sqrt(k + i) for k in range(16))
    return acc


class Speedometer:
    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        runs = []
        for _ in range(SAMPLE_RUNS):
            start = time.perf_counter()
            reference_kernel()
            runs.append(time.perf_counter() - start)
        self.samples.append(statistics.median(runs))
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self) -> float:
        """NOMINAL_S over the mean sampled kernel time."""
        return NOMINAL_S / statistics.fmean(self.samples)
