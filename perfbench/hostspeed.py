"""A fixed piece of numpy work that gauges how fast the host runs right now.

The reference machine shares its host with other tenants, and its speed
changes in phases that last from seconds to minutes: the same solve takes
5.3 s in one run and 6.2 s in the next, and its CPU time moves with it.
The benchmark times this work after every solve and scales its time
metrics to the speed at which the work takes `REFERENCE_S`.  The work does
not touch the solver, so a change to the solver moves the scaled metrics
by the same share as the raw ones.

The work is a real FFT and its inverse along the rows of a 256 x 512
array, like the solver's transforms; a Python loop over 300 short rows,
like its sweeps; and one pass over a 16 MB vector, which sits in the
shared L3 cache only while other tenants leave it room, like the solver's
full-field and Krylov passes.  Without that pass the work does not slow
when the memory-bound `cross-k128` solve does.  Its arrays take about
17 MB and are made once.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# about the work's mean time on the reference machine; the scaled metrics
# read roughly like raw seconds there
REFERENCE_S = 0.005


class ReferenceWork:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._block = rng.standard_normal((256, 512))
        self._rows = rng.standard_normal((300, 64))
        self._vector = rng.standard_normal(2 * 2 ** 20)

    def time(self) -> tuple[float, float]:
        """Wall and CPU time of one pass of the work."""
        start, cpu = time.perf_counter(), time.process_time()
        block = self._block
        np.fft.irfft(np.fft.rfft(block, axis=1), n=block.shape[1], axis=1)
        acc = np.zeros(self._rows.shape[1])
        for row in self._rows:
            acc = 0.5 * acc + row
        self._vector.sum()
        return time.perf_counter() - start, time.process_time() - cpu


def scaled_median(times, rounds, clock: int) -> float:
    """Median over solves of time * REFERENCE_S / t_ref.

    `times[i]` is solve i's time, and `rounds[i]` the reference timings
    (wall, cpu) made right after it.  `t_ref` is the mean, on the same
    clock (0 wall, 1 CPU), of the timings made just before and just after
    the solve, so that each solve is scaled by the host's speed around it.
    """
    scaled = []
    for i, value in enumerate(times):
        around = [t for r in rounds[max(i - 1, 0):i + 1] for t in r]
        scaled.append(value * REFERENCE_S
                      / statistics.fmean(t[clock] for t in around))
    return statistics.median(scaled)
