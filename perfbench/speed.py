"""Machine-speed probe that makes timings comparable on a shared host.

On a machine shared with other tenants the same solve can take anywhere
between 1x and 1.8x its quiet time, in regimes lasting seconds.  A fixed
kernel timed right before and after a solve slows down with it, so the ratio
of solve time to kernel time is far steadier than either.  The kernel uses no
``lmcorrect`` code, so a change to the library cannot move it; it mixes the
same kinds of work as a solve: Python-level loops and dictionary traffic
around many calls into numpy on 2-element arrays, including a LAPACK SVD.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Seconds one kernel call takes on the reference machine: the 10th
# percentile of 1000 calls on a 2.1 GHz Xeon vCPU, which is its speed in a
# quiet period.  Normalised times are expressed at that speed.
REFERENCE_S = 0.0029
KERNEL_ROUNDS = 200


def kernel() -> float:
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    v = np.array([0.5, 0.25])
    seen = {}
    acc = 0.0
    for i in range(KERNEL_ROUNDS):
        u, s, vt = np.linalg.svd(a + i * 1e-3, full_matrices=False)
        v = vt.T @ ((u.T @ v) * (s / (s * s + 1.0)))
        acc += float(np.linalg.norm(v))
        seen[i % 16] = acc
    return acc + len(seen)


class NormalisedClock:
    """Sums solve seconds, each interval divided by the slowdown around it.

    The kernel runs PROBE_CALLS times when the clock is created and again
    after each interval added; an interval's slowdown is the median kernel
    time of the probes just before and just after it, over REFERENCE_S.
    """

    PROBE_CALLS = 3

    def __init__(self):
        self.measured = 0.0
        self.normalised = 0.0
        self.slowdowns: list[float] = []
        self._before = self._probe()

    def _probe(self) -> list[float]:
        samples = []
        for _ in range(self.PROBE_CALLS):
            t0 = time.perf_counter()
            kernel()
            samples.append(time.perf_counter() - t0)
        return samples

    def add(self, seconds: float) -> None:
        after = self._probe()
        slowdown = statistics.median(self._before + after) / REFERENCE_S
        self._before = after
        self.measured += seconds
        self.normalised += seconds / slowdown
        self.slowdowns.append(slowdown)
