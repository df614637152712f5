"""Machine-speed probe: fixed kernels timed in the worker next to each
pipeline round, used to express times in reference seconds.

On a 2-vCPU Xeon VM shared with other tenants, one thread ran the same
pipelines 1.7x to 3x slower at one time than at another within one hour
(README, steadiness study).  The
kernels do the kinds of work the pipelines do and use numpy and scipy only,
never tfdw, so a change to the program cannot move them.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import lu_factor

# Reference times of the two kernels, near their shortest times on that
# VM in a fast period.  A time t measured next to a probe p of the
# kernel doing the same kind of work is reported as t * REFERENCE_S[kind] / p.
REFERENCE_S = {"dense": 0.025, "interp": 0.034}


class Probe:
    """Two kernels: ``dense`` (a complex Hermitian eigensolve and an LU of
    order 384, the work of the fiber scans and the corrector solves) and
    ``interp`` (small 3-D FFTs with elementwise products and a Python loop,
    the work of the grid operators, MINRES and the solvers' glue).  In the
    slow periods of that VM the interpreted ``eps-sweep`` pipeline slowed
    2.5x and the eigensolve-bound ``cb-table`` pipeline 1.7x, so each time
    is scaled by the kernel that does its kind of work."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        a = rng.standard_normal((384, 384)) + 1j * rng.standard_normal((384, 384))
        self.hermitian = a + a.conj().T
        self.general = rng.standard_normal((384, 384)) + 384.0 * np.eye(384)
        self.field = rng.standard_normal((32, 4, 4))
        self.symbol = rng.standard_normal((32, 4, 4))

    def dense(self):
        np.linalg.eigvalsh(self.hermitian)
        lu_factor(self.general)

    def interp(self):
        for _ in range(300):
            np.real(np.fft.ifftn(self.symbol * np.fft.fftn(self.field)))
        s = 0
        for i in range(200000):
            s += i * i
        return s

    def measure(self, repeats=9):
        """Shortest time of each kernel over ``repeats`` tries, in seconds.
        Contention from other tenants came in bursts of about half a second that only
        slow a kernel down; the minimum keeps them out of the probe."""
        times = {"dense": [], "interp": []}
        for _ in range(repeats):
            for kind, kernel in (("dense", self.dense), ("interp", self.interp)):
                start = time.perf_counter()
                kernel()
                times[kind].append(time.perf_counter() - start)
        return {kind: min(t) for kind, t in times.items()}
