"""A fixed reference kernel that measures how fast the machine runs right now.

On a VM that shares its cores with other guests, the speed of the guest
drifts by up to 1.5x over minutes: the 64^2 lump solve took between 4.2 s
and 7.2 s within one hour with no other process running, and CPU time
tracked wall time, so the guest was slowed, not descheduled.  Single runs
cannot average that drift away.  A run therefore also times this kernel
before every part of its timed operation and reports its times scaled to
the speed at which the kernel takes ``REFERENCE_S``; the unscaled times are
printed next to them.

The kernel uses numpy and scipy only, so no change to logdiff can move it.
It mixes the three kinds of work the workloads do, in roughly equal shares:
SuperLU solves of a 2D implicit-diffusion system, small-array numpy
reductions and an interpreter loop.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

# Mean kernel time on the 2-vCPU x86-64 VM where the bounds were set.
REFERENCE_S = 0.1
# Kernel time kept at this share of the timed time, so that samples are
# spread over the run in proportion to the work they stand for.
SHARE = 0.1


class ReferenceKernel:
    def __init__(self):
        n = 63
        d1 = sp.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)], [-1, 0, 1])
        eye = sp.identity(n)
        self.matrix = (sp.identity(n * n) - 0.1 * (sp.kron(d1, eye) + sp.kron(eye, d1))).tocsc()
        self.rhs = np.ones(n * n)
        self.field = np.random.default_rng(0).random((65, 65)) + 1.0
        self.samples: list[float] = []

    def keep_up(self, timed_s: float) -> None:
        """Sample once, then until the kernel has run for ``SHARE * timed_s``."""
        self.sample()
        while sum(self.samples) < SHARE * timed_s:
            self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        for _ in range(6):
            spsolve(self.matrix, self.rhs)
        for _ in range(600):
            (np.gradient(self.field)[0] ** 2 / self.field).sum()
        total = 0
        for i in range(150_000):
            total += i * i
        self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Factor that converts this run's times to the reference speed."""
        return REFERENCE_S / float(np.mean(self.samples))
