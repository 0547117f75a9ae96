"""Host-speed calibration for the timed pass.

On a shared host the whole machine runs at a speed that drifts by up to
half within minutes, so the wall time of identical optimizations differs
by more than any change under test. The calibrator runs a fixed unit of
work that uses none of topt's code (a sparse LU factorization and solve,
vectorized numpy, a plain Python loop, as the pipeline does) before every
fixed-point step and around every set-up and write call. The mean time of
the units that fall within a call measures the host's speed over that
call. A call's wall time, less the units run inside it, times
``REFERENCE_S`` over that mean, is the time the call would take on a host
where one unit takes ``REFERENCE_S``; that is the time reported. The wall
times are printed beside it.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from topt import optimizer

# One unit's time on the 2-vCPU machine the benchmark was written on, at
# its typical speed; it only sets the scale of the reported times.
REFERENCE_S = 0.0037


class Calibrator:
    """Runs calibration units and keeps each unit's end time and duration."""

    def __init__(self, n: int = 30):
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.eye(n)
        self._matrix = (sp.kron(line, eye) + sp.kron(eye, line)
                        + 0.01 * sp.eye(n * n)).tocsc()
        self._rhs = np.ones(n * n)
        self._angles = np.arange(20000) * 1e-3
        self.units: list[float] = []
        for _ in range(10):  # warm caches and lazy imports
            self.unit()
        self.units.clear()

    def unit(self) -> None:
        t0 = time.perf_counter()
        spla.splu(self._matrix).solve(self._rhs)
        np.sort(np.sin(self._angles))
        total = 0
        for i in range(2000):
            total += i
        self.units.append(time.perf_counter() - t0)

    def timed(self, fn, *args):
        """Call ``fn`` between two units; return its result, its wall time
        without the units run inside it, and that time at reference speed."""
        first = len(self.units)
        self.unit()
        t0 = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - t0 - sum(self.units[first + 1:])
        self.unit()
        speed = float(np.mean(self.units[first:]))
        return out, wall, wall * REFERENCE_S / speed

    @contextmanager
    def installed(self):
        """Run a unit before every fixed-point step for the block."""
        step = optimizer.fixed_point_step

        @functools.wraps(step)
        def calibrated(*args, **kwargs):
            self.unit()
            return step(*args, **kwargs)

        optimizer.fixed_point_step = calibrated
        try:
            yield self
        finally:
            optimizer.fixed_point_step = step
