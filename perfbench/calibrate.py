"""Fixed reference kernels that measure how fast the machine runs right now.

On a shared 2-vCPU machine the same code runs up to 1.5-2x slower, for
fractions of a second up to minutes at a time, when other tenants load the
host.  A :class:`SpeedClock` times a kernel at marks between operations (and
around chains, start solves and sweeps inside them); each stretch of
measured time between two marks is divided by the mean slowdown of those
marks (kernel time over its nominal time), so reported times read in
seconds at the reference speed.  Raw times stay in the result file.

Interpreter-bound and BLAS-bound code slow down by different factors, so
each workload names the kernel that does its kind of work.  No kernel calls
plgibbs, so no change to the package can move it.
"""

from __future__ import annotations

import functools
import time

import numpy as np
from scipy.linalg import cho_factor

from arith import timeline

# An optional mark is skipped within this many seconds of the last one.
MIN_GAP = 0.5


@functools.cache
def _operands():
    """The kernels' fixed matrices, built on first use so importing this module is cheap."""
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((150, 150))
    v = rng.standard_normal(150)
    b = rng.standard_normal((600, 600))
    return a, a @ a.T + 150.0 * np.eye(150), v, b @ b.T + 600.0 * np.eye(600)


def interpreted() -> float:
    """Interpreter-bound work, as in small-p sweeps, FISTA steps and the verify suites."""
    a, spd, v, _ = _operands()
    s = 0
    for i in range(120_000):
        s += (i * i) % 7
    x = np.full(6, 0.5)
    for _ in range(1200):
        x = np.sqrt(x * 1.0001) + np.abs(x - 0.25)
    for _ in range(16):
        cho_factor(spd, lower=True)
    for _ in range(400):
        v = a @ v
        v = v / np.linalg.norm(v)
    return float(s) + float(x.sum()) + float(v[0])


def dense() -> float:
    """BLAS-bound work, as in the p >> n sweep's 1000 x 1000 Cholesky factor."""
    spd_large = _operands()[3]
    total = 0.0
    for _ in range(5):
        total += float(cho_factor(spd_large, lower=True)[0][-1, -1])
    return total


# Median kernel times (s) on the reference machine (2-vCPU Intel Xeon VM,
# OpenBLAS on one thread) in its fast phase.
KERNELS = {"interpreted": (interpreted, 0.020), "dense": (dense, 0.020)}


def slowdown(kind: str) -> float:
    """How many times slower than nominal the ``kind`` kernel runs now."""
    fn, nominal = KERNELS[kind]
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) / nominal


class SpeedClock:
    """Calibration marks on the ``time.perf_counter`` timeline."""

    def __init__(self, kind: str):
        self.kind = kind
        self.marks: list[tuple[float, float, float]] = []  # (start, end, slowdown)

    def mark(self, force: bool = True) -> None:
        """Time the kernel now; an optional mark is skipped within ``MIN_GAP`` of the last one."""
        if not force and self.marks and time.perf_counter() - self.marks[-1][1] < MIN_GAP:
            return
        t0 = time.perf_counter()
        f = slowdown(self.kind)
        self.marks.append((t0, time.perf_counter(), f))

    def slowdowns(self) -> list:
        return [m[2] for m in self.marks]

    def timeline(self, scale: bool = True):
        """``arith.timeline`` over the marks taken so far."""
        return timeline(self.marks, scale)

    def raw(self, a: float, b: float) -> float:
        """Measured seconds in [a, b], leaving out the marks inside it."""
        at = self.timeline(scale=False)
        return at(b) - at(a)

    def scaled(self, a: float, b: float) -> float:
        """Seconds in [a, b] at the reference speed, leaving out the marks inside it."""
        at = self.timeline()
        return at(b) - at(a)
