"""Benchmark inputs, generated from the workload seed alone.

The shapes follow the regimes the samplers are used in: the README
quick-start problem (small p), a square design (p = n) and a wide design
(p >> n).  Every design draws X and the noise from ``numpy.random.default_rng(seed)``,
so one seed always gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GROUP_SIZE = 10


@dataclass(frozen=True)
class Problem:
    """A regression problem: response, design and the group sizes used by bgl/bsgl."""

    y: np.ndarray
    X: np.ndarray
    groups: tuple

    @property
    def p(self) -> int:
        return self.X.shape[1]


def quickstart_problem(seed: int) -> Problem:
    """n = 40, p = 6, groups (2, 2, 2), beta = (2, 2, 0, 0, -1.5, -1.5)."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((40, 6))
    y = X @ np.array([2.0, 2.0, 0.0, 0.0, -1.5, -1.5]) + rng.standard_normal(40)
    return Problem(y=y, X=X, groups=(2, 2, 2))


def sparse_problem(seed: int, n: int, p: int) -> Problem:
    """Groups of ``GROUP_SIZE``; 10 nonzero coefficients in two half-groups.

    beta_1..beta_5 = 2 and beta_{p/2+1}..beta_{p/2+5} = -1.5, the README's
    two effect sizes, so every model has a partly active group to find.
    """
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:5] = 2.0
    beta[p // 2:p // 2 + 5] = -1.5
    y = X @ beta + rng.standard_normal(n)
    return Problem(y=y, X=X, groups=(GROUP_SIZE,) * (p // GROUP_SIZE))
