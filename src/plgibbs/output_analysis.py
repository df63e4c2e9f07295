"""Output analysis for Gibbs chains: means, batch-means variances, ESS.

Geometric ergodicity plus a moment condition gives a Markov-chain CLT for
chain averages; non-overlapping batch means with batch size floor(sqrt(N))
then estimates the asymptotic variance strongly consistently, which is
what the Monte Carlo standard errors and effective sample sizes here rest
on.  The 2+delta moment condition itself is assumed, not checked.

``summarize`` works column by column: every MCSE and ESS comes from that
column's own batch-means variance, so its cost grows with the number of
columns d, not d^2.  The multivariate ESS of Vats, Flegal & Jones (2019)
needs more batches than non-constant columns; where the chain has fewer,
``summarize`` reports it as None rather than a stand-in number.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVarianceWarning, InvalidParameterError

__all__ = [
    "SummaryReport",
    "monte_carlo_mean",
    "batch_means_cov",
    "effective_sample_size",
    "summarize",
]

MOMENT_ASSUMPTION_NOTE = (
    "Monte Carlo errors assume the chain CLT, i.e. geometric ergodicity plus "
    "a finite 2+delta posterior moment for each reported functional; the "
    "moment condition is assumed rather than verified."
)

# Relative variance below which a column is treated as constant.
_DEGENERATE_REL_VAR = 1e-24


def _extract(chain) -> tuple:
    """A ChainOutput or plain array as a (N, d) float matrix plus column names."""
    if hasattr(chain, "draws"):
        mat = np.asarray(chain.draws, dtype=float)
        names = list(chain.column_labels)
    else:
        mat = np.asarray(chain, dtype=float)
        if mat.ndim == 1:
            mat = mat[:, None]
        names = [f"g{j + 1}" for j in range(mat.shape[1])]
    if mat.shape[0] < 1:
        raise InvalidParameterError("chain is empty")
    return mat, names


def monte_carlo_mean(chain) -> np.ndarray:
    """Arithmetic mean of each column over stored iterates."""
    mat, _ = _extract(chain)
    return mat.mean(axis=0)


def _batch_deviations(mat: np.ndarray) -> tuple:
    """Deviations of the batch means from the overall mean, and the batch size.

    Batch size is floor(sqrt(N)); the leading remainder rows are dropped so
    the a = N // b batches are complete.  Returns the (a, d) deviations.
    """
    n, d = mat.shape
    b = int(np.floor(np.sqrt(n)))
    a = n // b
    if a < 4:
        raise InvalidParameterError(f"need at least 4 complete batches, got {a}")
    trimmed = mat[n - a * b:]
    means = trimmed.reshape(a, b, d).mean(axis=1)
    return means - trimmed.mean(axis=0), b


def batch_means_cov(chain) -> np.ndarray:
    """Non-overlapping batch-means estimate of the CLT asymptotic covariance,
    (b / (a - 1)) sum_k (xbar_k - xbar)(xbar_k - xbar)', positive
    semidefinite by construction."""
    dev, b = _batch_deviations(_extract(chain)[0])
    return b * (dev.T @ dev) / (dev.shape[0] - 1)


def _batch_means_var(mat: np.ndarray) -> tuple:
    """The diagonal of ``batch_means_cov``, one column at a time, and the
    batch size."""
    dev, b = _batch_deviations(mat)
    return b * (dev * dev).sum(axis=0) / (dev.shape[0] - 1), b


def _degenerate_mask(mat: np.ndarray) -> np.ndarray:
    var = mat.var(axis=0)
    scale = np.maximum(np.abs(mat.mean(axis=0)) ** 2, 1.0)
    return var <= _DEGENERATE_REL_VAR * scale


def effective_sample_size(chain) -> float:
    """Multivariate effective sample size N (det Lambda / det Sigma)^{1/d}.

    Lambda is the sample covariance of the columns and Sigma their
    batch-means asymptotic covariance.  Constant columns are dropped (with a
    warning); if all are constant the policy value N is returned.  Raises
    InvalidParameterError when the a batches do not exceed the d remaining
    columns or either covariance is singular: the estimate is then undefined.
    """
    mat, _ = _extract(chain)
    n, _ = mat.shape
    degenerate = _degenerate_mask(mat)
    if np.all(degenerate):
        warnings.warn(
            "all columns are constant; returning ESS = N",
            DegenerateVarianceWarning,
            stacklevel=2,
        )
        return float(n)
    if np.any(degenerate):
        warnings.warn(
            "dropping constant columns from the ESS computation",
            DegenerateVarianceWarning,
            stacklevel=2,
        )
        mat = mat[:, ~degenerate]
    d = mat.shape[1]
    dev, b = _batch_deviations(mat)
    a = dev.shape[0]
    if a <= d:
        raise InvalidParameterError(
            f"multivariate ESS needs more batches than non-constant columns, got {a} <= {d}"
        )
    lam = np.cov(mat, rowvar=False).reshape(d, d)
    sig = b * (dev.T @ dev) / (a - 1)
    sign_l, logdet_l = np.linalg.slogdet(lam)
    sign_s, logdet_s = np.linalg.slogdet(sig)
    if sign_l <= 0 or sign_s <= 0:
        raise InvalidParameterError("singular sample or batch-means covariance; multivariate ESS undefined")
    return float(n * np.exp((logdet_l - logdet_s) / d))


@dataclass
class SummaryReport:
    """Per-parameter posterior summaries plus the multivariate ESS."""

    parameters: list
    multivariate: dict
    config: dict
    assumptions: str = MOMENT_ASSUMPTION_NOTE

    def to_dict(self) -> dict:
        return {
            "parameters": [dict(row) for row in self.parameters],
            "multivariate": dict(self.multivariate),
            "config": dict(self.config),
            "assumptions": self.assumptions,
        }


def summarize(chain) -> SummaryReport:
    """Assemble means, sds, type-7 quantiles, MCSE and ESS for a chain.

    Per-parameter ESS values are clamped to (0, N]; constant columns are
    flagged as degenerate with MCSE 0 and ESS N, as is every column of a
    chain shorter than 16 rows.  From 16 rows on, ``multivariate["ess"]``
    is None unless the batches outnumber the non-constant columns and both
    covariances are nonsingular.
    """
    mat, names = _extract(chain)
    n, d = mat.shape
    degenerate = _degenerate_mask(mat)
    q = np.quantile(mat, [0.025, 0.5, 0.975], axis=0)  # linear interpolation (type 7)
    means = mat.mean(axis=0)
    var = mat.var(axis=0, ddof=1) if n > 1 else np.zeros(d)
    sds = np.sqrt(var)
    mcse = np.zeros(d)
    ess = np.full(d, float(n))
    multivariate = {"ess": float(n), "batch_size": None}

    live = ~degenerate
    if n >= 16 and np.any(live):
        sig, batch = _batch_means_var(mat)
        sig = sig[live]
        mcse[live] = np.sqrt(sig / n)
        ess[live] = np.maximum(np.minimum(n, n * var[live] / np.maximum(sig, 1e-300)), 1e-12)
        mv_ess = None
        if n // batch > np.count_nonzero(live):
            try:
                mv_ess = float(min(n, effective_sample_size(mat[:, live])))
            except InvalidParameterError:  # singular covariance
                pass
        multivariate = {"ess": mv_ess, "batch_size": batch}

    rows = [
        {
            "name": name,
            "mean": float(means[j]),
            "sd": float(sds[j]),
            "q2.5": float(q[0, j]),
            "median": float(q[1, j]),
            "q97.5": float(q[2, j]),
            "mcse": float(mcse[j]),
            "ess": float(ess[j]),
            "degenerate": bool(degenerate[j]),
        }
        for j, name in enumerate(names)
    ]
    config = dict(getattr(chain, "meta", {}) or {})
    return SummaryReport(parameters=rows, multivariate=multivariate, config=config)
