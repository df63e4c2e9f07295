"""Output analysis for Gibbs chains: means, batch-means covariance, ESS.

Geometric ergodicity plus a moment condition gives a Markov-chain CLT for
chain averages; non-overlapping batch means with batch size floor(sqrt(N))
then estimates the asymptotic covariance strongly consistently, which is
what the Monte Carlo standard errors and effective sample sizes here rest
on.  The 2+delta moment condition itself is assumed, not checked.
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


def _extract(chain, g=None) -> tuple:
    """Resolve a chain-plus-selector pair to a (N, d) matrix and names.

    ``chain`` is a ChainOutput or a plain array; ``g`` may be None (all
    columns), a list of column labels, an index array, or a callable mapping
    the draw matrix to a transformed matrix.
    """
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
    if g is None:
        return mat, names
    if callable(g):
        out = np.asarray(g(mat), dtype=float)
        if out.ndim == 1:
            out = out[:, None]
        return out, [f"g{j + 1}" for j in range(out.shape[1])]
    sel = list(g)
    if all(isinstance(s, str) for s in sel):
        idx = [names.index(s) for s in sel]
        return mat[:, idx], sel
    idx = [int(s) for s in sel]
    return mat[:, idx], [names[j] for j in idx]


def monte_carlo_mean(chain, g=None) -> np.ndarray:
    """Arithmetic mean of the selected functionals over stored iterates."""
    mat, _ = _extract(chain, g)
    return mat.mean(axis=0)


def batch_means_cov(chain, g=None, batch_size: int | None = None) -> np.ndarray:
    """Non-overlapping batch-means estimate of the CLT asymptotic covariance.

    Batch size defaults to floor(sqrt(N)); the leading remainder rows are
    dropped so batches are complete.  The estimate is
    (b / (a - 1)) sum_k (xbar_k - xbar)(xbar_k - xbar)', positive
    semidefinite by construction.
    """
    mat, _ = _extract(chain, g)
    n, d = mat.shape
    b = int(np.floor(np.sqrt(n))) if batch_size is None else int(batch_size)
    if b < 1:
        raise InvalidParameterError("batch size must be >= 1")
    a = n // b
    if a < 4:
        raise InvalidParameterError(f"need at least 4 complete batches, got {a}")
    trimmed = mat[n - a * b:]
    means = trimmed.reshape(a, b, d).mean(axis=1)
    dev = means - trimmed.mean(axis=0)
    return b * (dev.T @ dev) / (a - 1)


def _degenerate_mask(mat: np.ndarray) -> np.ndarray:
    var = mat.var(axis=0)
    scale = np.maximum(np.abs(mat.mean(axis=0)) ** 2, 1.0)
    return var <= _DEGENERATE_REL_VAR * scale


def effective_sample_size(chain, g=None) -> float:
    """Multivariate effective sample size N (det Lambda / det Sigma)^{1/d}.

    Lambda is the sample covariance of the selected functionals and Sigma the
    batch-means asymptotic covariance.  Constant columns trigger the
    degenerate-variance fallback value N (with a warning); a singular Sigma
    falls back to the most conservative univariate coordinate.
    """
    mat, _ = _extract(chain, g)
    n, _ = mat.shape
    degenerate = _degenerate_mask(mat)
    if np.all(degenerate):
        warnings.warn(
            "all selected columns are constant; returning ESS = N",
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
    lam = np.cov(mat, rowvar=False).reshape(d, d)
    sig = batch_means_cov(mat)
    sign_l, logdet_l = np.linalg.slogdet(lam)
    sign_s, logdet_s = np.linalg.slogdet(sig)
    if sign_l > 0 and sign_s > 0:
        return float(n * np.exp((logdet_l - logdet_s) / d))
    # Univariate fallback per coordinate; report the most conservative one.
    per_coord = n * np.diag(lam) / np.maximum(np.diag(sig), 1e-300)
    return float(np.min(per_coord))


@dataclass
class SummaryReport:
    """Per-parameter posterior summaries plus multivariate Monte Carlo error."""

    parameters: list
    multivariate: dict
    config: dict
    assumptions: str = MOMENT_ASSUMPTION_NOTE

    def to_dict(self) -> dict:
        mv = dict(self.multivariate)
        cov = mv.get("covariance")
        if isinstance(cov, np.ndarray):
            mv["covariance"] = cov.tolist()
        return {
            "parameters": [dict(row) for row in self.parameters],
            "multivariate": mv,
            "config": dict(self.config),
            "assumptions": self.assumptions,
        }


def summarize(chain, g=None) -> SummaryReport:
    """Assemble means, sds, type-7 quantiles, MCSE and ESS for a chain.

    Per-parameter ESS values are clamped to (0, N]; constant columns are
    flagged as degenerate with MCSE 0 and ESS N.
    """
    mat, names = _extract(chain, g)
    n, d = mat.shape
    degenerate = _degenerate_mask(mat)
    if n >= 16 and not np.all(degenerate):
        live = mat[:, ~degenerate]
        sig_live = batch_means_cov(live)
        batch = int(np.floor(np.sqrt(n)))
    else:
        live = None
        sig_live = None
        batch = None

    sig_diag = np.zeros(d)
    if sig_live is not None:
        sig_diag[~degenerate] = np.diag(sig_live)

    q = np.quantile(mat, [0.025, 0.5, 0.975], axis=0)  # linear interpolation (type 7)
    means = mat.mean(axis=0)
    sds = mat.std(axis=0, ddof=1) if n > 1 else np.zeros(d)
    rows = []
    for j, name in enumerate(names):
        if degenerate[j] or sig_live is None:
            mcse, ess = 0.0, float(n)
        else:
            mcse = float(np.sqrt(sig_diag[j] / n))
            ess = float(min(n, n * mat[:, j].var(ddof=1) / max(sig_diag[j], 1e-300)))
            ess = max(ess, 1e-12)
        rows.append({
            "name": name,
            "mean": float(means[j]),
            "sd": float(sds[j]),
            "q2.5": float(q[0, j]),
            "median": float(q[1, j]),
            "q97.5": float(q[2, j]),
            "mcse": mcse,
            "ess": ess,
            "degenerate": bool(degenerate[j]),
        })

    if sig_live is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateVarianceWarning)
            mv_ess = float(min(n, effective_sample_size(mat)))
        multivariate = {"ess": mv_ess, "batch_size": batch, "covariance": sig_live}
    else:
        multivariate = {"ess": float(n), "batch_size": batch, "covariance": None}

    config = dict(getattr(chain, "meta", {}) or {})
    return SummaryReport(parameters=rows, multivariate=multivariate, config=config)
