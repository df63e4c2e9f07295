"""Geometric-ergodicity machinery exposed as computable diagnostics.

For each model this module evaluates the drift function V, the drift rate
phi and constant L (so that one Gibbs sweep satisfies E[V | state] <=
phi V(state) + L), a default small-set radius d, and the minorization
constant epsilon on the sublevel set {V <= d}.  An empirical checker
verifies the drift inequality by Monte Carlo one-step transitions.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .distributions import RngStream
from .errors import DegenerateEpsilonError, DriftHypothesisWarning, InvalidParameterError
from .gibbs import ModelSpec, _blocks, _rss, _spec, batch_transition
from .model_core import Dataset, GroupStructure, Hyperparameters

__all__ = [
    "DriftReport",
    "EmpiricalDriftResult",
    "drift_value",
    "drift_rate",
    "bsgl_drift_rate_alt",
    "drift_constant",
    "minorization_epsilon",
    "log_minorization_epsilon",
    "small_set_radius",
    "build_drift_report",
    "empirical_drift_check",
]


def _npa(n: int, p: int, alpha: float) -> float:
    return n + p + 2.0 * alpha


# ---------------------------------------------------------------------------
# Drift function
# ---------------------------------------------------------------------------

def drift_value(model_id: str, state, data: Dataset, hyper: Hyperparameters,
                groups: GroupStructure | None = None) -> float:
    """Evaluate the model's drift function V at a state.

    V sums the residual quadratic, the prior quadratic form, and
    (lambda^2 / 4)-weighted scale sums; it never involves sigma2.
    """
    spec = _spec(model_id, data.p, groups)
    _blocks(spec, data.p, groups, state)
    return float(_drift(spec, np.asarray(state.beta, dtype=float), [getattr(state, b) for b in spec.blocks],
                        data, hyper, groups))


def _drift(spec: ModelSpec, beta, scales, data: Dataset, hyper: Hyperparameters, groups):
    """V at one state, or at each row of (R, .) arrays of them."""
    if spec.quad is not None:
        quad = spec.quad(beta, *scales)
    else:
        quad = np.sum(beta * beta * spec.bands(groups, *scales)[0], axis=-1)
    value = _rss(beta, data) + quad
    for block, lam in zip(scales, spec.lambdas):
        value = value + 0.25 * getattr(hyper, lam)**2 * np.sum(block, axis=-1)
    return value


# ---------------------------------------------------------------------------
# Drift rate and constant
# ---------------------------------------------------------------------------

def _warn_if_small_n(n: int) -> None:
    if n < 3:
        warnings.warn(
            f"the sub-unit drift-rate guarantee assumes n >= 3 (got n = {n})",
            DriftHypothesisWarning,
            stacklevel=3,
        )


def drift_rate(model_id: str, n: int, p: int, alpha: float,
               M: int | None = None, lambda1: float | None = None,
               lambda2: float | None = None) -> float:
    """Exact drift rate phi for one sweep of the model's kernel.

    For the fused and group models phi = max{p / (n + p + 2 alpha - 2), 1/2}.
    The sparse-group rate adds two penalty-ratio terms and needs the largest
    group size ``M``; its guarantee phi < 1 also needs n >= 3 (warned
    otherwise).
    """
    _spec(model_id)
    _warn_if_small_n(n)
    npa = _npa(n, p, alpha)
    if npa - 2.0 <= 0:
        raise InvalidParameterError("need n + p + 2 alpha > 2")
    first = p / (npa - 2.0)
    if model_id in ("bfl", "bgl"):
        return max(first, 0.5)
    if M is None or lambda1 is None or lambda2 is None:
        raise InvalidParameterError("bsgl drift rate needs M, lambda1 and lambda2")
    return max(first, *_bsgl_ratio_terms(M, lambda1, lambda2, denom=8.0))


def _bsgl_ratio_terms(M: int, lambda1: float, lambda2: float, denom: float) -> tuple:
    ratio12 = (lambda1 / lambda2) ** 2
    ratio21 = (lambda2 / lambda1) ** 2
    common = 1.0 + ratio12 + ratio21
    return ((1.0 + ratio21) / (denom * common), (1.0 + ratio12) / (denom * M * common))


def bsgl_drift_rate_alt(n: int, p: int, alpha: float, M: int,
                        lambda1: float, lambda2: float) -> float:
    """Looser published variant of the sparse-group rate (denominators 2, 2M).

    The tighter 8/8M form of :func:`drift_rate` is what the proof supports;
    this variant is surfaced in reports for comparison.
    """
    _warn_if_small_n(n)
    first = p / (_npa(n, p, alpha) - 2.0)
    return max(first, *_bsgl_ratio_terms(M, lambda1, lambda2, denom=2.0))


def drift_constant(model_id: str, n: int, p: int, alpha: float, xi: float, yty: float,
                   M: int | None = None, lambda1: float | None = None,
                   lambda2: float | None = None) -> float:
    """Drift constant L paired with :func:`drift_rate`."""
    _spec(model_id)
    npa = _npa(n, p, alpha)
    if npa - 2.0 <= 0:
        raise InvalidParameterError("need n + p + 2 alpha > 2")
    tail = 2.0 * p * xi / (npa - 2.0)
    if model_id == "bfl":
        return yty + 0.5 * p * (npa + 2.0) + tail
    if model_id == "bgl":
        if M is None:
            raise InvalidParameterError("bgl drift constant needs M")
        return yty + 0.25 * p * (1.0 + 0.5 * M * npa) + tail
    if M is None or lambda1 is None or lambda2 is None:
        raise InvalidParameterError("bsgl drift constant needs M, lambda1 and lambda2")
    a = (1.0 + (lambda1 / lambda2) ** 2 + (lambda2 / lambda1) ** 2) * npa
    return yty + 0.25 * p * (2.0 + a * M) + tail


def small_set_radius(phi: float, L: float, multiplier: float = 1.0) -> float:
    """Default small-set level d = multiplier * 2 L / (1 - phi)."""
    if not 0 < phi < 1:
        raise InvalidParameterError("phi must lie in (0, 1)")
    if L <= 0 or multiplier < 1.0:
        raise InvalidParameterError("need L > 0 and multiplier >= 1")
    return multiplier * 2.0 * L / (1.0 - phi)


# ---------------------------------------------------------------------------
# Minorization
# ---------------------------------------------------------------------------

def _ridge_residual(data: Dataset, ridge: float) -> float:
    """y'y - y'X (X'X + ridge I)^{-1} X'y, clipped at zero for fp safety."""
    a = data.xtx + ridge * np.eye(data.p)
    sol = cho_solve(cho_factor(a, lower=True), data.xty)
    return max(data.yty - float(data.xty @ sol), 0.0)


def log_minorization_epsilon(model_id: str, d: float, data: Dataset, hyper: Hyperparameters,
                             groups: GroupStructure | None = None) -> float:
    """log of the minorization constant for the small set {V <= d}.

    Follows the coefficient-bound route: on the sublevel set each |beta_i|
    (or group norm) is bounded by d1 = 2d/lambda, giving a uniform lower
    bound on the scale-draw densities and, through a ridge-regularized
    residual, on the sigma2 density.  Strictly decreasing in d.  Computed
    in log space: epsilon itself underflows at realistic n + p.
    """
    _spec(model_id, data.p, groups)
    if d <= 0:
        raise InvalidParameterError("d must be positive")
    n, p = data.n, data.p
    l1_sq = hyper.lambda1**2
    l2_sq = hyper.lambda2**2
    d_sq = d * d
    if model_id == "bfl":
        log_prefactor = -1.0
        ridge = l1_sq / (8.0 * d)
        d1_sq = 4.0 * d_sq / l1_sq
        d2_sq = 4.0 * d_sq / l2_sq
        denom = d + 2.0 * hyper.xi + p * p * l2_sq * d2_sq + p * p * l1_sq * d1_sq
    elif model_id == "bgl":
        log_prefactor = -0.5
        ridge = l1_sq / (4.0 * d)
        d1_sq = 4.0 * d_sq / l1_sq
        denom = d + 2.0 * hyper.xi + groups.K**2 * l1_sq * d1_sq
    else:
        log_prefactor = -1.0
        ridge = (l1_sq + l2_sq) / (4.0 * d)
        d1_sq = 4.0 * d_sq / l1_sq
        d2_sq = 4.0 * d_sq / l2_sq
        denom = d + 2.0 * hyper.xi + p * p * l2_sq * d2_sq + groups.K**2 * l1_sq * d1_sq
    numer = _ridge_residual(data, ridge) + 2.0 * hyper.xi
    if numer <= 0.0:
        raise DegenerateEpsilonError(
            "minorization numerator y'y - y'X(X'X + cI)^{-1}X'y + 2 xi is not positive; "
            "set xi > 0 or supply a response with signal outside the ridge fit"
        )
    exponent = 0.5 * (n + p) + hyper.alpha
    return log_prefactor + exponent * (math.log(numer) - math.log(denom))


def minorization_epsilon(model_id: str, d: float, data: Dataset, hyper: Hyperparameters,
                         groups: GroupStructure | None = None) -> float:
    """Minorization constant for the small set {V <= d}: the exp of
    :func:`log_minorization_epsilon`, which underflows to 0.0 once
    log epsilon falls below about -745."""
    return math.exp(log_minorization_epsilon(model_id, d, data, hyper, groups))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class DriftReport:
    """Drift and minorization constants for one model instance.

    ``log_epsilon`` is exact where ``epsilon``, its exp, may underflow to 0.
    """

    model_id: str
    phi: float
    L: float
    d: float
    log_epsilon: float
    formulas_inputs: dict
    phi_alt: float | None = None  # looser sparse-group variant, None otherwise
    multiplier: float = 1.0

    @property
    def epsilon(self) -> float:
        return math.exp(self.log_epsilon)

    def to_dict(self) -> dict:
        return {
            "model": self.model_id,
            "phi": self.phi,
            "phi_alt": self.phi_alt,
            "L": self.L,
            "d": self.d,
            "epsilon": self.epsilon,
            "log_epsilon": self.log_epsilon,
            "multiplier": self.multiplier,
            "inputs": dict(self.formulas_inputs),
        }


def build_drift_report(model_id: str, data: Dataset, hyper: Hyperparameters,
                       groups: GroupStructure | None = None,
                       multiplier: float = 1.0) -> DriftReport:
    """Assemble phi, L, d and epsilon for one instance."""
    _spec(model_id)
    n, p = data.n, data.p
    M = groups.max_size if groups is not None else None
    K = groups.K if groups is not None else None
    phi = drift_rate(model_id, n, p, hyper.alpha, M=M, lambda1=hyper.lambda1, lambda2=hyper.lambda2)
    L = drift_constant(model_id, n, p, hyper.alpha, hyper.xi, data.yty,
                       M=M, lambda1=hyper.lambda1, lambda2=hyper.lambda2)
    d = small_set_radius(phi, L, multiplier)
    log_eps = log_minorization_epsilon(model_id, d, data, hyper, groups)
    phi_alt = None
    if model_id == "bsgl":
        phi_alt = bsgl_drift_rate_alt(n, p, hyper.alpha, M, hyper.lambda1, hyper.lambda2)
    inputs = {
        "n": n, "p": p, "K": K, "M": M,
        "alpha": hyper.alpha, "xi": hyper.xi,
        "lambda1": hyper.lambda1, "lambda2": hyper.lambda2,
        "yty": data.yty,
    }
    return DriftReport(model_id=model_id, phi=phi, L=L, d=d, log_epsilon=log_eps,
                       formulas_inputs=inputs, phi_alt=phi_alt, multiplier=multiplier)


# ---------------------------------------------------------------------------
# Empirical drift check
# ---------------------------------------------------------------------------

@dataclass
class EmpiricalDriftResult:
    """Per-state Monte Carlo verification of E[V | state] <= phi V + L."""

    rows: list
    replicates: int
    phi: float
    L: float
    slack_se: float = 3.0

    @property
    def all_satisfied(self) -> bool:
        return all(r["satisfied"] for r in self.rows)

    @property
    def n_violations(self) -> int:
        return sum(not r["satisfied"] for r in self.rows)


def default_workers() -> int:
    """Worker cap from the PLG_THREADS environment variable (>= 1)."""
    raw = os.environ.get("PLG_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def empirical_drift_check(model_id: str, states, data: Dataset, hyper: Hyperparameters,
                          groups: GroupStructure | None = None,
                          replicates: int = 5000, rng: RngStream | None = None,
                          n_workers: int | None = None,
                          slack_se: float = 3.0) -> EmpiricalDriftResult:
    """Monte Carlo check of the drift inequality at each supplied state.

    For each state, averages V over ``replicates`` independent one-step
    transitions and tests Ehat[V] <= phi V(state) + L + slack_se * mc_se.
    States are distributed across threads, each with its own substream.
    """
    spec = _spec(model_id)
    if replicates < 1000:
        raise InvalidParameterError("replicates must be at least 1000")
    if rng is None:
        rng = RngStream(0, 0)
    n_workers = default_workers() if n_workers is None else max(1, int(n_workers))
    M = groups.max_size if groups is not None else None
    phi = drift_rate(model_id, data.n, data.p, hyper.alpha,
                     M=M, lambda1=hyper.lambda1, lambda2=hyper.lambda2)
    L = drift_constant(model_id, data.n, data.p, hyper.alpha, hyper.xi, data.yty,
                       M=M, lambda1=hyper.lambda1, lambda2=hyper.lambda2)

    def one_state(idx_state):
        idx, state = idx_state
        sub = rng.substream(idx)
        arrs = batch_transition(model_id, state, data, hyper, groups, sub, replicates)
        v = _drift(spec, arrs["beta"], [arrs[b] for b in spec.blocks], data, hyper, groups)
        v0 = drift_value(model_id, state, data, hyper, groups)
        est = float(np.mean(v))
        mc_se = float(np.std(v, ddof=1) / np.sqrt(replicates))
        bound = phi * v0 + L
        return {
            "v_state": v0,
            "estimate": est,
            "mc_se": mc_se,
            "bound": bound,
            "satisfied": est <= bound + slack_se * mc_se,
        }

    items = list(enumerate(states))
    if n_workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            rows = list(pool.map(one_state, items))
    else:
        rows = [one_state(item) for item in items]
    return EmpiricalDriftResult(rows=rows, replicates=replicates, phi=phi, L=L, slack_se=slack_se)
