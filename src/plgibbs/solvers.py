"""Penalized least-squares solvers and the drift-minimizing starting values.

All three solvers minimize the *unhalved* residual sum of squares plus their
penalty with a monotone accelerated proximal-gradient method (backtracking
line search).  Each penalty has an exact proximal operator: soft threshold,
block soft threshold, and for the fused penalty the direct non-iterative
taut-string total-variation prox composed with a soft threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameterError
from .gibbs import SPECS
from .model_core import Dataset, FusedState, GroupState, GroupStructure, Hyperparameters, SparseGroupState

__all__ = [
    "PenalizedSolution",
    "soft_threshold",
    "block_soft_threshold",
    "tv1d_prox",
    "fused_lasso_solve",
    "group_lasso_solve",
    "sparse_group_lasso_solve",
    "default_start_bfl",
    "default_start_bgl",
    "default_start_bsgl",
    "EPS_FLOOR",
]

# Strictly positive floor for starting scale variances whose minimizer is 0.
EPS_FLOOR = 1e-8


@dataclass
class PenalizedSolution:
    """Minimizer estimate with its objective value and solver bookkeeping."""

    beta_hat: np.ndarray
    objective: float
    iterations: int
    converged: bool
    kkt_residual: float
    objective_trace: np.ndarray


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Elementwise prox of t * |.|: shrink magnitudes by t toward zero."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def block_soft_threshold(v: np.ndarray, t: float, groups: GroupStructure) -> np.ndarray:
    """Groupwise prox of t * ||.||_2: shrink each block norm by t."""
    out = np.array(v, dtype=float)
    for sl in groups.slices:
        norm = float(np.linalg.norm(out[sl]))
        if norm <= t:
            out[sl] = 0.0
        else:
            out[sl] *= 1.0 - t / norm
    return out


def tv1d_prox(v: np.ndarray, lam: float) -> np.ndarray:
    """argmin_x 0.5 ||x - v||^2 + lam * sum_i |x_{i+1} - x_i|.

    Direct non-iterative taut-string pass: maintains the running tube
    constraints and emits each flat segment as soon as a jump is forced.
    O(n) time, exact up to floating point.
    """
    y = np.asarray(v, dtype=float)
    n = y.shape[0]
    if lam < 0:
        raise InvalidParameterError("lam must be nonnegative")
    if n == 1 or lam == 0.0:
        return y.copy()
    x = np.empty(n)
    # Segment bookkeeping: k0 is the segment start, kminus/kplus the last
    # indices where the lower/upper candidate values were updated.
    k = k0 = kminus = kplus = 0
    vmin = y[0] - lam
    vmax = y[0] + lam
    umin = lam
    umax = -lam
    while True:
        while k == n - 1:
            if umin < 0.0:  # the lower candidate breaks: negative jump
                x[k0:kminus + 1] = vmin
                k = k0 = kminus = kminus + 1
                vmin = y[k]
                umin = lam
                umax = y[k] + lam - vmax
            elif umax > 0.0:  # the upper candidate breaks: positive jump
                x[k0:kplus + 1] = vmax
                k = k0 = kplus = kplus + 1
                vmax = y[k]
                umax = -lam
                umin = y[k] - lam - vmin
            else:
                x[k0:n] = vmin + umin / (k - k0 + 1)
                return x
        if y[k + 1] + umin < vmin - lam:  # forced negative jump
            x[k0:kminus + 1] = vmin
            k = k0 = kminus = kplus = kminus + 1
            vmin = y[k]
            vmax = y[k] + 2.0 * lam
            umin = lam
            umax = -lam
        elif y[k + 1] + umax > vmax + lam:  # forced positive jump
            x[k0:kplus + 1] = vmax
            k = k0 = kminus = kplus = kplus + 1
            vmin = y[k] - 2.0 * lam
            vmax = y[k]
            umin = lam
            umax = -lam
        else:  # extend the current segment
            k += 1
            umin += y[k] - vmin
            umax += y[k] - vmax
            if umin >= lam:
                vmin += (umin - lam) / (k - k0 + 1)
                umin = lam
                kminus = k
            if umax <= -lam:
                vmax += (umax + lam) / (k - k0 + 1)
                umax = -lam
                kplus = k


# ---------------------------------------------------------------------------
# Monotone accelerated proximal gradient
# ---------------------------------------------------------------------------

def _mfista(
    data: Dataset,
    penalty: Callable[[np.ndarray], float],
    prox: Callable[[np.ndarray, float], np.ndarray],
    tol: float,
    tol_obj: float,
    max_iter: int,
) -> PenalizedSolution:
    """Monotone FISTA on f(b) = ||y - X b||^2 plus the given penalty."""
    xtx, xty = data.xtx, data.xty

    def f(b):
        r = data.y - data.X @ b
        return float(r @ r)

    def grad(b):
        return 2.0 * (xtx @ b - xty)

    def objective(b):
        return f(b) + penalty(b)

    lip = 2.0 * float(np.linalg.norm(data.X, 2)) ** 2
    t_ref = 1.0 / max(lip, 1e-12)

    def kkt_residual(b):
        step = prox(b - t_ref * grad(b), t_ref)
        return float(np.max(np.abs(b - step))) / t_ref

    x = np.zeros(data.p)
    z_momentum = x.copy()
    obj = objective(x)
    trace = [obj]
    t_k = 1.0
    step_size = t_ref
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        g = grad(z_momentum)
        f_y = f(z_momentum)
        while True:  # backtracking on the quadratic upper bound
            cand = prox(z_momentum - step_size * g, step_size)
            diff = cand - z_momentum
            if f(cand) <= f_y + float(g @ diff) + float(diff @ diff) / (2.0 * step_size) + 1e-12:
                break
            step_size *= 0.5
            if step_size < 1e-18:
                break
        cand_obj = objective(cand)
        # Monotone update: never let the incumbent objective increase.
        if cand_obj <= obj:
            x_new, obj_new = cand, cand_obj
        else:
            x_new, obj_new = x, obj
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k))
        z_momentum = x_new + (t_k / t_next) * (cand - x_new) + ((t_k - 1.0) / t_next) * (x_new - x)
        rel_change = abs(obj - obj_new) / max(abs(obj), 1.0)
        x = x_new
        obj = obj_new
        trace.append(obj)
        t_k = t_next
        if rel_change <= tol_obj:
            res = kkt_residual(x)
            if res <= tol:
                converged = True
                break
    res = kkt_residual(x)
    return PenalizedSolution(
        beta_hat=x, objective=objective(x), iterations=it,
        converged=converged and res <= tol, kkt_residual=res,
        objective_trace=np.asarray(trace),
    )


def fused_lasso_solve(
    data: Dataset, lambda1: float, lambda2: float,
    tol: float = 1e-6, max_iter: int = 50_000, tol_obj: float = 1e-8,
) -> PenalizedSolution:
    """Minimize ||y - X b||^2 + lambda1 sum|b_j| + lambda2 sum|b_{j+1} - b_j|.

    The fused prox is exact: total-variation prox first, then soft
    thresholding.  Either weight may be zero (plain-lasso or pure-fusion
    reductions).  Non-convergence within ``max_iter`` is reported through
    ``converged=False`` with the best iterate returned.
    """
    if lambda1 < 0 or lambda2 < 0:
        raise InvalidParameterError("lambda1 and lambda2 must be nonnegative")

    def penalty(b):
        pen = lambda1 * float(np.sum(np.abs(b)))
        if b.shape[0] > 1:
            pen += lambda2 * float(np.sum(np.abs(np.diff(b))))
        return pen

    def prox(v, t):
        return soft_threshold(tv1d_prox(v, t * lambda2), t * lambda1)

    return _mfista(data, penalty, prox, tol, tol_obj, max_iter)


def group_lasso_solve(
    data: Dataset, groups: GroupStructure, lam: float,
    tol: float = 1e-6, max_iter: int = 50_000, tol_obj: float = 1e-8,
) -> PenalizedSolution:
    """Minimize ||y - X b||^2 + lam * sum_k ||b_{G_k}||_2."""
    if lam <= 0:
        raise InvalidParameterError("lam must be positive")
    groups.check_p(data.p)

    def penalty(b):
        return lam * float(np.sum(np.sqrt(groups.group_sq_norms(b))))

    def prox(v, t):
        return block_soft_threshold(v, t * lam, groups)

    return _mfista(data, penalty, prox, tol, tol_obj, max_iter)


def sparse_group_lasso_solve(
    data: Dataset, groups: GroupStructure, lambda1: float, lambda2: float,
    tol: float = 1e-6, max_iter: int = 50_000, tol_obj: float = 1e-8,
) -> PenalizedSolution:
    """Minimize ||y - X b||^2 + lambda1 ||b||_1 + lambda2 sum_k ||b_{G_k}||_2.

    ``lambda1`` or ``lambda2`` may be zero (plain group lasso / plain lasso
    reductions); they may not both be negative.
    """
    if lambda1 < 0 or lambda2 < 0 or (lambda1 == 0 and lambda2 == 0):
        raise InvalidParameterError("need lambda1, lambda2 >= 0, not both zero")
    groups.check_p(data.p)

    def penalty(b):
        return lambda1 * float(np.sum(np.abs(b))) + lambda2 * float(
            np.sum(np.sqrt(groups.group_sq_norms(b)))
        )

    def prox(v, t):
        return block_soft_threshold(soft_threshold(v, t * lambda1), t * lambda2, groups)

    return _mfista(data, penalty, prox, tol, tol_obj, max_iter)


# ---------------------------------------------------------------------------
# Default starting values (drift-function minimizers)
# ---------------------------------------------------------------------------

def _start(model_id: str, beta: np.ndarray, hyper: Hyperparameters, groups: GroupStructure | None):
    """The state at ``beta`` whose scales minimize V given beta: each scale is
    2 |magnitude| / lambda of its block, floored at ``EPS_FLOOR``."""
    spec = SPECS[model_id]
    return spec.state(beta, *(np.maximum(2.0 * mags / getattr(hyper, lam), EPS_FLOOR)
                              for mags, lam in zip(spec.magnitudes(beta, groups), spec.lambdas)))


def default_start_bfl(data: Dataset, hyper: Hyperparameters, **solver_kwargs) -> FusedState:
    """Fused start: beta from the fused solver, tau2_i = 2|b_i|/lambda1,
    w2_i = 2|b_{i+1} - b_i|/lambda2, zeros floored at ``EPS_FLOOR``."""
    sol = fused_lasso_solve(data, hyper.lambda1, hyper.lambda2, **solver_kwargs)
    return _start("bfl", sol.beta_hat, hyper, None)


def default_start_bgl(data: Dataset, groups: GroupStructure, hyper: Hyperparameters, **solver_kwargs) -> GroupState:
    """Group start: beta from the group solver, tau2_k = 2||b_{G_k}||/lambda."""
    sol = group_lasso_solve(data, groups, hyper.lambda1, **solver_kwargs)
    return _start("bgl", sol.beta_hat, hyper, groups)


def default_start_bsgl(data: Dataset, groups: GroupStructure, hyper: Hyperparameters, **solver_kwargs) -> SparseGroupState:
    """Sparse-group start: beta from the sparse-group solver with l1 weight lambda2
    and group weight lambda1, tau2_k = 2||b_{G_k}||/lambda1, gamma2_i = 2|b_i|/lambda2."""
    sol = sparse_group_lasso_solve(data, groups, hyper.lambda2, hyper.lambda1, **solver_kwargs)
    return _start("bsgl", sol.beta_hat, hyper, groups)
