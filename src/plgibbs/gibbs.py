"""Deterministic-scan Gibbs kernels for the three penalized-regression models.

Every kernel performs one sweep in the fixed order

    sigma2  ->  (scale variances, jointly)  ->  beta

where sigma2 is drawn from the *previous* state, the scale variances from the
previous beta and the fresh sigma2, and beta from the fresh scales and
sigma2.  Initial states never need sigma2: it is overwritten before being
read.

Inputs are validated once, where they enter: ``Dataset``, ``Hyperparameters``,
``GroupStructure`` and the state dataclasses check their fields, and
``run_chain`` checks the model, groups, config and start state.  A sweep
re-checks nothing the chain drew itself: it calls the unchecked draw and
precision cores and skips the returned state's ``__post_init__``.  Its one
guard raises ``InvalidParameterError`` unless the sigma2 rate and draw, each
fresh scale block (before the precision is built) and the fresh beta are
finite, and the first three positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .distributions import (
    RngStream,
    _inverse_gamma,
    _inverse_gaussian,
    _regression_draw,
    sample_gaussian_regression_conditional,  # looked up here by perfbench/tracing.py
    sample_inverse_gamma,
)
from .errors import InvalidParameterError, StructureError
from .model_core import (
    Dataset,
    FusedState,
    GroupState,
    GroupStructure,
    Hyperparameters,
    SparseGroupState,
    _fused_bands,
    _fused_quad,
    _group_diag,
    _sparse_diag,
    _unchecked_constructor,
    build_fused_precision,
    build_group_precision,
    build_sparse_precision,
    fused_quadratic_form,
)

__all__ = [
    "MODEL_IDS",
    "ChainConfig",
    "ChainOutput",
    "bfl_full_conditional_params",
    "bgl_full_conditional_params",
    "bsgl_full_conditional_params",
    "bfl_step",
    "bgl_step",
    "bsgl_step",
    "run_chain",
    "batch_transition",
]

MODEL_IDS = ("bfl", "bgl", "bsgl")

# |beta| below this is treated as exactly zero before forming reciprocal-scale
# means, avoiding overflow in lambda*sigma/|beta| while matching the
# documented Inverse-Gamma(1/2, lambda^2/2) limit of the conditional.
ZERO_BETA_TOL = 1e-300


# ---------------------------------------------------------------------------
# Full-conditional parameters
# ---------------------------------------------------------------------------

@dataclass
class ScaleConditional:
    """Parameters of one block of reciprocal-scale draws.

    ``1/scale^2 ~ Inverse-Gaussian(ig_mean, ig_shape)`` entrywise; where
    ``fallback`` is set the conditional degenerates to
    ``1/scale^2 ~ Inverse-Gamma(1/2, ig_shape / 2)`` and ``ig_mean`` is NaN.
    """

    ig_mean: np.ndarray
    ig_shape: float
    fallback: np.ndarray


@dataclass
class FullConditionals:
    """All full-conditional parameters evaluated at one state."""

    sigma2_shape: float
    sigma2_rate: float
    tau2: ScaleConditional
    beta_mean: np.ndarray
    beta_chol_precision: np.ndarray  # lower L with X'X + P = L L'; cov = sigma2 (L L')^{-1}
    w2: Optional[ScaleConditional] = None
    gamma2: Optional[ScaleConditional] = None


def _sigma2_params(rss: float, prior_quad: float, n: int, p: int, hyper: Hyperparameters):
    shape = (n + p + 2.0 * hyper.alpha) / 2.0
    rate = (rss + prior_quad + 2.0 * hyper.xi) / 2.0
    return shape, rate


def _scale_conditional(magnitudes: np.ndarray, lam_sq: float, sigma2: float) -> ScaleConditional:
    """IG parameters for reciprocal scales given |beta|-like magnitudes."""
    magnitudes = np.asarray(magnitudes, dtype=float)
    fallback = magnitudes < ZERO_BETA_TOL
    mean = np.full(magnitudes.shape, np.nan)
    if np.any(~fallback):
        mean[~fallback] = np.sqrt(lam_sq * sigma2) / magnitudes[~fallback]
    return ScaleConditional(ig_mean=mean, ig_shape=lam_sq, fallback=fallback)


def _beta_params(prior_precision, data: Dataset):
    a = data.xtx + prior_precision.to_dense()
    factor = cho_factor(a, lower=True)
    mean = cho_solve(factor, data.xty)
    return mean, np.tril(factor[0])


def _rss(beta: np.ndarray, data: Dataset) -> float:
    r = data.y - data.X @ beta
    return float(r @ r)


def _full_conditionals(state, data: Dataset, hyper: Hyperparameters, prior_quad: float, prec,
                       blocks: dict) -> FullConditionals:
    """Parameters at ``state``; ``blocks`` maps each scale block to its (magnitudes, lambda)."""
    shape, rate = _sigma2_params(_rss(state.beta, data), prior_quad, data.n, data.p, hyper)
    sigma2 = state.sigma2 if state.sigma2 is not None else np.nan
    scales = {name: _scale_conditional(mags, lam**2, sigma2) for name, (mags, lam) in blocks.items()}
    mean, chol = _beta_params(prec, data)
    return FullConditionals(sigma2_shape=shape, sigma2_rate=rate, beta_mean=mean, beta_chol_precision=chol,
                            **scales)


def bfl_full_conditional_params(state: FusedState, data: Dataset, hyper: Hyperparameters) -> FullConditionals:
    """Full-conditional parameters of the fused model at ``state``.

    sigma2 is Inverse-Gamma((n+p+2*alpha)/2, (rss + beta' P beta + 2*xi)/2)
    with P the tridiagonal prior precision at the state's scales; reciprocal
    tau2_i and w2_i are Inverse-Gaussian with means lambda*sigma/|beta_i| and
    lambda*sigma/|beta_{i+1}-beta_i| and shapes lambda^2; beta is Gaussian
    with mean (X'X + P)^{-1} X'y and covariance sigma2 (X'X + P)^{-1}.
    """
    quad = fused_quadratic_form(state.beta, state.tau2, state.w2)
    return _full_conditionals(state, data, hyper, quad, build_fused_precision(state.tau2, state.w2), {
        "tau2": (np.abs(state.beta), hyper.lambda1), "w2": (np.abs(np.diff(state.beta)), hyper.lambda2)})


def bgl_full_conditional_params(
    state: GroupState, data: Dataset, hyper: Hyperparameters, groups: GroupStructure
) -> FullConditionals:
    """Full-conditional parameters of the group model at ``state``.

    Reciprocal tau2_k is Inverse-Gaussian with mean lambda*sigma/||beta_{G_k}||
    and shape lambda^2 (lambda read from ``hyper.lambda1``).
    """
    groups.check_p(data.p)
    prec = build_group_precision(state.tau2, groups)
    return _full_conditionals(state, data, hyper, prec.quad_form(state.beta), prec, {
        "tau2": (np.sqrt(groups.group_sq_norms(state.beta)), hyper.lambda1)})


def bsgl_full_conditional_params(
    state: SparseGroupState, data: Dataset, hyper: Hyperparameters, groups: GroupStructure
) -> FullConditionals:
    """Full-conditional parameters of the sparse-group model at ``state``."""
    groups.check_p(data.p)
    prec = build_sparse_precision(state.tau2, state.gamma2, groups)
    return _full_conditionals(state, data, hyper, prec.quad_form(state.beta), prec, {
        "tau2": (np.sqrt(groups.group_sq_norms(state.beta)), hyper.lambda1),
        "gamma2": (np.abs(state.beta), hyper.lambda2)})


# ---------------------------------------------------------------------------
# Scale draws
# ---------------------------------------------------------------------------

def draw_scales(magnitudes: np.ndarray, lam_sq: float, sigma2, rng: RngStream) -> np.ndarray:
    """Draw scale variances whose reciprocals follow the IG conditionals.

    ``magnitudes`` holds |beta_i|, |beta_{i+1}-beta_i| or group norms;
    entries below ``ZERO_BETA_TOL`` take the Inverse-Gamma(1/2, lam_sq/2)
    fallback.  Consumption order is fixed: the Inverse-Gaussian block first,
    then the fallback block.  ``sigma2`` may be a scalar or a batch column to
    broadcast against 2-d ``magnitudes``.

    The sweep guard's check on a scale block: raises ``InvalidParameterError``
    unless every draw is strictly positive and finite.
    """
    magnitudes = np.asarray(magnitudes, dtype=float)
    if magnitudes.size == 0:
        return np.zeros(magnitudes.shape)
    # A batch (2-d magnitudes) comes from one source state, so its zero
    # pattern is constant across rows: columns are all-zero or all-nonzero.
    nonzero = (magnitudes[0] if magnitudes.ndim == 2 else magnitudes) >= ZERO_BETA_TOL
    root = np.sqrt(lam_sq * np.asarray(sigma2))
    n_zero = nonzero.shape[0] - int(np.count_nonzero(nonzero))
    if n_zero == 0:
        mean = root / magnitudes
        out = 1.0 / _inverse_gaussian(mean, lam_sq, rng, mean.shape)
    else:
        out = np.empty_like(magnitudes)
        if n_zero < nonzero.shape[0]:
            mean = root / magnitudes[..., nonzero]
            out[..., nonzero] = 1.0 / _inverse_gaussian(mean, lam_sq, rng, mean.shape)
        out[..., ~nonzero] = 1.0 / _inverse_gamma(0.5, lam_sq / 2.0, rng, out.shape[:-1] + (n_zero,))
    if not (out.min() > 0.0 and out.max() < math.inf):
        raise InvalidParameterError("scale draws must be strictly positive and finite")
    return out


# ---------------------------------------------------------------------------
# One-sweep kernels
# ---------------------------------------------------------------------------

# Constructors of the states a sweep returns: the sweep guard has checked
# their fields, so ``__post_init__`` is not run again.
_fused_state = _unchecked_constructor(FusedState)
_group_state = _unchecked_constructor(GroupState)
_sparse_group_state = _unchecked_constructor(SparseGroupState)


def _draw_sigma2(rss: float, prior_quad: float, data: Dataset, hyper: Hyperparameters,
                 rng: RngStream) -> float:
    """sigma2 from its full conditional, guarded: rate and draw finite and positive."""
    shape, rate = _sigma2_params(rss, prior_quad, data.n, data.p, hyper)
    if not 0.0 < rate < math.inf:
        raise InvalidParameterError(f"sigma2 rate (rss + beta'P beta + 2 xi)/2 = {rate!r} is not in (0, inf)")
    sigma2 = float(_inverse_gamma(shape, rate, rng))
    if not 0.0 < sigma2 < math.inf:
        raise InvalidParameterError(f"sigma2 draw {sigma2!r} is not in (0, inf)")
    return sigma2


def _draw_beta(data: Dataset, diag: np.ndarray, off, sigma2: float, rng: RngStream) -> np.ndarray:
    """beta from its full conditional given the prior precision's bands, guarded: finite."""
    beta = _regression_draw(data.xtx, data.xty, diag, off, sigma2, rng)
    if not np.all(np.isfinite(beta)):
        raise InvalidParameterError("beta draw must be finite")
    return beta


def bfl_step(state: FusedState, data: Dataset, hyper: Hyperparameters, rng: RngStream) -> FusedState:
    """One fused-model sweep: sigma2 -> (tau2, w2) -> beta."""
    beta = state.beta
    diff = np.diff(beta)
    sigma2 = _draw_sigma2(_rss(beta, data), _fused_quad(beta, diff, state.tau2, state.w2), data, hyper, rng)
    tau2 = draw_scales(np.abs(beta), hyper.lambda1**2, sigma2, rng)
    w2 = draw_scales(np.abs(diff), hyper.lambda2**2, sigma2, rng)
    diag, off = _fused_bands(tau2, w2)
    return _fused_state(_draw_beta(data, diag, off, sigma2, rng), tau2, w2, sigma2)


def bgl_step(
    state: GroupState, data: Dataset, hyper: Hyperparameters, groups: GroupStructure, rng: RngStream
) -> GroupState:
    """One group-model sweep: sigma2 -> tau2 -> beta."""
    beta = state.beta
    quad = float(np.dot(_group_diag(state.tau2, groups) * beta, beta))
    sigma2 = _draw_sigma2(_rss(beta, data), quad, data, hyper, rng)
    tau2 = draw_scales(np.sqrt(groups.group_sq_norms(beta)), hyper.lambda1**2, sigma2, rng)
    return _group_state(_draw_beta(data, _group_diag(tau2, groups), None, sigma2, rng), tau2, sigma2)


def bsgl_step(
    state: SparseGroupState, data: Dataset, hyper: Hyperparameters, groups: GroupStructure, rng: RngStream
) -> SparseGroupState:
    """One sparse-group sweep: sigma2 -> (tau2, gamma2) -> beta."""
    beta = state.beta
    quad = float(np.dot(_sparse_diag(state.tau2, state.gamma2, groups) * beta, beta))
    sigma2 = _draw_sigma2(_rss(beta, data), quad, data, hyper, rng)
    tau2 = draw_scales(np.sqrt(groups.group_sq_norms(beta)), hyper.lambda1**2, sigma2, rng)
    gamma2 = draw_scales(np.abs(beta), hyper.lambda2**2, sigma2, rng)
    beta = _draw_beta(data, _sparse_diag(tau2, gamma2, groups), None, sigma2, rng)
    return _sparse_group_state(beta, tau2, gamma2, sigma2)


# ---------------------------------------------------------------------------
# Batched one-step transitions (shared-formula path for the drift checker)
# ---------------------------------------------------------------------------

def batch_transition(model_id, state, data, hyper, groups, rng: RngStream, replicates: int) -> dict:
    """``replicates`` independent one-step transitions from one start state.

    Returns a dict of stacked arrays (``beta`` (R, p), scale blocks, and
    ``sigma2`` (R,)).  Matches the per-step kernels in distribution but not in
    stream consumption; use the scalar kernels when bit-level reproducibility
    of a single chain matters.
    """
    if model_id not in MODEL_IDS:
        raise InvalidParameterError(f"unknown model id {model_id!r}")
    r = int(replicates)
    beta = state.beta
    if model_id == "bfl":
        quad = fused_quadratic_form(beta, state.tau2, state.w2)
    elif model_id == "bgl":
        quad = build_group_precision(state.tau2, groups).quad_form(beta)
    else:
        quad = build_sparse_precision(state.tau2, state.gamma2, groups).quad_form(beta)
    shape, rate = _sigma2_params(_rss(beta, data), quad, data.n, data.p, hyper)
    sigma2 = sample_inverse_gamma(shape, rate, rng, size=r)

    def scales(magnitudes, lam):
        return draw_scales(np.broadcast_to(magnitudes, (r, len(magnitudes))), lam**2, sigma2[:, None], rng)

    if model_id == "bfl":
        out = {"tau2": scales(np.abs(beta), hyper.lambda1)}
        out["w2"] = scales(np.abs(np.diff(beta)), hyper.lambda2)
        diag, off = _fused_bands(out["tau2"], out["w2"])
    else:
        out = {"tau2": scales(np.sqrt(groups.group_sq_norms(beta)), hyper.lambda1)}
        if model_id == "bgl":
            diag = _group_diag(out["tau2"], groups)
        else:
            out["gamma2"] = scales(np.abs(beta), hyper.lambda2)
            diag = _sparse_diag(out["tau2"], out["gamma2"], groups)
        off = np.zeros((r, data.p - 1))
    out["beta"] = _batch_beta_draw(data.xtx, data.xty, diag, off, sigma2, rng)
    out["sigma2"] = sigma2
    return out


def _batch_beta_draw(xtx: np.ndarray, xty: np.ndarray, diag: np.ndarray, off: np.ndarray,
                     sigma2: np.ndarray, rng: RngStream):
    """Vectorized draws from N((X'X + P)^{-1} X'y, sigma2 (X'X + P)^{-1}) for per-row tridiagonal P."""
    r, p = diag.shape
    a = np.broadcast_to(xtx, (r, p, p)).copy()
    idx = np.arange(p)
    a[:, idx, idx] += diag
    if p > 1:
        j = np.arange(p - 1)
        a[:, j, j + 1] += off
        a[:, j + 1, j] += off
    chol = np.linalg.cholesky(a)
    mean = np.linalg.solve(a, np.broadcast_to(xty, (r, p))[..., None])
    z = rng.gen.standard_normal((r, p, 1))
    noise = np.linalg.solve(np.transpose(chol, (0, 2, 1)), z)
    return (mean + np.sqrt(sigma2)[:, None, None] * noise)[..., 0]


# ---------------------------------------------------------------------------
# Chain runner
# ---------------------------------------------------------------------------

@dataclass
class ChainConfig:
    """Chain length, storage and initialization policy.

    ``burn_in`` defaults to 10% of ``n_iter``; ``init_mode`` is one of
    ``"default"`` (penalized-solution start), ``"zero"`` (beta = 0, unit
    scales) or ``"custom"`` with an explicit ``init_state``; with
    ``"default"``, an ``init_state`` is the penalized start, already solved.
    """

    n_iter: int
    burn_in: int | None = None
    thin: int = 1
    seed: int = 0
    stream_id: int = 0
    init_mode: str = "default"
    init_state: object = None

    def __post_init__(self) -> None:
        if self.n_iter < 1:
            raise InvalidParameterError("n_iter must be >= 1")
        if self.burn_in is None:
            self.burn_in = self.n_iter // 10
        if not 0 <= self.burn_in < self.n_iter:
            raise InvalidParameterError("need 0 <= burn_in < n_iter")
        if self.thin < 1:
            raise InvalidParameterError("thin must be >= 1")
        if self.init_mode not in ("default", "zero", "custom"):
            raise InvalidParameterError(f"unknown init_mode {self.init_mode!r}")
        if self.init_mode == "custom" and self.init_state is None:
            raise InvalidParameterError("init_mode='custom' requires init_state")


@dataclass
class ChainOutput:
    """Stored iterates (rows) with flattened-state columns and run metadata."""

    draws: np.ndarray
    column_labels: list
    meta: dict = field(default_factory=dict)

    @property
    def n_kept(self) -> int:
        return self.draws.shape[0]

    def column(self, label: str) -> np.ndarray:
        try:
            j = self.column_labels.index(label)
        except ValueError as exc:
            raise KeyError(f"no column {label!r}") from exc
        return self.draws[:, j]

    def columns(self, labels) -> np.ndarray:
        return np.column_stack([self.column(lbl) for lbl in labels])


def _blocks(model_id: str, p: int, groups: GroupStructure | None) -> tuple:
    """(state field, length) of each stored vector block, in column order."""
    if model_id == "bfl":
        return (("beta", p), ("tau2", p), ("w2", p - 1))
    if model_id == "bgl":
        return (("beta", p), ("tau2", groups.K))
    return (("beta", p), ("tau2", groups.K), ("gamma2", p))


def initial_state(model_id: str, data: Dataset, hyper: Hyperparameters,
                  groups: GroupStructure | None, config: ChainConfig):
    """Resolve the configured starting state (sigma2 left unset)."""
    if config.init_mode == "custom" or (config.init_mode == "default" and config.init_state is not None):
        return config.init_state
    if config.init_mode == "zero":
        zeros = np.zeros(data.p)
        if model_id == "bfl":
            return FusedState(zeros, np.ones(data.p), np.ones(max(data.p - 1, 0)))
        if model_id == "bgl":
            return GroupState(zeros, np.ones(groups.K))
        return SparseGroupState(zeros, np.ones(groups.K), np.ones(data.p))
    from . import solvers

    if model_id == "bfl":
        return solvers.default_start_bfl(data, hyper)
    if model_id == "bgl":
        return solvers.default_start_bgl(data, groups, hyper)
    return solvers.default_start_bsgl(data, groups, hyper)


def run_chain(model_id: str, data: Dataset, hyper: Hyperparameters,
              groups: GroupStructure | None = None,
              config: ChainConfig | None = None) -> ChainOutput:
    """Run one Gibbs chain and store post-burn-in, thinned iterates.

    The stored row count is floor((n_iter - burn_in) / thin); runs are
    reproducible from ``(config.seed, config.stream_id)``.  Inputs are
    checked here, once; the sweeps run unchecked apart from their guard.
    """
    if model_id not in MODEL_IDS:
        raise InvalidParameterError(f"unknown model id {model_id!r}")
    if model_id in ("bgl", "bsgl"):
        if groups is None:
            raise StructureError(f"{model_id} requires a GroupStructure")
        groups.check_p(data.p)
    if config is None:
        raise InvalidParameterError("config is required")

    rng = RngStream(config.seed, config.stream_id)
    state = initial_state(model_id, data, hyper, groups, config)
    columns, labels = [], []
    for name, length in _blocks(model_id, data.p, groups):
        if np.shape(getattr(state, name, None)) != (length,):
            raise StructureError(f"the {model_id} start state needs a length-{length} {name!r} vector")
        columns.append((name, slice(len(labels), len(labels) + length)))
        labels += [f"{name}.{i + 1}" for i in range(length)]
    labels.append("sigma2")
    n_keep = (config.n_iter - config.burn_in) // config.thin
    draws = np.empty((n_keep, len(labels)))

    if model_id == "bfl":
        step = lambda s: bfl_step(s, data, hyper, rng)
    elif model_id == "bgl":
        step = lambda s: bgl_step(s, data, hyper, groups, rng)
    else:
        step = lambda s: bsgl_step(s, data, hyper, groups, rng)

    kept = 0
    for j in range(config.n_iter):
        state = step(state)
        if j >= config.burn_in and (j - config.burn_in) % config.thin == config.thin - 1:
            row = draws[kept]
            for name, cols in columns:
                row[cols] = getattr(state, name)
            row[-1] = state.sigma2
            kept += 1
    assert kept == n_keep

    meta = {
        "model": model_id,
        "n": data.n,
        "p": data.p,
        "groups": list(groups.sizes) if groups is not None else None,
        "hyper": {
            "lambda1": hyper.lambda1, "lambda2": hyper.lambda2,
            "alpha": hyper.alpha, "xi": hyper.xi,
        },
        "config": {
            "n_iter": config.n_iter, "burn_in": config.burn_in, "thin": config.thin,
            "seed": config.seed, "stream_id": config.stream_id, "init_mode": config.init_mode,
        },
    }
    return ChainOutput(draws=draws, column_labels=labels, meta=meta)
