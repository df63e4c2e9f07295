"""Deterministic-scan Gibbs kernels for the three penalized-regression models.

Every kernel performs one sweep in the fixed order

    sigma2  ->  (scale variances, jointly)  ->  beta

where sigma2 is drawn from the *previous* state, the scale variances from the
previous beta and the fresh sigma2, and beta from the fresh scales and
sigma2.  Initial states never need sigma2: it is overwritten before being
read.

The models differ only in their scale blocks, so each is written once, as a
:class:`ModelSpec` in ``SPECS``.  One sweep (:func:`_sweep`) runs any spec,
either as a chain's single transition or as R independent transitions from
one state; the kernels, ``batch_transition`` and the full-conditional
parameters all read the spec, and so do the drift function, the update-order
replay and the mutants elsewhere in the package.

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
from typing import Callable, Optional

import numpy as np

from .distributions import (
    RngStream,
    _chol_with_jitter,
    _inverse_gamma,
    _inverse_gaussian,
    _potrs,
    _regression_draw,
    sample_gaussian_regression_conditional,  # looked up here by perfbench/tracing.py
    sample_inverse_gamma,  # looked up here by perfbench/tracing.py
)
from .errors import InvalidParameterError, StructureError
from .model_core import (  # the build_* and fused_quadratic_form names are looked up here by perfbench/tracing.py
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

# |beta| below this is treated as exactly zero before forming reciprocal-scale
# means, avoiding overflow in lambda*sigma/|beta| while matching the
# documented Inverse-Gamma(1/2, lambda^2/2) limit of the conditional.
ZERO_BETA_TOL = 1e-300


# ---------------------------------------------------------------------------
# Model specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """One model's full conditionals, as the sweep reads them.

    Scale block ``k`` is the state field ``blocks[k]``; its reciprocals are
    drawn given the magnitudes ``magnitudes(beta, groups)[k]`` (|beta_i|,
    |beta_{i+1} - beta_i| or group norms) and the penalty
    ``getattr(hyper, lambdas[k])``.  ``bands(groups, *scales)`` gives the
    prior precision P's diagonal and first off-diagonal (None when P is
    diagonal) for one state or for rows of them.  ``quad(beta, *scales)`` is
    beta'P beta; it is None for a diagonal P, whose form is its diagonal
    times beta^2.  ``grouped`` models need a ``GroupStructure``.
    """

    state: type
    blocks: tuple
    lambdas: tuple
    magnitudes: Callable
    bands: Callable
    quad: Optional[Callable] = None
    grouped: bool = True
    # The state constructor a sweep uses: its guard has checked the fields.
    make: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "make", _unchecked_constructor(self.state))


SPECS = {
    "bfl": ModelSpec(
        FusedState, ("tau2", "w2"), ("lambda1", "lambda2"),
        magnitudes=lambda beta, groups: (np.abs(beta), np.abs(beta[1:] - beta[:-1])),
        bands=lambda groups, tau2, w2: _fused_bands(tau2, w2),
        quad=_fused_quad, grouped=False),
    "bgl": ModelSpec(
        GroupState, ("tau2",), ("lambda1",),
        magnitudes=lambda beta, groups: (np.sqrt(groups.group_sq_norms(beta)),),
        bands=lambda groups, tau2: (_group_diag(tau2, groups), None)),
    "bsgl": ModelSpec(
        SparseGroupState, ("tau2", "gamma2"), ("lambda1", "lambda2"),
        magnitudes=lambda beta, groups: (np.sqrt(groups.group_sq_norms(beta)), np.abs(beta)),
        bands=lambda groups, tau2, gamma2: (_sparse_diag(tau2, gamma2, groups), None)),
}

MODEL_IDS = tuple(SPECS)


def _spec(model_id: str, p: int | None = None, groups: GroupStructure | None = None,
          missing=InvalidParameterError) -> ModelSpec:
    """The spec of ``model_id``.  Given ``p``, checks that a grouped model has
    ``groups`` summing to p, raising ``missing`` if it has none."""
    try:
        spec = SPECS[model_id]
    except (KeyError, TypeError):
        raise InvalidParameterError(f"unknown model id {model_id!r}") from None
    if p is not None and spec.grouped:
        if groups is None:
            raise missing(f"{model_id} needs a GroupStructure")
        groups.check_p(p)
    return spec


def _blocks(spec: ModelSpec, p: int, groups: GroupStructure | None, state=None) -> tuple:
    """(state field, length) of each stored vector block, in column order: a scale
    block holds one scale per magnitude.  Checks a given ``state`` against them."""
    lengths = (m.shape[0] for m in spec.magnitudes(np.zeros(p), groups))
    blocks = (("beta", p),) + tuple(zip(spec.blocks, lengths))
    if state is not None:
        for name, length in blocks:
            if np.shape(getattr(state, name, None)) != (length,):
                raise StructureError(f"this {spec.state.__name__} needs a length-{length} {name!r} vector")
    return blocks


def _bind(step, spec: ModelSpec, groups):
    """A model's public step as ``(state, data, hyper, rng) -> state``."""
    return (lambda s, d, h, r: step(s, d, h, groups, r)) if spec.grouped else step


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


def _rss(beta: np.ndarray, data: Dataset):
    """Residual sum of squares at one beta, or at each row of a (R, p) batch."""
    if beta.ndim == 1:
        r = data.y - data.X @ beta
        return float(r @ r)
    r = data.y - beta @ data.X.T
    return np.sum(r * r, axis=1)


def _prior_quad(spec: ModelSpec, beta: np.ndarray, scales, groups) -> float:
    """beta'P beta at one state, as the sigma2 rate reads it."""
    if spec.quad is not None:
        return spec.quad(beta, *scales)
    return float(np.dot(spec.bands(groups, *scales)[0] * beta, beta))


def _full_conditionals(model_id: str, state, data: Dataset, hyper: Hyperparameters,
                       groups: GroupStructure | None) -> FullConditionals:
    spec = _spec(model_id, data.p, groups)
    _blocks(spec, data.p, groups, state)
    beta, scales = state.beta, [getattr(state, name) for name in spec.blocks]
    shape, rate = _sigma2_params(_rss(beta, data), _prior_quad(spec, beta, scales, groups), data.n, data.p, hyper)
    sigma2 = state.sigma2 if state.sigma2 is not None else np.nan
    conditionals = {name: _scale_conditional(mags, getattr(hyper, lam)**2, sigma2)
                    for name, mags, lam in zip(spec.blocks, spec.magnitudes(beta, groups), spec.lambdas)}
    factor = _chol_with_jitter(data.xtx, *spec.bands(groups, *scales))
    mean, _ = _potrs(factor, data.xty, lower=1)
    return FullConditionals(sigma2_shape=shape, sigma2_rate=rate, beta_mean=mean,
                            beta_chol_precision=np.tril(factor), **conditionals)


def bfl_full_conditional_params(state: FusedState, data: Dataset, hyper: Hyperparameters) -> FullConditionals:
    """Full-conditional parameters of the fused model at ``state``.

    sigma2 is Inverse-Gamma((n+p+2*alpha)/2, (rss + beta' P beta + 2*xi)/2)
    with P the tridiagonal prior precision at the state's scales; reciprocal
    tau2_i and w2_i are Inverse-Gaussian with means lambda*sigma/|beta_i| and
    lambda*sigma/|beta_{i+1}-beta_i| and shapes lambda^2; beta is Gaussian
    with mean (X'X + P)^{-1} X'y and covariance sigma2 (X'X + P)^{-1}.
    """
    return _full_conditionals("bfl", state, data, hyper, None)


def bgl_full_conditional_params(
    state: GroupState, data: Dataset, hyper: Hyperparameters, groups: GroupStructure
) -> FullConditionals:
    """Full-conditional parameters of the group model at ``state``.

    Reciprocal tau2_k is Inverse-Gaussian with mean lambda*sigma/||beta_{G_k}||
    and shape lambda^2 (lambda read from ``hyper.lambda1``).
    """
    return _full_conditionals("bgl", state, data, hyper, groups)


def bsgl_full_conditional_params(
    state: SparseGroupState, data: Dataset, hyper: Hyperparameters, groups: GroupStructure
) -> FullConditionals:
    """Full-conditional parameters of the sparse-group model at ``state``."""
    return _full_conditionals("bsgl", state, data, hyper, groups)


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
    unless every draw is strictly positive and finite.  A reciprocal draw of 0
    would give an infinite scale; the guard, not a floating-point warning,
    reports it.
    """
    magnitudes = np.asarray(magnitudes, dtype=float)
    if magnitudes.size == 0:
        return np.zeros(magnitudes.shape)
    # A batch (2-d magnitudes) comes from one source state, so its zero
    # pattern is constant across rows: columns are all-zero or all-nonzero.
    nonzero = (magnitudes[0] if magnitudes.ndim == 2 else magnitudes) >= ZERO_BETA_TOL
    root = np.sqrt(lam_sq * sigma2)
    n_zero = nonzero.shape[0] - int(np.count_nonzero(nonzero))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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
# The sweep
# ---------------------------------------------------------------------------

def _sweep(spec: ModelSpec, state, data: Dataset, hyper: Hyperparameters, groups, rng: RngStream,
           r: int | None = None) -> tuple:
    """(beta, scale blocks, sigma2) after one sweep from ``state``: a chain's single
    draw with ``r`` None, else ``r`` independent draws stacked along a leading axis."""
    beta = state.beta
    old = [getattr(state, name) for name in spec.blocks]
    shape, rate = _sigma2_params(_rss(beta, data), _prior_quad(spec, beta, old, groups), data.n, data.p, hyper)
    if not 0.0 < rate < math.inf:
        raise InvalidParameterError(f"sigma2 rate (rss + beta'P beta + 2 xi)/2 = {rate!r} is not in (0, inf)")
    sigma2 = _inverse_gamma(shape, rate, rng, r)
    lo, hi = (sigma2, sigma2) if r is None else (sigma2.min(), sigma2.max())
    if not 0.0 < lo <= hi < math.inf:
        raise InvalidParameterError(f"sigma2 draws in [{lo!r}, {hi!r}] are not all in (0, inf)")
    sigma2 = float(sigma2) if r is None else sigma2
    column = sigma2 if r is None else sigma2[:, None]
    scales = [draw_scales(m if r is None else np.broadcast_to(m, (r, m.shape[0])), getattr(hyper, lam)**2,
                          column, rng)
              for m, lam in zip(spec.magnitudes(beta, groups), spec.lambdas)]
    diag, off = spec.bands(groups, *scales)
    beta = (_regression_draw if r is None else _batch_beta_draw)(data.xtx, data.xty, diag, off, sigma2, rng)
    if not np.all(np.isfinite(beta)):
        raise InvalidParameterError("beta draw must be finite")
    return beta, scales, sigma2


def _step(spec: ModelSpec, state, data: Dataset, hyper: Hyperparameters, groups, rng: RngStream):
    """One chain sweep from ``state``, as a state of the model."""
    beta, scales, sigma2 = _sweep(spec, state, data, hyper, groups, rng)
    return spec.make(beta, *scales, sigma2)


def bfl_step(state: FusedState, data: Dataset, hyper: Hyperparameters, rng: RngStream) -> FusedState:
    """One fused-model sweep: sigma2 -> (tau2, w2) -> beta."""
    return _step(SPECS["bfl"], state, data, hyper, None, rng)


def bgl_step(
    state: GroupState, data: Dataset, hyper: Hyperparameters, groups: GroupStructure, rng: RngStream
) -> GroupState:
    """One group-model sweep: sigma2 -> tau2 -> beta."""
    return _step(SPECS["bgl"], state, data, hyper, groups, rng)


def bsgl_step(
    state: SparseGroupState, data: Dataset, hyper: Hyperparameters, groups: GroupStructure, rng: RngStream
) -> SparseGroupState:
    """One sparse-group sweep: sigma2 -> (tau2, gamma2) -> beta."""
    return _step(SPECS["bsgl"], state, data, hyper, groups, rng)


def batch_transition(model_id, state, data, hyper, groups, rng: RngStream, replicates: int) -> dict:
    """``replicates`` independent one-step transitions from one start state.

    Returns a dict of stacked arrays (``beta`` (R, p), scale blocks, and
    ``sigma2`` (R,)).  Matches the per-step kernels in distribution but not in
    stream consumption; use the scalar kernels when bit-level reproducibility
    of a single chain matters.
    """
    spec = _spec(model_id)
    beta, scales, sigma2 = _sweep(spec, state, data, hyper, groups, rng, int(replicates))
    return {**dict(zip(spec.blocks, scales)), "beta": beta, "sigma2": sigma2}


def _batch_beta_draw(xtx: np.ndarray, xty: np.ndarray, diag: np.ndarray, off, sigma2: np.ndarray,
                     rng: RngStream):
    """Vectorized draws from N((X'X + P)^{-1} X'y, sigma2 (X'X + P)^{-1}) for per-row tridiagonal P
    (``off`` None for a diagonal P)."""
    r, p = diag.shape
    a = np.broadcast_to(xtx, (r, p, p)).copy()
    idx = np.arange(p)
    a[:, idx, idx] += diag
    if off is not None and p > 1:
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


def initial_state(model_id: str, data: Dataset, hyper: Hyperparameters,
                  groups: GroupStructure | None, config: ChainConfig):
    """Resolve the configured starting state (sigma2 left unset)."""
    if config.init_mode == "custom" or (config.init_mode == "default" and config.init_state is not None):
        return config.init_state
    spec = SPECS[model_id]
    if config.init_mode == "zero":
        blocks = _blocks(spec, data.p, groups)
        return spec.state(np.zeros(data.p), *(np.ones(length) for _, length in blocks[1:]))
    from . import solvers

    start = getattr(solvers, f"default_start_{model_id}")
    return start(data, groups, hyper) if spec.grouped else start(data, hyper)


def run_chain(model_id: str, data: Dataset, hyper: Hyperparameters,
              groups: GroupStructure | None = None,
              config: ChainConfig | None = None) -> ChainOutput:
    """Run one Gibbs chain and store post-burn-in, thinned iterates.

    The stored row count is floor((n_iter - burn_in) / thin); runs are
    reproducible from ``(config.seed, config.stream_id)``.  Inputs are
    checked here, once; the sweeps run unchecked apart from their guard.
    """
    spec = _spec(model_id, data.p, groups, missing=StructureError)
    if config is None:
        raise InvalidParameterError("config is required")

    rng = RngStream(config.seed, config.stream_id)
    state = initial_state(model_id, data, hyper, groups, config)
    columns, labels = [], []
    for name, length in _blocks(spec, data.p, groups, state):
        columns.append((name, slice(len(labels), len(labels) + length)))
        labels += [f"{name}.{i + 1}" for i in range(length)]
    labels.append("sigma2")
    n_keep = (config.n_iter - config.burn_in) // config.thin
    draws = np.empty((n_keep, len(labels)))
    # The public step, looked up by name so that a rebound module attribute is honoured.
    step = _bind(globals()[f"{model_id}_step"], spec, groups)

    kept = 0
    for j in range(config.n_iter):
        state = step(state, data, hyper, rng)
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
