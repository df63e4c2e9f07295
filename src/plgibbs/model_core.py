"""Data and hyperparameter containers plus the precision-matrix constructors.

The three models share one matrix idiom: a symmetric tridiagonal precision
stored as (diagonal, off-diagonal) vectors.  The fused model genuinely uses
the off-diagonal band; the group and sparse-group precisions are diagonal and
reuse the same storage with a zero band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError, StructureError

__all__ = [
    "Dataset",
    "GroupStructure",
    "Hyperparameters",
    "FusedState",
    "GroupState",
    "SparseGroupState",
    "SymTridiagonal",
    "build_fused_precision",
    "fused_quadratic_form",
    "build_group_precision",
    "build_sparse_precision",
]


def _as_positive_vector(name: str, value, length: int | None = None) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.ndim != 1:
        raise InvalidParameterError(f"{name} must be a vector")
    if length is not None and arr.shape[0] != length:
        raise InvalidParameterError(f"{name} must have length {length}, got {arr.shape[0]}")
    if arr.size and (not np.all(np.isfinite(arr)) or not np.all(arr > 0)):
        raise InvalidParameterError(f"{name} must be strictly positive and finite")
    return arr


@dataclass
class SymTridiagonal:
    """Symmetric tridiagonal p x p matrix stored as two vectors.

    O(p) memory, and the determinant is available through the exact
    three-term recurrence, which the fused-prior checks rely on.
    """

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self) -> None:
        self.diag = np.asarray(self.diag, dtype=float)
        self.off = np.asarray(self.off, dtype=float)
        if self.off.shape[0] != max(self.diag.shape[0] - 1, 0):
            raise InvalidParameterError("off-diagonal must have length p - 1")

    @property
    def p(self) -> int:
        return self.diag.shape[0]

    def to_dense(self) -> np.ndarray:
        m = np.diag(self.diag)
        if self.p > 1:
            idx = np.arange(self.p - 1)
            m[idx, idx + 1] = self.off
            m[idx + 1, idx] = self.off
        return m

    def to_banded_upper(self) -> np.ndarray:
        """(2, p) upper-banded storage understood by scipy's banded routines."""
        ab = np.zeros((2, self.p))
        ab[1] = self.diag
        if self.p > 1:
            ab[0, 1:] = self.off
        return ab

    def det(self) -> float:
        """Determinant via the continuant recurrence f_i = d_i f_{i-1} - e_{i-1}^2 f_{i-2}."""
        f_prev, f = 1.0, float(self.diag[0])
        for i in range(1, self.p):
            f_prev, f = f, float(self.diag[i]) * f - float(self.off[i - 1]) ** 2 * f_prev
        return f

    def quad_form(self, v: np.ndarray) -> float:
        """v' M v without materializing the dense matrix."""
        v = np.asarray(v, dtype=float)
        out = float(np.dot(self.diag * v, v))
        if self.p > 1:
            out += 2.0 * float(np.dot(self.off * v[:-1], v[1:]))
        return out


@dataclass
class Dataset:
    """Observed response ``y`` (length n) and model matrix ``X`` (n x p)."""

    y: np.ndarray
    X: np.ndarray

    def __post_init__(self) -> None:
        self.y = np.asarray(self.y, dtype=float)
        self.X = np.asarray(self.X, dtype=float)
        if self.y.ndim != 1 or self.X.ndim != 2:
            raise InvalidParameterError("y must be a vector and X a matrix")
        if self.X.shape[0] != self.y.shape[0]:
            raise InvalidParameterError(
                f"X has {self.X.shape[0]} rows but y has length {self.y.shape[0]}"
            )
        if self.y.shape[0] < 1 or self.X.shape[1] < 1:
            raise InvalidParameterError("need n >= 1 and p >= 1")
        if not (np.all(np.isfinite(self.y)) and np.all(np.isfinite(self.X))):
            raise InvalidParameterError("y and X must be finite")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @cached_property
    def xtx(self) -> np.ndarray:
        return self.X.T @ self.X

    @cached_property
    def xty(self) -> np.ndarray:
        return self.X.T @ self.y

    @cached_property
    def yty(self) -> float:
        return float(self.y @ self.y)


@dataclass
class GroupStructure:
    """Contiguous partition of the p coefficients into K groups."""

    sizes: tuple

    def __post_init__(self) -> None:
        sizes = tuple(int(m) for m in self.sizes)
        if len(sizes) < 1 or any(m < 1 for m in sizes):
            raise StructureError("group sizes must be positive integers, K >= 1")
        self.sizes = sizes

    @property
    def K(self) -> int:
        return len(self.sizes)

    @property
    def p(self) -> int:
        return sum(self.sizes)

    @property
    def max_size(self) -> int:
        return max(self.sizes)

    @cached_property
    def slices(self) -> tuple:
        out, start = [], 0
        for m in self.sizes:
            out.append(slice(start, start + m))
            start += m
        return tuple(out)

    @cached_property
    def starts(self) -> np.ndarray:
        """Index of each group's first coefficient."""
        return np.concatenate(([0], np.cumsum(self.sizes)[:-1]))

    def expand(self, per_group: np.ndarray) -> np.ndarray:
        """Repeat a K-vector into a p-vector in group order."""
        per_group = np.asarray(per_group, dtype=float)
        if per_group.shape[0] != self.K:
            raise StructureError(f"expected {self.K} per-group values, got {per_group.shape[0]}")
        return np.repeat(per_group, self.sizes)

    def group_sq_norms(self, beta: np.ndarray) -> np.ndarray:
        """K-vector of squared euclidean norms of each coefficient block."""
        beta = np.asarray(beta, dtype=float)
        if beta.shape[0] != self.p:
            raise StructureError(f"beta has length {beta.shape[0]}, structure needs {self.p}")
        return np.add.reduceat(beta * beta, self.starts)

    def check_p(self, p: int) -> None:
        if self.p != p:
            raise StructureError(f"group sizes sum to {self.p} but the model has p = {p}")


@dataclass
class Hyperparameters:
    """Fixed penalty and prior constants.

    ``lambda1`` doubles as the single penalty of the group-lasso model, which
    ignores ``lambda2``; ``alpha`` and ``xi`` parametrize the noise-variance
    prior and may be zero.
    """

    lambda1: float
    lambda2: float = 1.0
    alpha: float = 0.0
    xi: float = 0.0

    def __post_init__(self) -> None:
        for name in ("lambda1", "lambda2"):
            lam = getattr(self, name)
            # The kernels read lambda^2, which must neither overflow nor underflow to 0.
            if not (np.isfinite(lam) and lam > 0 and 0.0 < float(lam) * float(lam) < math.inf):
                raise InvalidParameterError(f"{name} must be strictly positive with a finite nonzero square")
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise InvalidParameterError("alpha must be nonnegative")
        if not (np.isfinite(self.xi) and self.xi >= 0):
            raise InvalidParameterError("xi must be nonnegative")


def _check_state(state, **lengths) -> None:
    """Validate a state's fields in place: each scale block named in ``lengths``
    strictly positive (and of that length unless None), beta finite, and
    sigma2 positive and finite when set."""
    state.beta = np.atleast_1d(np.asarray(state.beta, dtype=float))
    for name, length in lengths.items():
        setattr(state, name, _as_positive_vector(name, getattr(state, name), length))
    if not np.all(np.isfinite(state.beta)):
        raise InvalidParameterError("beta must be finite")
    if state.sigma2 is not None:
        if not (np.isfinite(state.sigma2) and state.sigma2 > 0):
            raise InvalidParameterError("sigma2 must be strictly positive when set")
        state.sigma2 = float(state.sigma2)


@dataclass
class FusedState:
    """One fused-model iterate: (beta, tau2, w2, sigma2).

    ``sigma2`` may be None on initial states; the kernel overwrites it before
    ever reading it.
    """

    beta: np.ndarray
    tau2: np.ndarray
    w2: np.ndarray
    sigma2: float | None = None

    def __post_init__(self) -> None:
        p = np.size(self.beta)
        _check_state(self, tau2=p, w2=p - 1)


@dataclass
class GroupState:
    """One group-model iterate: (beta, tau2 per group, sigma2)."""

    beta: np.ndarray
    tau2: np.ndarray
    sigma2: float | None = None

    def __post_init__(self) -> None:
        _check_state(self, tau2=None)


@dataclass
class SparseGroupState:
    """One sparse-group iterate: (beta, tau2 per group, gamma2 per coefficient, sigma2)."""

    beta: np.ndarray
    tau2: np.ndarray
    gamma2: np.ndarray
    sigma2: float | None = None

    def __post_init__(self) -> None:
        _check_state(self, tau2=None, gamma2=np.size(self.beta))


def _unchecked_constructor(cls):
    """``cls(*values)`` minus ``__post_init__``, for kernel output the sweep guard has checked."""
    names = tuple(f.name for f in fields(cls))

    def make(*values):
        state = object.__new__(cls)
        state.__dict__.update(zip(names, values))
        return state
    return make


def build_fused_precision(tau2, w2) -> SymTridiagonal:
    """Tridiagonal prior precision of the fused model.

    Diagonal entries are 1/tau2_1 + 1/w2_1, then 1/tau2_i + 1/w2_{i-1} + 1/w2_i
    for the interior, then 1/tau2_p + 1/w2_{p-1}; off-diagonals are -1/w2_i.
    The result is strictly diagonally dominant with positive diagonal, hence SPD.
    """
    tau2 = _as_positive_vector("tau2", tau2)
    w2 = _as_positive_vector("w2", w2, tau2.shape[0] - 1)
    return SymTridiagonal(*_fused_bands(tau2, w2))


def _fused_bands(tau2: np.ndarray, w2: np.ndarray) -> tuple:
    """(diagonal, off-diagonal) of :func:`build_fused_precision` from unchecked float
    arrays, or of each row's precision for 2-d ``tau2`` and ``w2``."""
    inv_tau = 1.0 / tau2
    if tau2.shape[-1] == 1:
        return inv_tau, np.zeros(tau2.shape[:-1] + (0,))
    inv_w = 1.0 / w2
    inv_tau[..., :-1] += inv_w
    inv_tau[..., 1:] += inv_w
    return inv_tau, -inv_w


def fused_quadratic_form(beta, tau2, w2) -> float:
    """sum_i beta_i^2 / tau2_i + sum_i (beta_{i+1} - beta_i)^2 / w2_i.

    Algebraically identical to the quadratic form of
    :func:`build_fused_precision`.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    p = beta.shape[0]
    tau2 = _as_positive_vector("tau2", tau2, p)
    w2 = _as_positive_vector("w2", w2, p - 1)
    return float(_fused_quad(beta, tau2, w2))


def _fused_quad(beta: np.ndarray, tau2: np.ndarray, w2: np.ndarray):
    """:func:`fused_quadratic_form` from unchecked arrays, one value per row of 2-d ones."""
    diff = beta[..., 1:] - beta[..., :-1]
    return (beta * beta / tau2).sum(axis=-1) + (diff**2 / w2).sum(axis=-1)


def build_group_precision(tau2, groups: GroupStructure) -> SymTridiagonal:
    """Diagonal prior precision of the group model: 1/tau2_k repeated m_k times."""
    tau2 = _as_positive_vector("tau2", tau2)
    if tau2.shape[0] != groups.K:
        raise StructureError(f"tau2 has length {tau2.shape[0]} but there are {groups.K} groups")
    return SymTridiagonal(diag=_group_diag(tau2, groups), off=np.zeros(max(groups.p - 1, 0)))


def build_sparse_precision(tau2, gamma2, groups: GroupStructure) -> SymTridiagonal:
    """Diagonal prior precision of the sparse-group model: 1/tau2_k + 1/gamma2_{k,j}."""
    tau2 = _as_positive_vector("tau2", tau2)
    gamma2 = _as_positive_vector("gamma2", gamma2, groups.p)
    if tau2.shape[0] != groups.K:
        raise StructureError(f"tau2 has length {tau2.shape[0]} but there are {groups.K} groups")
    return SymTridiagonal(diag=_sparse_diag(tau2, gamma2, groups), off=np.zeros(max(groups.p - 1, 0)))


def _group_diag(tau2: np.ndarray, groups: GroupStructure) -> np.ndarray:
    """Diagonal of :func:`build_group_precision` from an unchecked K-vector (or rows of them)."""
    return np.repeat(1.0 / tau2, groups.sizes, axis=-1)


def _sparse_diag(tau2: np.ndarray, gamma2: np.ndarray, groups: GroupStructure) -> np.ndarray:
    """Diagonal of :func:`build_sparse_precision` from unchecked arrays (or rows of them)."""
    return _group_diag(tau2, groups) + 1.0 / gamma2
