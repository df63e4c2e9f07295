"""Random-variate generation for the four families the samplers draw from.

Everything is driven by :class:`RngStream`, a counter-based (Philox)
splittable stream: chains, replicate loops and verification suites can share
one seed while drawing from statistically independent substreams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cholesky_banded, get_lapack_funcs, solve_banded

from .errors import DecompositionError, InvalidParameterError

# The LAPACK routines behind cho_factor, cho_solve and solve_triangular,
# called directly: the beta draw needs none of their wrappers' input checks.
_potrf, _potrs, _trtrs = get_lapack_funcs(("potrf", "potrs", "trtrs"), (np.zeros((1, 1)),))

__all__ = [
    "RngStream",
    "sample_inverse_gaussian",
    "sample_inverse_gamma",
    "sample_gaussian_regression_conditional",
]

_UINT64 = np.uint64
_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One splitmix64 scrambling round; bijective on 64-bit integers."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass
class RngStream:
    """A reproducible random stream identified by ``(seed, stream_id)``.

    Two streams constructed with equal ``(seed, stream_id)`` replay the exact
    same draw sequence; streams with distinct ``stream_id`` are independent
    (distinct 128-bit Philox keys).  A stream must not be shared across
    concurrent callers; spawn substreams instead.
    """

    seed: int
    stream_id: int = 0
    gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not isinstance(value, (int, np.integer)) or not 0 <= int(value) < 2**64:
                raise InvalidParameterError(f"{name} must be an unsigned 64-bit integer, got {value!r}")
        key = np.array([self.seed, self.stream_id], dtype=_UINT64)
        self.gen = np.random.Generator(np.random.Philox(key=key))

    def substream(self, k: int) -> "RngStream":
        """Derive an independent child stream; deterministic in ``(self, k)``."""
        child_id = _splitmix64((int(self.stream_id) ^ _splitmix64(int(k) + 1)) & _MASK64)
        return RngStream(self.seed, child_id)


def _check_positive(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)) or not np.all(arr > 0):
        raise InvalidParameterError(f"{name} must be strictly positive and finite")
    return arr


def sample_inverse_gaussian(mean_param, shape_param, rng: RngStream, size=None):
    """Draw from Inverse-Gaussian(a, b) with density ~ x^{-3/2} exp(-b(x-a)^2 / (2 a^2 x)).

    Uses the Michael-Schucany-Haas transformation: one chi-square(1) root and
    one uniform per draw, exact and constant-time.  The smaller quadratic root
    is evaluated in a cancellation-free form so draws stay strictly positive
    up to mean parameters of order 1e15 (the near-zero-coefficient regime).

    Parameters
    ----------
    mean_param, shape_param:
        Distribution parameters a > 0 and b > 0; scalars or broadcastable arrays.
    rng:
        Stream supplying the randomness.
    size:
        Optional output shape; defaults to the broadcast shape of the parameters.

    Returns
    -------
    float or ndarray of strictly positive draws.
    """
    a = _check_positive("mean_param", mean_param)
    b = _check_positive("shape_param", shape_param)
    if size is None:
        out_shape = np.broadcast_shapes(a.shape, b.shape)
    else:
        out_shape = (size,) if isinstance(size, (int, np.integer)) else tuple(size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = _inverse_gaussian(np.broadcast_to(a, out_shape), np.broadcast_to(b, out_shape), rng, out_shape)
    return float(out) if out_shape == () else out


def _inverse_gaussian(a, b, rng: RngStream, out_shape):
    """Core of :func:`sample_inverse_gaussian`: ``a`` and ``b`` unchecked, broadcastable to ``out_shape``.

    Call it with divide, overflow and invalid floating-point warnings off
    (``np.errstate``): the stable root below divides by zero when ``nu == 0``.
    """
    nu = np.square(rng.gen.standard_normal(out_shape))
    r = a * nu / b
    # Smaller root x1 = a (1 - 2 / (1 + sqrt(1 + 4/r))); stable as r -> 0 and r -> inf.
    # nu == 0 gives r = 0 and x1 = a exactly; fp rounding of the stable form can
    # reach 0 for astronomically large r, where the true root is ~ b / nu.
    x1 = a * (1.0 - 2.0 / (1.0 + np.sqrt(1.0 + 4.0 / r)))
    x1 = np.where(x1 > 0.0, x1, b / nu)
    u = rng.gen.uniform(size=out_shape)
    return np.where(u <= a / (a + x1), x1, a * a / x1)


def sample_inverse_gamma(shape, rate, rng: RngStream, size=None):
    """Draw from Inverse-Gamma(a, b) with density ~ x^{-a-1} exp(-b/x).

    A draw is the reciprocal of a Gamma(a, rate=b) variate, so E[X] = b/(a-1)
    for a > 1 and E[1/X] = a/b.
    """
    a = _check_positive("shape", shape)
    b = _check_positive("rate", rate)
    out = _inverse_gamma(a, b, rng, size)
    return float(out) if size is None and a.shape == b.shape == () else out


def _inverse_gamma(shape, rate, rng: RngStream, size=None):
    """Core of :func:`sample_inverse_gamma`: ``shape`` and ``rate`` unchecked."""
    return rate / rng.gen.gamma(shape, 1.0, size=size)


def _dense_precision(prior_precision) -> np.ndarray:
    """Accept a SymTridiagonal or a dense SPD ndarray."""
    if hasattr(prior_precision, "to_dense"):
        return prior_precision.to_dense()
    arr = np.asarray(prior_precision, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidParameterError("prior precision must be a square matrix")
    return arr


def _banded_upper(prior_precision) -> np.ndarray:
    """Upper banded (2, p) storage of a tridiagonal precision for scipy."""
    if hasattr(prior_precision, "to_banded_upper"):
        return prior_precision.to_banded_upper()
    dense = _dense_precision(prior_precision)
    p = dense.shape[0]
    ab = np.zeros((2, p))
    ab[1] = np.diag(dense)
    if p > 1:
        ab[0, 1:] = np.diag(dense, 1)
    return ab


def _transpose_banded(upper_ab: np.ndarray) -> np.ndarray:
    """Convert upper (0,1)-banded storage to lower (1,0)-banded storage."""
    p = upper_ab.shape[1]
    lower = np.zeros_like(upper_ab)
    lower[0] = upper_ab[1]
    if p > 1:
        lower[1, : p - 1] = upper_ab[0, 1:]
    return lower


def _with_bands(base: np.ndarray, diag=None, off=None) -> np.ndarray:
    """A Fortran-ordered copy of ``base`` plus ``diag`` on its diagonal and ``off`` on
    both first off-diagonals; ``None`` adds nothing."""
    a = np.array(base, dtype=float, order="F")
    flat = a.reshape(-1, order="F")  # a view: entry (i, j) sits at i + j p
    step = a.shape[0] + 1
    if diag is not None:
        flat[::step] += diag
    if off is not None:
        flat[1::step] += off
        flat[step - 1::step] += off
    return a


def _chol_with_jitter(base: np.ndarray, diag=None, off=None) -> np.ndarray:
    """Lower Cholesky factor of ``_with_bands(base, diag, off)``, factored in place;
    if that is not numerically SPD, one retry adds a trace-scaled jitter."""
    factor, info = _potrf(_with_bands(base, diag, off), lower=1, overwrite_a=1, clean=0)
    if info == 0:
        return factor
    a = _with_bands(base, diag, off)
    p = a.shape[0]
    jitter = 1e-10 * np.trace(a) / p
    try:
        return cho_factor(a + jitter * np.eye(p), lower=True)[0]
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"posterior precision not SPD even after jitter {jitter:.3e}") from exc


def _regression_draw(xtx: np.ndarray, xty: np.ndarray, diag, off, sigma2: float, rng: RngStream,
                     size: int | None = None) -> np.ndarray:
    """Unchecked core of the Cholesky branch of :func:`sample_gaussian_regression_conditional`;
    P is given by its diagonal ``diag`` and first off-diagonal ``off`` (``None`` if diagonal)."""
    factor = _chol_with_jitter(xtx, diag, off)
    mean, _ = _potrs(factor, xty, lower=1)
    z = rng.gen.standard_normal((xty.shape[0], 1 if size is None else int(size)))
    # beta = mean + sigma L^{-T} z  with  X'X + P = L L'.
    noise, _ = _trtrs(factor, z, lower=1, trans=1, overwrite_b=1)
    draw = mean[None, :] + float(np.sqrt(sigma2)) * noise.T
    return draw[0] if size is None else draw


def sample_gaussian_regression_conditional(
    xtx: np.ndarray,
    xty: np.ndarray,
    prior_precision,
    sigma2: float,
    rng: RngStream,
    method: str = "cholesky",
    X: np.ndarray | None = None,
    y: np.ndarray | None = None,
    size: int | None = None,
) -> np.ndarray:
    """Exact draw from N_p((X'X + P)^{-1} X'y, sigma2 (X'X + P)^{-1}).

    ``method="cholesky"`` factors the p x p posterior precision directly.
    ``method="fast_np"`` uses the structured O(n^2 p) scheme for p >> n: draw
    u ~ N(0, P^{-1}) and delta ~ N(0, I_n), solve the n x n system
    (X P^{-1} X' + I) w = y/sigma - X u - delta, and return
    sigma (u + P^{-1} X' w).  Both methods target the identical distribution;
    ``fast_np`` needs ``X`` and ``y`` explicitly and a tridiagonal or diagonal
    prior precision.

    Parameters
    ----------
    xtx, xty:
        Gram matrix X'X (p x p) and X'y (p,).
    prior_precision:
        SPD prior precision; a ``SymTridiagonal`` or a dense ndarray.
    sigma2:
        Noise variance multiplying the posterior covariance.
    size:
        If given, return ``size`` independent draws as a (size, p) array.

    Raises
    ------
    DecompositionError
        If a required factorization fails after one jitter retry.
    """
    if not np.isfinite(sigma2) or sigma2 <= 0:
        raise InvalidParameterError("sigma2 must be strictly positive and finite")
    xtx, xty = np.asarray(xtx, dtype=float), np.asarray(xty, dtype=float)
    p = xty.shape[0]
    if xtx.shape != (p, p) or not (np.all(np.isfinite(xtx)) and np.all(np.isfinite(xty))):
        raise InvalidParameterError(f"X'X must be a finite {p} x {p} matrix to match a finite X'y")
    n_draws = 1 if size is None else int(size)

    if method == "cholesky":
        if hasattr(prior_precision, "off"):  # tridiagonal: its bands go straight into X'X
            bands, base = (prior_precision.diag, prior_precision.off), xtx
        else:
            bands, base = (None, None), xtx + _dense_precision(prior_precision)
        if not all(np.all(np.isfinite(x)) for x in (base, *bands) if x is not None):
            raise InvalidParameterError("prior precision must be finite")
        return _regression_draw(base, xty, *bands, sigma2, rng, size)

    if method == "fast_np":
        if X is None or y is None:
            raise InvalidParameterError("method='fast_np' requires X and y")
        sig = float(np.sqrt(sigma2))
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        n = y.shape[0]
        ab = _banded_upper(prior_precision)
        try:
            chol_ab = cholesky_banded(ab)  # P = U'U with U upper banded
        except np.linalg.LinAlgError as exc:
            raise DecompositionError("prior precision not SPD") from exc
        z = rng.gen.standard_normal((p, n_draws))
        u = solve_banded((0, 1), chol_ab, z)  # u ~ N(0, P^{-1})
        delta = rng.gen.standard_normal((n, n_draws))
        # S = P^{-1} X' through the same banded factor (two triangular solves).
        s = solve_banded((0, 1), chol_ab, solve_banded((1, 0), _transpose_banded(chol_ab), X.T))
        g = X @ s + np.eye(n)
        g_factor = _chol_with_jitter(g)
        rhs = y[:, None] / sig - X @ u - delta
        w, _ = _potrs(g_factor, rhs, lower=1)
        draw = (sig * (u + s @ w)).T
        return draw[0] if size is None else draw

    raise InvalidParameterError(f"unknown method {method!r}")
