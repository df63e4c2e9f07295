"""Correctness harness: joint-distribution testing, prior checks, and a
quadrature posterior oracle for tiny instances.

The joint-distribution (two-simulator) test draws parameters from the exact
priors (including the coupled fused-scale prior, sampled by rejection from
the product envelope that also proves its propriety) and compares moments
against a chain that alternates Gibbs sweeps with response redraws.  The
prior checks integrate the unnormalized fused prior by importance sampling
and confirm its marginal coefficient law; the oracle integrates the p = 1
posterior by deterministic nested quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .distributions import RngStream, sample_gaussian_regression_conditional, sample_inverse_gamma
from .errors import ConfigurationError, GridConvergenceError, InvalidParameterError, PlgError
from .gibbs import (  # the *_step names are looked up here by name, as perfbench/tracing.py expects
    SPECS, _batch_beta_draw, _bind, _full_conditionals, _spec, bfl_step, bgl_step, bsgl_step, draw_scales,
)
from .model_core import (
    Dataset,
    FusedState,
    GroupStructure,
    Hyperparameters,
    SymTridiagonal,
    _fused_bands,
    _fused_quad,
    _sparse_diag,
)
from .output_analysis import batch_means_cov

__all__ = [
    "CheckResult",
    "TEST_FUNCTION_NAMES",
    "sample_fused_prior_scales",
    "sample_joint_prior",
    "geweke_joint_test",
    "update_order_check",
    "mutation_sensitivity_check",
    "fused_prior_propriety_check",
    "fused_marginal_prior_check",
    "posterior_oracle_1d",
    "OracleGrid",
    "PosteriorMoments1D",
]

TEST_FUNCTION_NAMES = ("beta1", "beta1_sq", "sigma2", "log_sigma2", "tau2_1", "beta1_sigma2")

# Gibbs sweeps between response redraws on the successive-conditional side.
GEWEKE_SUBSTEPS = 3
# The joint-distribution test passes when every |z| is below this.
GEWEKE_Z_THRESHOLD = 4.0
# A marginal-prior pair passes within this many combined standard errors.
MARGINAL_SE_THRESHOLD = 3.0


@dataclass
class CheckResult:
    """Outcome of one verification check."""

    name: str
    statistics: dict
    threshold: float
    passed: bool
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Exact prior samplers
# ---------------------------------------------------------------------------

def _tridiag_det_batch(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Vectorized continuant recurrence over a batch of tridiagonal matrices."""
    r, p = diag.shape
    f_prev = np.ones(r)
    f = diag[:, 0].copy()
    for i in range(1, p):
        f_prev, f = f, diag[:, i] * f - off[:, i - 1] ** 2 * f_prev
    return f


def sample_fused_prior_scales(p: int, lambda1: float, lambda2: float, rng: RngStream,
                              size: int = 1) -> tuple:
    """Exact draws from the coupled fused-scale prior by rejection.

    Proposes tau2 ~ Exp(lambda1^2/2) and w2 ~ Gamma(1/2, lambda2^2/2)
    independently and accepts with probability
    det(Sigma_{tau,w})^{1/2} / prod(2 tau2_i)^{1/2} <= 1, the exact ratio of
    the prior to its dominating product envelope.
    """
    need = int(size)
    tau_out = np.empty((need, p))
    w_out = np.empty((need, max(p - 1, 0)))
    filled = 0
    while filled < need:
        m = max(2 * (need - filled), 64)
        tau2 = rng.gen.exponential(2.0 / lambda1**2, size=(m, p))
        w2 = rng.gen.gamma(0.5, 2.0 / lambda2**2, size=(m, max(p - 1, 0)))
        if p == 1:
            accept = np.ones(m, dtype=bool)
        else:
            diag, off = _fused_bands(tau2, w2)
            det_prec = _tridiag_det_batch(diag, off)
            ratio = 1.0 / np.sqrt(det_prec * np.prod(2.0 * tau2, axis=1))
            accept = rng.gen.uniform(size=m) < ratio
        taking = min(int(np.sum(accept)), need - filled)
        idx = np.nonzero(accept)[0][:taking]
        tau_out[filled:filled + taking] = tau2[idx]
        w_out[filled:filled + taking] = w2[idx]
        filled += taking
    return tau_out, w_out


def _sample_bsgl_prior_scales(groups: GroupStructure, lambda1: float, lambda2: float,
                              rng: RngStream, size: int) -> tuple:
    """Rejection draws from the sparse-group scale prior, group by group."""
    need = int(size)
    tau_out = np.empty((need, groups.K))
    gamma_out = np.empty((need, groups.p))
    for k, sl in enumerate(groups.slices):
        m_k = groups.sizes[k]
        filled = 0
        while filled < need:
            m = max(2 * (need - filled), 64)
            tau2 = rng.gen.gamma((m_k + 1) / 2.0, 2.0 / lambda1**2, size=m)
            gamma2 = rng.gen.gamma(0.5, 2.0 / lambda2**2, size=(m, m_k))
            ratio = np.sqrt(np.prod(gamma2 / (gamma2 + tau2[:, None]), axis=1))
            accept = rng.gen.uniform(size=m) < ratio
            taking = min(int(np.sum(accept)), need - filled)
            idx = np.nonzero(accept)[0][:taking]
            tau_out[filled:filled + taking, k] = tau2[idx]
            gamma_out[filled:filled + taking, sl] = gamma2[idx]
            filled += taking
    return tau_out, gamma_out


def sample_joint_prior(model_id: str, p: int, hyper: Hyperparameters, rng: RngStream,
                       groups: GroupStructure | None = None, size: int = 1) -> dict:
    """Exact joint prior draws of (beta, scales, sigma2) for one model.

    Requires a proper noise-variance prior (alpha > 0, xi > 0).
    """
    if hyper.alpha <= 0 or hyper.xi <= 0:
        raise ConfigurationError("joint prior draws need alpha > 0 and xi > 0")
    _spec(model_id, p, groups)
    r = int(size)
    sigma2 = sample_inverse_gamma(hyper.alpha, hyper.xi, rng, size=r)
    if model_id == "bfl":
        tau2, w2 = sample_fused_prior_scales(p, hyper.lambda1, hyper.lambda2, rng, size=r)
        # beta ~ N(0, sigma2 P^{-1}): the regression draw with X'X = 0 and X'y = 0
        beta = _batch_beta_draw(np.zeros((p, p)), np.zeros(p), *_fused_bands(tau2, w2), sigma2, rng)
        return {"beta": beta, "tau2": tau2, "w2": w2, "sigma2": sigma2}
    if model_id == "bgl":
        shapes = (np.asarray(groups.sizes, dtype=float) + 1.0) / 2.0
        tau2 = rng.gen.gamma(shapes[None, :], 2.0 / hyper.lambda1**2, size=(r, groups.K))
        variances = np.repeat(tau2, groups.sizes, axis=1) * sigma2[:, None]
        beta = np.sqrt(variances) * rng.gen.standard_normal((r, p))
        return {"beta": beta, "tau2": tau2, "sigma2": sigma2}
    tau2, gamma2 = _sample_bsgl_prior_scales(groups, hyper.lambda1, hyper.lambda2, rng, size=r)
    variances = sigma2[:, None] / _sparse_diag(tau2, gamma2, groups)
    beta = np.sqrt(variances) * rng.gen.standard_normal((r, p))
    return {"beta": beta, "tau2": tau2, "gamma2": gamma2, "sigma2": sigma2}


# ---------------------------------------------------------------------------
# Joint-distribution (two-simulator) test
# ---------------------------------------------------------------------------

def _state_from_arrays(model_id: str, arrs: dict, i: int):
    spec = SPECS[model_id]
    return spec.state(arrs["beta"][i], *(arrs[name][i] for name in spec.blocks), float(arrs["sigma2"][i]))


def _test_functions(beta1, sigma2, tau2_1) -> np.ndarray:
    return np.column_stack([
        beta1,
        beta1**2,
        sigma2,
        np.log(sigma2),
        tau2_1,
        beta1 * sigma2,
    ])


def geweke_joint_test(
    model_id: str,
    n: int,
    p: int,
    groups: GroupStructure | None = None,
    hyper: Hyperparameters | None = None,
    replicates: int = 10_000,
    rng: RngStream | None = None,
    step_fn=None,
) -> CheckResult:
    """Two-simulator joint-distribution test for one sampler.

    The marginal-conditional side draws (parameters, y) iid from the joint
    model; the successive-conditional side alternates ``GEWEKE_SUBSTEPS``
    Gibbs sweeps with a y-redraw from the likelihood, starting from an exact
    joint draw (so it runs in stationarity under a correct kernel).  The two
    sides are compared through two-sample z statistics on six test
    functions; all |z| below ``GEWEKE_Z_THRESHOLD`` passes.

    ``step_fn`` overrides the kernel (used for mutation sensitivity); it must
    have the matching step signature.
    """
    if hyper is None:
        hyper = Hyperparameters(lambda1=1.0, lambda2=1.0, alpha=3.0, xi=2.0)
    if hyper.alpha <= 1.0 or hyper.xi <= 0.0:
        raise ConfigurationError(
            "the joint-distribution test needs alpha > 1 and xi > 0 so the prior "
            "moments of sigma2 used by the z statistics exist"
        )
    if replicates < 1000:
        raise InvalidParameterError("replicates must be at least 1000")
    spec = _spec(model_id, p, groups)
    rng = RngStream(0, 0) if rng is None else rng

    x_mat = rng.gen.standard_normal((n, p))

    # Marginal-conditional: iid draws from the joint prior (y never feeds back).
    mc = sample_joint_prior(model_id, p, hyper, rng, groups=groups, size=replicates)
    g_mc = _test_functions(mc["beta"][:, 0], mc["sigma2"], mc["tau2"][:, 0])

    # Successive-conditional: Gibbs sweep(s) then a y redraw, from a joint start.
    start = sample_joint_prior(model_id, p, hyper, rng, groups=groups, size=1)
    state = _state_from_arrays(model_id, start, 0)
    if step_fn is None:
        step_fn = _bind(globals()[f"{model_id}_step"], spec, groups)
    y = x_mat @ np.asarray(state.beta) + np.sqrt(state.sigma2) * rng.gen.standard_normal(n)
    g_sc = np.empty((replicates, len(TEST_FUNCTION_NAMES)))
    try:
        for t in range(replicates):
            data = Dataset(y=y, X=x_mat)
            for _ in range(GEWEKE_SUBSTEPS):
                state = step_fn(state, data, hyper, rng)
            y = x_mat @ np.asarray(state.beta) + np.sqrt(state.sigma2) * rng.gen.standard_normal(n)
            g_sc[t] = _test_functions(
                np.atleast_1d(state.beta)[:1], np.array([state.sigma2]), np.atleast_1d(state.tau2)[:1]
            )[0]
    except (PlgError, np.linalg.LinAlgError, FloatingPointError) as exc:
        # A kernel that destroys the state space cannot be in stationarity.
        return CheckResult(
            name=f"geweke_{model_id}",
            statistics={"max_abs_z": np.inf},
            threshold=GEWEKE_Z_THRESHOLD,
            passed=False,
            details={"kernel_failure": f"{type(exc).__name__}: {exc}", "at_replicate": t},
        )

    mean_mc = g_mc.mean(axis=0)
    se_mc = g_mc.std(axis=0, ddof=1) / np.sqrt(replicates)
    mean_sc = g_sc.mean(axis=0)
    se_sc = np.sqrt(np.diag(batch_means_cov(g_sc)) / replicates)
    z = (mean_mc - mean_sc) / np.sqrt(se_mc**2 + se_sc**2)

    details = {
        name: {"z": float(z[j]), "marginal_mean": float(mean_mc[j]), "successive_mean": float(mean_sc[j])}
        for j, name in enumerate(TEST_FUNCTION_NAMES)
    }
    return CheckResult(
        name=f"geweke_{model_id}",
        statistics={"max_abs_z": float(np.max(np.abs(z)))},
        threshold=GEWEKE_Z_THRESHOLD,
        passed=bool(np.all(np.abs(z) < GEWEKE_Z_THRESHOLD)),
        details=details,
    )


# ---------------------------------------------------------------------------
# Update-order check (reconstruct the sweep from its contract)
# ---------------------------------------------------------------------------

def update_order_check(model_id: str, state, data: Dataset, hyper: Hyperparameters,
                       groups: GroupStructure | None = None, seed: int = 1234,
                       step_fn=None) -> CheckResult:
    """Verify the sweep order sigma2 -> scales -> beta by exact replay.

    Runs one kernel step under a fresh stream, then independently replays the
    contracted draw sequence with an identical stream: sigma2 from the
    previous state's parameters, scale blocks from the previous beta and the
    fresh sigma2, beta from the fresh scales.  Any reordering (or extra
    consumption) breaks the bit-level match.
    """
    spec = _spec(model_id)
    rng_step = RngStream(seed, 17)
    rng_replay = RngStream(seed, 17)
    out = (step_fn or _bind(globals()[f"{model_id}_step"], spec, groups))(state, data, hyper, rng_step)

    params = _full_conditionals(model_id, state, data, hyper, groups)
    sigma2 = sample_inverse_gamma(params.sigma2_shape, params.sigma2_rate, rng_replay)
    scales = [draw_scales(mags, getattr(hyper, lam)**2, sigma2, rng_replay)
              for mags, lam in zip(spec.magnitudes(state.beta, groups), spec.lambdas)]
    diag, off = spec.bands(groups, *scales)
    prec = SymTridiagonal(diag, np.zeros(data.p - 1) if off is None else off)
    beta = sample_gaussian_regression_conditional(data.xtx, data.xty, prec, sigma2, rng_replay)
    expected = {"sigma2": sigma2, **dict(zip(spec.blocks, scales)), "beta": beta}

    got = {key: getattr(out, key) for key in expected}
    mismatches = {
        key: float(np.max(np.abs(np.asarray(got[key]) - np.asarray(expected[key])), initial=0.0))
        for key in expected
    }
    passed = all(v == 0.0 for v in mismatches.values())
    return CheckResult(
        name=f"update_order_{model_id}",
        statistics={"max_abs_mismatch": max(mismatches.values())},
        threshold=0.0,
        passed=passed,
        details=mismatches,
    )


def mutation_sensitivity_check(
    n: int = 4,
    p: int = 3,
    hyper: Hyperparameters | None = None,
    replicates: int = 10_000,
    rng: RngStream | None = None,
) -> list:
    """Run the harness against five deliberately wrong fused kernels.

    Each mutation must be caught by at least one check: the joint-distribution
    test for distributional mutations, the update-order replay for the
    reordered sweep.  Returns one CheckResult per mutation whose ``passed``
    means "the harness caught it".
    """
    from . import _mutations

    if hyper is None:
        hyper = Hyperparameters(lambda1=1.0, lambda2=1.0, alpha=3.0, xi=2.0)
    rng = RngStream(7, 0) if rng is None else rng
    results = []
    for mut_index, (name, mutant) in enumerate(_mutations.MUTATIONS.items()):
        sub = rng.substream(mut_index)
        geweke = geweke_joint_test(
            "bfl", n, p, hyper=hyper, replicates=replicates, rng=sub, step_fn=mutant,
        )
        state = FusedState(beta=np.linspace(-1.0, 1.0, p), tau2=np.ones(p), w2=np.ones(p - 1), sigma2=1.0)
        data_rng = RngStream(11, 3)
        data = Dataset(
            y=data_rng.gen.standard_normal(n),
            X=data_rng.gen.standard_normal((n, p)),
        )
        order = update_order_check("bfl", state, data, hyper, step_fn=mutant)
        caught = (not geweke.passed) or (not order.passed)
        results.append(CheckResult(
            name=f"mutation_{name}",
            statistics={
                "geweke_max_abs_z": geweke.statistics["max_abs_z"],
                "order_mismatch": order.statistics["max_abs_mismatch"],
            },
            threshold=GEWEKE_Z_THRESHOLD,
            passed=caught,
            details={"geweke_failed": not geweke.passed, "order_failed": not order.passed},
        ))
    return results


# ---------------------------------------------------------------------------
# Fused prior checks
# ---------------------------------------------------------------------------

def fused_prior_propriety_check(p: int, lambda1: float, lambda2: float,
                                mc_samples: int = 100_000,
                                rng: RngStream | None = None) -> CheckResult:
    """Importance-sampled integral of the unnormalized fused-scale prior.

    Samples the dominating product density (exponential tau2 blocks, Gamma(1/2)
    w2 blocks) and averages the exact density ratio
    det(Sigma)^{1/2} prod(tau2)^{-1/2} times the envelope normalizers.  The
    ratio is bounded by 2^{p/2}, so the estimate is finite with bounded-weight
    accuracy; the bound itself is asserted pointwise on every sample.

    Passes when the relative Monte Carlo error is below 5% and no sampled
    point violates the bound.  For p = 1 the integral is exactly
    2 / lambda1^2.
    """
    if p < 1 or p > 6:
        raise InvalidParameterError("propriety check is desk-scale: 1 <= p <= 6")
    rng = RngStream(0, 0) if rng is None else rng
    m = int(mc_samples)
    tau2 = rng.gen.exponential(2.0 / lambda1**2, size=(m, p))
    if p > 1:
        w2 = rng.gen.gamma(0.5, 2.0 / lambda2**2, size=(m, p - 1))
        diag, off = _fused_bands(tau2, w2)
        det_prec = _tridiag_det_batch(diag, off)
        ratio = 1.0 / np.sqrt(det_prec * np.prod(2.0 * tau2, axis=1)) * 2.0 ** (p / 2.0)
    else:
        ratio = np.ones(m)
    bound = 2.0 ** (p / 2.0)
    bound_ok = bool(np.all(ratio <= bound * (1.0 + 1e-12)))
    # Envelope normalizers: p exponential means, p-1 Gamma(1/2, lambda2^2/2) masses.
    log_norm = p * np.log(2.0 / lambda1**2) + (p - 1) * np.log(np.sqrt(2.0 * np.pi) / lambda2)
    weights = ratio * np.exp(log_norm)
    estimate = float(np.mean(weights))
    rel_err = float(np.std(weights, ddof=1) / np.sqrt(m) / estimate) if m > 1 else np.inf
    passed = bool(np.isfinite(estimate) and rel_err < 0.05 and bound_ok)
    return CheckResult(
        name=f"fused_prior_propriety_p{p}",
        statistics={"integral": estimate, "relative_mc_error": rel_err},
        threshold=0.05,
        passed=passed,
        details={"bound_satisfied": bound_ok, "max_ratio": float(np.max(ratio)), "bound": bound},
    )


def _fused_marginal_weights(beta: np.ndarray, tau2: np.ndarray, w2: np.ndarray,
                            sigma2: float) -> np.ndarray:
    """Unnormalized integrand of the coefficient marginal at one beta.

    The precision determinant of the Gaussian factor cancels against the
    prior's covariance determinant, leaving prod(tau2)^{-1/2} times the
    quadratic-form exponential.
    """
    quad = _fused_quad(beta, tau2, w2)
    return np.exp(-0.5 * quad / sigma2) / np.sqrt(np.prod(tau2, axis=1))


def fused_marginal_prior_check(p: int, lambda1: float, lambda2: float, sigma2: float,
                               beta_points, mc_samples: int = 1_000_000,
                               rng: RngStream | None = None) -> CheckResult:
    """Monte Carlo check that the fused prior's coefficient marginal is the
    double-exponential law exp(-(l1/s) sum|b_j| - (l2/s) sum|b_{j+1}-b_j|).

    For each pair (b, b') the marginal ratio is estimated by importance
    sampling over the scales (independent batches for numerator and
    denominator) and compared with the closed-form ratio; a pair passes when
    the difference is within ``MARGINAL_SE_THRESHOLD`` combined standard errors.
    """
    if p < 1 or p > 4:
        raise InvalidParameterError("marginal check is desk-scale: 1 <= p <= 4")
    rng = RngStream(0, 0) if rng is None else rng
    m = int(mc_samples)
    sig = float(np.sqrt(sigma2))

    def draw_batch():
        tau2 = rng.gen.exponential(2.0 / lambda1**2, size=(m, p))
        w2 = rng.gen.gamma(0.5, 2.0 / lambda2**2, size=(m, max(p - 1, 0)))
        return tau2, w2

    batch_num = draw_batch()
    batch_den = draw_batch()

    def laplace_log(beta):
        beta = np.asarray(beta, dtype=float)
        val = -lambda1 / sig * float(np.sum(np.abs(beta)))
        if p > 1:
            val -= lambda2 / sig * float(np.sum(np.abs(np.diff(beta))))
        return val

    details = {}
    all_ok = True
    for idx, (b1, b2) in enumerate(beta_points):
        b1 = np.atleast_1d(np.asarray(b1, dtype=float))
        b2 = np.atleast_1d(np.asarray(b2, dtype=float))
        if np.array_equal(b1, b2):
            details[f"pair_{idx}"] = {"estimate": 1.0, "exact": 1.0, "se": 0.0,
                                      "z": 0.0, "passed": True}
            continue
        w_num = _fused_marginal_weights(b1, batch_num[0], batch_num[1], sigma2)
        w_den = _fused_marginal_weights(b2, batch_den[0], batch_den[1], sigma2)
        m_num, m_den = float(np.mean(w_num)), float(np.mean(w_den))
        cv_num = float(np.std(w_num, ddof=1) / np.sqrt(m) / m_num)
        cv_den = float(np.std(w_den, ddof=1) / np.sqrt(m) / m_den)
        ratio = m_num / m_den
        se = ratio * np.sqrt(cv_num**2 + cv_den**2)
        exact = float(np.exp(laplace_log(b1) - laplace_log(b2)))
        zval = (ratio - exact) / se if se > 0 else np.inf if ratio != exact else 0.0
        ok = abs(ratio - exact) <= MARGINAL_SE_THRESHOLD * se or ratio == exact
        all_ok &= ok
        details[f"pair_{idx}"] = {
            "estimate": ratio, "exact": exact, "se": se, "z": float(zval), "passed": bool(ok),
        }
    worst = max(abs(d["z"]) for d in details.values()) if details else 0.0
    return CheckResult(
        name=f"fused_marginal_prior_p{p}",
        statistics={"max_abs_z": float(worst)},
        threshold=MARGINAL_SE_THRESHOLD,
        passed=bool(all_ok),
        details=details,
    )


# ---------------------------------------------------------------------------
# Posterior oracle for p = 1 (deterministic nested quadrature)
# ---------------------------------------------------------------------------

@dataclass
class OracleGrid:
    """Resolution ladder and tolerance for the nested quadrature."""

    levels: tuple = (161, 321, 641)
    rel_tol: float = 1e-4
    tail_logdrop: float = 35.0


@dataclass
class PosteriorMoments1D:
    beta_mean: float
    beta_var: float
    sigma2_mean: float
    sigma2_var: float
    rel_error: float
    converged: bool


def _simpson_weights(m: int) -> np.ndarray:
    w = np.ones(m)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def posterior_oracle_1d(data: Dataset, hyper: Hyperparameters,
                        grid: OracleGrid | None = None) -> PosteriorMoments1D:
    """Posterior means and variances of (beta, sigma2) for a p = 1 model by
    deterministic nested quadrature over (beta, log sigma2, log tau2).

    Integration ranges come from coarse scans of the analytically reduced
    scale marginals (used only for grid placement); the moments themselves
    are honest nested Simpson sums of the full joint density.  The grid is
    refined through ``grid.levels`` until all four moments move by less than
    ``rel_tol`` relative; the last relative change is the reported error.

    Only for p = 1 instances at desk scale (n <= 32); the single penalty is
    ``lambda1``.
    """
    if data.p != 1:
        raise InvalidParameterError("the quadrature oracle requires p = 1")
    if data.n > 32:
        raise InvalidParameterError("the quadrature oracle is desk-scale: n <= 32")
    grid = grid or OracleGrid()
    x = data.X[:, 0]
    y = data.y
    s = float(x @ x)
    xty = float(x @ y)
    yty = data.yty
    lam_sq = hyper.lambda1**2
    alpha, xi = hyper.alpha, hyper.xi
    n = data.n
    shape_sig = 0.5 * n + alpha  # sigma2 shape once beta is integrated out

    def q_of(tau2):
        v = 1.0 / (s + 1.0 / tau2)
        return yty - xty * xty * v, v

    # --- locate the relevant log tau2 range from the reduced scale marginal ---
    theta_wide = np.linspace(np.log(2.0 / lam_sq) - 120.0, np.log(1500.0 / lam_sq), 4001)
    tau_wide = np.exp(theta_wide)
    q_wide, _ = q_of(tau_wide)
    log_marg = (
        -0.5 * np.log1p(s * tau_wide)
        - shape_sig * np.log(0.5 * q_wide + xi)
        - 0.5 * lam_sq * tau_wide
        + theta_wide
    )
    keep = log_marg > np.max(log_marg) - grid.tail_logdrop
    theta_lo, theta_hi = float(theta_wide[keep][0]), float(theta_wide[keep][-1])

    # --- global log sigma2 box from the beta-integrated conditional tails ---
    q_keep = q_wide[keep]
    rate_lo = 0.5 * float(np.min(q_keep)) + xi
    rate_hi = 0.5 * float(np.max(q_keep)) + xi
    ls_lo = float(np.log(stats.invgamma.ppf(1e-13, shape_sig, scale=max(rate_lo, 1e-300)))) - 1.0
    ls_hi = float(np.log(stats.invgamma.isf(1e-13, shape_sig, scale=rate_hi))) + 1.0

    def moments_at(level: int):
        m_pts = level if level % 2 == 1 else level + 1
        theta_tau = np.linspace(theta_lo, theta_hi, m_pts)
        w_tau = _simpson_weights(m_pts) * (theta_tau[1] - theta_tau[0])
        tau2 = np.exp(theta_tau)
        q_tau, v_tau = q_of(tau2)
        theta_sig = np.linspace(ls_lo, ls_hi, m_pts)
        w_sig = _simpson_weights(m_pts) * (theta_sig[1] - theta_sig[0])
        sig2 = np.exp(theta_sig)
        # beta is integrated on its conditional grid beta = m + sqrt(sigma2 v) u,
        # so one fixed standardized axis resolves every conditional equally well.
        u = np.linspace(-10.0, 10.0, m_pts)
        w_u = _simpson_weights(m_pts) * (u[1] - u[0])

        node_ref = np.full(m_pts, -np.inf)
        raw = np.zeros((m_pts, 5))  # Z, beta, beta^2, sigma2, sigma2^2 numerators
        for i in range(m_pts):
            t2 = tau2[i]
            v = v_tau[i]
            mean_beta = xty * v
            # rss + beta^2/tau2 = Q(tau2) + u^2 sigma2 exactly under the substitution,
            # with the substitution Jacobian sqrt(sigma2 v).
            log_f = (
                -(0.5 * n + alpha) * theta_sig[:, None]
                - (0.5 * q_tau[i] + xi) / sig2[:, None]
                - 0.5 * u[None, :] ** 2
                + 0.5 * theta_tau[i]
                + 0.5 * np.log(v)
                - 0.5 * lam_sq * t2
            )
            ref = float(np.max(log_f))
            if not np.isfinite(ref):
                continue
            node_ref[i] = ref
            f = np.exp(log_f - ref)
            beta = mean_beta + np.sqrt(sig2[:, None] * v) * u[None, :]
            per_u = f @ w_u
            raw[i, 0] = per_u @ w_sig
            raw[i, 1] = ((f * beta) @ w_u) @ w_sig
            raw[i, 2] = ((f * beta * beta) @ w_u) @ w_sig
            raw[i, 3] = (per_u * sig2) @ w_sig
            raw[i, 4] = (per_u * sig2**2) @ w_sig
        global_ref = float(np.max(node_ref))
        scale = np.exp(node_ref - global_ref)
        totals = (raw * (scale * w_tau)[:, None]).sum(axis=0)
        if not np.isfinite(totals[0]) or totals[0] <= 0:
            raise GridConvergenceError("quadrature mass vanished; widen the grids")
        eb = totals[1] / totals[0]
        eb2 = totals[2] / totals[0]
        es = totals[3] / totals[0]
        es2 = totals[4] / totals[0]
        return np.array([eb, eb2 - eb * eb, es, es2 - es * es])

    prev = None
    rel = np.inf
    vals = None
    for level in grid.levels:
        vals = moments_at(level)
        if prev is not None:
            scale = np.array([
                max(abs(vals[0]), np.sqrt(max(vals[1], 1e-300))),
                max(abs(vals[1]), 1e-300),
                max(abs(vals[2]), 1e-300),
                max(abs(vals[3]), 1e-300),
            ])
            rel = float(np.max(np.abs(vals - prev) / scale))
            if rel < grid.rel_tol:
                return PosteriorMoments1D(
                    beta_mean=vals[0], beta_var=vals[1],
                    sigma2_mean=vals[2], sigma2_var=vals[3],
                    rel_error=rel, converged=True,
                )
        prev = vals
    raise GridConvergenceError(
        f"oracle did not reach rel_tol={grid.rel_tol} (last change {rel:.3e}); "
        "extend grid.levels"
    )
