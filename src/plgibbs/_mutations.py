"""Deliberately wrong fused-model kernels for harness calibration.

Each mutant runs the production sweep with exactly one formula broken.  They
exist so the verification suite can demonstrate it detects single-formula
errors; nothing here is ever used for inference.
"""

from __future__ import annotations

import numpy as np

from .distributions import sample_gaussian_regression_conditional, sample_inverse_gamma
from .gibbs import _rss, _sigma2_params, draw_scales
from .model_core import FusedState, SymTridiagonal, build_fused_precision, fused_quadratic_form


def _fused_sweep(state, data, hyper, rng, shape=None, with_xi=True, tau_scale=1.0, with_band=True):
    """The contracted fused sweep from the validated primitives; each keyword breaks one formula."""
    quad = fused_quadratic_form(state.beta, state.tau2, state.w2)
    rss = _rss(state.beta, data)
    if shape is None:
        shape = (data.n + data.p + 2.0 * hyper.alpha) / 2.0
    rate = (rss + quad + 2.0 * hyper.xi) / 2.0 if with_xi else (rss + quad) / 2.0
    sigma2 = sample_inverse_gamma(shape, rate, rng)
    tau2 = draw_scales(tau_scale * np.abs(state.beta), hyper.lambda1**2, sigma2, rng)
    w2 = draw_scales(np.abs(np.diff(state.beta)), hyper.lambda2**2, sigma2, rng)
    prec = build_fused_precision(tau2, w2)
    if not with_band:
        prec = SymTridiagonal(diag=prec.diag, off=np.zeros_like(prec.off))
    beta = sample_gaussian_regression_conditional(data.xtx, data.xty, prec, sigma2, rng)
    return FusedState(beta, tau2, w2, sigma2)


def wrong_sigma2_shape(state, data, hyper, rng):
    """sigma2 shape (n + 2 alpha)/2: the coefficient count is dropped."""
    return _fused_sweep(state, data, hyper, rng, shape=(data.n + 2.0 * hyper.alpha) / 2.0)


def wrong_ig_mean(state, data, hyper, rng):
    """Reciprocal-tau2 mean halved (magnitudes doubled before the draw)."""
    return _fused_sweep(state, data, hyper, rng, tau_scale=2.0)


def swapped_update_order(state, data, hyper, rng):
    """beta drawn before the scales (a valid scan, but not the contracted one)."""
    quad = fused_quadratic_form(state.beta, state.tau2, state.w2)
    shape, rate = _sigma2_params(_rss(state.beta, data), quad, data.n, data.p, hyper)
    sigma2 = sample_inverse_gamma(shape, rate, rng)
    prec_old = build_fused_precision(state.tau2, state.w2)
    beta = sample_gaussian_regression_conditional(data.xtx, data.xty, prec_old, sigma2, rng)
    tau2 = draw_scales(np.abs(beta), hyper.lambda1**2, sigma2, rng)
    w2 = draw_scales(np.abs(np.diff(beta)), hyper.lambda2**2, sigma2, rng)
    return FusedState(beta, tau2, w2, sigma2)


def missing_xi(state, data, hyper, rng):
    """sigma2 rate without the + 2 xi prior term."""
    return _fused_sweep(state, data, hyper, rng, with_xi=False)


def dropped_offdiagonal(state, data, hyper, rng):
    """beta drawn with the fusion band of the prior precision zeroed."""
    return _fused_sweep(state, data, hyper, rng, with_band=False)


MUTATIONS = {
    "wrong_sigma2_shape": wrong_sigma2_shape,
    "wrong_ig_mean": wrong_ig_mean,
    "swapped_update_order": swapped_update_order,
    "missing_xi": missing_xi,
    "dropped_offdiagonal": dropped_offdiagonal,
}
