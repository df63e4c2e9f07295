"""Deliberately wrong fused-model kernels for harness calibration.

Each mutant runs the production fused sweep with exactly one formula broken,
through an override of the model spec or of the hyperparameters.  They exist
so the verification suite can demonstrate it detects single-formula errors;
nothing here is ever used for inference.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .distributions import sample_gaussian_regression_conditional, sample_inverse_gamma
from .gibbs import SPECS, _step, bfl_full_conditional_params, draw_scales
from .model_core import FusedState, Hyperparameters, _unchecked_constructor, build_fused_precision

FUSED = SPECS["bfl"]
_DOUBLED_TAU = replace(FUSED, magnitudes=lambda beta, groups: (2.0 * np.abs(beta),
                                                                 FUSED.magnitudes(beta, groups)[1]))
_NO_BAND = replace(FUSED, bands=lambda groups, tau2, w2: (FUSED.bands(groups, tau2, w2)[0], None))
# alpha may go negative below, where the validated constructor would refuse it.
_hyperparameters = _unchecked_constructor(Hyperparameters)


def wrong_sigma2_shape(state, data, hyper, rng):
    """sigma2 shape (n + 2 alpha)/2: the coefficient count is dropped.

    The production sweep at alpha - p/2, whose shape (n + p + 2 alpha)/2 is then (n + 2 alpha)/2.
    """
    shifted = _hyperparameters(hyper.lambda1, hyper.lambda2, hyper.alpha - data.p / 2.0, hyper.xi)
    return _step(FUSED, state, data, shifted, None, rng)


def wrong_ig_mean(state, data, hyper, rng):
    """Reciprocal-tau2 mean halved (magnitudes doubled before the draw)."""
    return _step(_DOUBLED_TAU, state, data, hyper, None, rng)


def swapped_update_order(state, data, hyper, rng):
    """beta drawn before the scales (a valid scan, but not the contracted one)."""
    params = bfl_full_conditional_params(state, data, hyper)
    sigma2 = sample_inverse_gamma(params.sigma2_shape, params.sigma2_rate, rng)
    prec_old = build_fused_precision(state.tau2, state.w2)
    beta = sample_gaussian_regression_conditional(data.xtx, data.xty, prec_old, sigma2, rng)
    tau2, w2 = (draw_scales(m, getattr(hyper, lam)**2, sigma2, rng)
                for m, lam in zip(FUSED.magnitudes(beta, None), FUSED.lambdas))
    return FusedState(beta, tau2, w2, sigma2)


def missing_xi(state, data, hyper, rng):
    """sigma2 rate without the + 2 xi prior term: the production sweep at xi = 0."""
    return _step(FUSED, state, data, replace(hyper, xi=0.0), None, rng)


def dropped_offdiagonal(state, data, hyper, rng):
    """beta drawn with the fusion band of the prior precision zeroed."""
    return _step(_NO_BAND, state, data, hyper, None, rng)


MUTATIONS = {
    "wrong_sigma2_shape": wrong_sigma2_shape,
    "wrong_ig_mean": wrong_ig_mean,
    "swapped_update_order": swapped_update_order,
    "missing_xi": missing_xi,
    "dropped_offdiagonal": dropped_offdiagonal,
}
