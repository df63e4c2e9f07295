import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plgibbs.distributions import (
    RngStream,
    sample_gaussian_regression_conditional,
    sample_inverse_gamma,
)
from plgibbs.errors import InvalidParameterError, PlgError, StructureError
from plgibbs.gibbs import (
    ChainConfig,
    batch_transition,
    bfl_full_conditional_params,
    bfl_step,
    bgl_full_conditional_params,
    bgl_step,
    bsgl_full_conditional_params,
    bsgl_step,
    draw_scales,
    run_chain,
)
from plgibbs.model_core import (
    Dataset,
    FusedState,
    GroupState,
    GroupStructure,
    Hyperparameters,
    SparseGroupState,
    build_fused_precision,
    build_group_precision,
    build_sparse_precision,
    fused_quadratic_form,
)
from plgibbs.verification import sample_joint_prior, update_order_check

from conftest import mcse_of
from reference_kernels import bayesian_lasso_step, one_group_bsgl_step


class TestFullConditionalParams:
    def test_sigma2_shape_and_rate_hand_case(self):
        # n=2, p=1, alpha=xi=0, y=(1,0), X=(1,0)', beta=0, tau2=1
        data = Dataset(y=np.array([1.0, 0.0]), X=np.array([[1.0], [0.0]]))
        hyper = Hyperparameters(lambda1=1.0, lambda2=1.0, alpha=0.0, xi=0.0)
        state = FusedState(np.zeros(1), np.ones(1), np.zeros(0), sigma2=1.0)
        params = bfl_full_conditional_params(state, data, hyper)
        assert params.sigma2_shape == pytest.approx(1.5)
        assert params.sigma2_rate == pytest.approx(0.5)

    def test_tau2_ig_mean_hand_case(self):
        # lambda1=2, sigma2=4, beta_i=1  ->  IG mean 4, shape 4
        data = Dataset(y=np.zeros(2), X=np.eye(2))
        hyper = Hyperparameters(lambda1=2.0, lambda2=1.0, alpha=0.0, xi=0.0)
        state = FusedState(np.array([1.0, 1.0]), np.ones(2), np.ones(1), sigma2=4.0)
        params = bfl_full_conditional_params(state, data, hyper)
        assert np.allclose(params.tau2.ig_mean, 4.0)
        assert params.tau2.ig_shape == pytest.approx(4.0)
        assert not params.tau2.fallback.any()

    def test_zero_beta_flags_every_fallback(self):
        data = Dataset(y=np.zeros(3), X=np.eye(3))
        hyper = Hyperparameters(lambda1=1.5, lambda2=1.0, alpha=0.0, xi=0.0)
        state = FusedState(np.zeros(3), np.ones(3), np.ones(2), sigma2=1.0)
        params = bfl_full_conditional_params(state, data, hyper)
        assert params.tau2.fallback.all()
        assert params.w2.fallback.all()
        assert params.tau2.ig_shape == pytest.approx(1.5**2)

    def test_beta_mean_matches_normal_display(self, small_data, hyper):
        state = FusedState(
            np.ones(small_data.p), np.full(small_data.p, 2.0), np.full(small_data.p - 1, 3.0), 1.0
        )
        params = bfl_full_conditional_params(state, small_data, hyper)
        from plgibbs.model_core import build_fused_precision

        a = small_data.xtx + build_fused_precision(state.tau2, state.w2).to_dense()
        assert np.allclose(params.beta_mean, np.linalg.solve(a, small_data.xty))
        assert np.allclose(params.beta_chol_precision @ params.beta_chol_precision.T, a)

    def test_bgl_sigma2_shape_is_state_free(self, small_data, hyper, groups22):
        for scale in (0.1, 1.0, 50.0):
            state = GroupState(np.full(4, scale), np.full(2, scale), sigma2=scale)
            params = bgl_full_conditional_params(state, small_data, hyper, groups22)
            assert params.sigma2_shape == pytest.approx((small_data.n + small_data.p + 2 * hyper.alpha) / 2)

    def test_bgl_singleton_groups_match_bfl_tau_block(self, small_data, hyper):
        # with p singleton groups the group norms are |beta_i|, so the tau2
        # conditional coincides with the fused one (no fusion block)
        beta = np.array([1.0, -2.0, 0.5, 0.75])
        g_state = GroupState(beta, np.ones(4), 2.0)
        f_state = FusedState(beta, np.ones(4), np.ones(3), 2.0)
        g_params = bgl_full_conditional_params(g_state, small_data, hyper, GroupStructure((1,) * 4))
        f_params = bfl_full_conditional_params(f_state, small_data, hyper)
        assert np.allclose(g_params.tau2.ig_mean, f_params.tau2.ig_mean)
        assert g_params.tau2.ig_shape == f_params.tau2.ig_shape


class TestStepDeterminism:
    def test_bfl(self, small_data, hyper):
        state = FusedState(np.ones(4), np.ones(4), np.ones(3), 1.0)
        out1 = bfl_step(state, small_data, hyper, RngStream(5, 1))
        out2 = bfl_step(state, small_data, hyper, RngStream(5, 1))
        assert np.array_equal(out1.beta, out2.beta)
        assert np.array_equal(out1.tau2, out2.tau2)
        assert np.array_equal(out1.w2, out2.w2)
        assert out1.sigma2 == out2.sigma2

    def test_bgl_and_bsgl(self, small_data, hyper, groups22):
        g_state = GroupState(np.ones(4), np.ones(2), 1.0)
        a = bgl_step(g_state, small_data, hyper, groups22, RngStream(6, 1))
        b = bgl_step(g_state, small_data, hyper, groups22, RngStream(6, 1))
        assert np.array_equal(a.beta, b.beta) and a.sigma2 == b.sigma2
        s_state = SparseGroupState(np.ones(4), np.ones(2), np.ones(4), 1.0)
        c = bsgl_step(s_state, small_data, hyper, groups22, RngStream(7, 1))
        d = bsgl_step(s_state, small_data, hyper, groups22, RngStream(7, 1))
        assert np.array_equal(c.beta, d.beta) and np.array_equal(c.gamma2, d.gamma2)

    def test_degenerate_zero_start_completes(self, small_data, hyper, groups22):
        f = bfl_step(FusedState(np.zeros(4), np.ones(4), np.ones(3)), small_data, hyper, RngStream(8, 0))
        assert np.all(f.tau2 > 0) and np.all(f.w2 > 0) and f.sigma2 > 0
        s = bsgl_step(
            SparseGroupState(np.zeros(4), np.ones(2), np.ones(4)),
            small_data, hyper, groups22, RngStream(8, 1),
        )
        assert np.all(s.tau2 > 0) and np.all(s.gamma2 > 0)


class TestUpdateOrder:
    @pytest.mark.parametrize("model", ["bfl", "bgl", "bsgl"])
    def test_sweep_matches_contracted_replay(self, model, small_data, hyper, groups22):
        if model == "bfl":
            state = FusedState(np.array([0.5, -1.0, 0.0, 2.0]), np.ones(4), np.ones(3), 1.0)
        elif model == "bgl":
            state = GroupState(np.array([0.5, -1.0, 0.0, 2.0]), np.ones(2), 1.0)
        else:
            state = SparseGroupState(np.array([0.5, -1.0, 0.0, 2.0]), np.ones(2), np.ones(4), 1.0)
        res = update_order_check(model, state, small_data, hyper,
                                 groups=None if model == "bfl" else groups22)
        assert res.passed, res.details

    def test_single_coefficient_fused_replay(self, hyper):
        # p = 1 leaves the fusion block empty
        data = Dataset(y=np.array([1.0, 2.0, 0.5]), X=np.array([[1.0], [0.5], [2.0]]))
        res = update_order_check("bfl", FusedState(np.ones(1), np.ones(1), np.ones(0), 1.0), data, hyper)
        assert res.passed and res.details["w2"] == 0.0


class TestOneStepStationarity:
    def test_bfl_preserves_joint_law(self):
        # start (theta, y) from the joint model; one sweep must leave the
        # parameter marginals unchanged (posterior invariance for every y)
        replicates = 100_000
        n, p = 4, 3
        hyper = Hyperparameters(lambda1=1.0, lambda2=1.0, alpha=3.0, xi=2.0)
        rng = RngStream(808, 0)
        x_mat = rng.gen.standard_normal((n, p))
        draws = sample_joint_prior("bfl", p, hyper, rng, size=replicates)
        noise = rng.gen.standard_normal((replicates, n))
        ys = draws["beta"] @ x_mat.T + np.sqrt(draws["sigma2"])[:, None] * noise
        fresh = sample_joint_prior("bfl", p, hyper, rng, size=replicates)

        stepped = np.empty((replicates, 4))
        for i in range(replicates):
            state = FusedState(draws["beta"][i], draws["tau2"][i], draws["w2"][i], float(draws["sigma2"][i]))
            out = bfl_step(state, Dataset(y=ys[i], X=x_mat), hyper, rng)
            stepped[i] = (out.beta[0], out.beta[0] ** 2, out.sigma2, out.tau2[0])
        reference = np.column_stack([
            fresh["beta"][:, 0], fresh["beta"][:, 0] ** 2, fresh["sigma2"], fresh["tau2"][:, 0],
        ])
        for j in range(4):
            se = np.hypot(mcse_of(stepped[:, j]), mcse_of(reference[:, j]))
            assert abs(stepped[:, j].mean() - reference[:, j].mean()) < 4 * se


class TestReferenceKernelEquality:
    def test_bgl_singleton_groups_equals_bayesian_lasso(self, small_data, hyper):
        groups = GroupStructure((1,) * small_data.p)
        state_a = GroupState(np.array([0.3, -1.2, 0.0, 0.9]), np.ones(4), 1.0)
        state_b = GroupState(np.array([0.3, -1.2, 0.0, 0.9]), np.ones(4), 1.0)
        rng_a = RngStream(99, 5)
        rng_b = RngStream(99, 5)
        for _ in range(200):
            state_a = bgl_step(state_a, small_data, hyper, groups, rng_a)
            state_b = bayesian_lasso_step(state_b, small_data, hyper.lambda1, hyper.alpha, hyper.xi, rng_b)
            assert np.array_equal(state_a.beta, state_b.beta)
            assert np.array_equal(state_a.tau2, state_b.tau2)
            assert state_a.sigma2 == state_b.sigma2

    def test_bsgl_single_group_matches_reference(self, small_data):
        hyper = Hyperparameters(lambda1=0.9, lambda2=0.9, alpha=1.0, xi=1.0)
        groups = GroupStructure((small_data.p,))
        state_a = SparseGroupState(np.array([0.3, -1.2, 0.4, 0.9]), np.ones(1), np.ones(4), 1.0)
        state_b = SparseGroupState(np.array([0.3, -1.2, 0.4, 0.9]), np.ones(1), np.ones(4), 1.0)
        rng_a = RngStream(101, 2)
        rng_b = RngStream(101, 2)
        for _ in range(200):
            state_a = bsgl_step(state_a, small_data, hyper, groups, rng_a)
            state_b = one_group_bsgl_step(state_b, small_data, hyper, rng_b)
            assert np.array_equal(state_a.beta, state_b.beta)
            assert np.array_equal(state_a.tau2, state_b.tau2)
            assert np.array_equal(state_a.gamma2, state_b.gamma2)


class TestPosteriorAgainstOracle:
    def test_group_chain_with_null_columns_matches_scalar_oracle(self):
        # Null predictor columns integrate out of the posterior exactly (their
        # coefficient and scale blocks marginalize to one), so the (beta_1,
        # sigma2) marginals of the 5-column singleton-group chain must match
        # the quadrature oracle of the 1-column problem.
        from plgibbs.output_analysis import summarize
        from plgibbs.verification import posterior_oracle_1d

        rng = RngStream(606, 0)
        n = 20
        x1 = rng.gen.standard_normal(n)
        y = 1.1 * x1 + 0.8 * rng.gen.standard_normal(n)
        x_full = np.zeros((n, 5))
        x_full[:, 0] = x1
        hyper = Hyperparameters(lambda1=1.0, lambda2=1.0, alpha=3.0, xi=2.0)
        oracle = posterior_oracle_1d(Dataset(y=y, X=x1[:, None]), hyper)
        out = run_chain(
            "bgl", Dataset(y=y, X=x_full), hyper, groups=GroupStructure((1,) * 5),
            config=ChainConfig(n_iter=20_000, burn_in=2_000, seed=61, init_mode="zero"),
        )
        rows = {r["name"]: r for r in summarize(out).parameters}
        z_sig = abs(rows["sigma2"]["mean"] - oracle.sigma2_mean) / rows["sigma2"]["mcse"]
        z_beta = abs(rows["beta.1"]["mean"] - oracle.beta_mean) / rows["beta.1"]["mcse"]
        assert z_sig < 3.0 and z_beta < 3.0


class TestRunChain:
    def test_row_count_and_labels(self, small_data, hyper):
        out = run_chain("bfl", small_data, hyper,
                        config=ChainConfig(n_iter=10, burn_in=0, thin=1, seed=1))
        assert out.draws.shape == (10, 4 + 4 + 3 + 1)
        assert out.column_labels[0] == "beta.1" and out.column_labels[-1] == "sigma2"

    def test_thinning_floor(self, small_data, hyper):
        out = run_chain("bfl", small_data, hyper,
                        config=ChainConfig(n_iter=10, burn_in=0, thin=3, seed=1))
        assert out.n_kept == 3

    def test_bit_identical_reruns(self, small_data, hyper, groups22):
        cfg = ChainConfig(n_iter=50, burn_in=5, thin=2, seed=77, init_mode="zero")
        a = run_chain("bsgl", small_data, hyper, groups=groups22, config=cfg)
        b = run_chain("bsgl", small_data, hyper, groups=groups22, config=cfg)
        assert np.array_equal(a.draws, b.draws)

    def test_variance_columns_positive_on_stress_instance(self):
        # near-collinear design, tiny penalties, zero start
        rng = RngStream(313, 0)
        base = rng.gen.standard_normal(6)
        x_mat = np.column_stack([base, base + 1e-8 * rng.gen.standard_normal(6)])
        data = Dataset(y=10.0 * rng.gen.standard_normal(6), X=x_mat)
        hyper = Hyperparameters(lambda1=1e-3, lambda2=1e-3, alpha=0.0, xi=0.0)
        out = run_chain("bfl", data, hyper,
                        config=ChainConfig(n_iter=20_000, burn_in=0, seed=3, init_mode="zero"))
        for label in out.column_labels:
            if label.startswith(("tau2", "w2", "sigma2")):
                assert np.all(out.column(label) > 0)

    def test_batched_transition_positive_scales_for_a_million_steps(self, small_data, hyper):
        state = FusedState(np.zeros(4), np.full(4, 1e-6), np.full(3, 1e-6))
        arrs = batch_transition("bfl", state, small_data, hyper, None, RngStream(71, 0), 1_000_000)
        assert np.all(arrs["tau2"] > 0) and np.all(arrs["w2"] > 0) and np.all(arrs["sigma2"] > 0)

    def test_batched_transition_matches_stepwise_distribution(self, small_data, hyper):
        state = FusedState(np.array([1.0, -0.5, 0.0, 0.2]), np.ones(4), np.ones(3), 1.0)
        arrs = batch_transition("bfl", state, small_data, hyper, None, RngStream(72, 0), 30_000)
        rng = RngStream(72, 1)
        looped = np.array([
            bfl_step(state, small_data, hyper, rng).sigma2 for _ in range(10_000)
        ])
        se = np.hypot(mcse_of(arrs["sigma2"]), mcse_of(looped))
        assert abs(arrs["sigma2"].mean() - looped.mean()) < 4 * se

    def test_requires_groups(self, small_data, hyper):
        with pytest.raises(StructureError):
            run_chain("bgl", small_data, hyper, config=ChainConfig(n_iter=5, burn_in=0, seed=0))

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            ChainConfig(n_iter=10, burn_in=10, seed=0)
        with pytest.raises(InvalidParameterError):
            ChainConfig(n_iter=10, thin=0, seed=0)
        assert ChainConfig(n_iter=100, seed=0).burn_in == 10


def _replay_sweep(model, beta, blocks, data, hyper, groups, rng):
    """One sweep rebuilt from the public, validated primitives."""
    if model == "bfl":
        quad = fused_quadratic_form(beta, blocks["tau2"], blocks["w2"])
    elif model == "bgl":
        quad = build_group_precision(blocks["tau2"], groups).quad_form(beta)
    else:
        quad = build_sparse_precision(blocks["tau2"], blocks["gamma2"], groups).quad_form(beta)
    resid = data.y - data.X @ beta
    shape = (data.n + data.p + 2.0 * hyper.alpha) / 2.0
    rate = (float(resid @ resid) + quad + 2.0 * hyper.xi) / 2.0
    sigma2 = sample_inverse_gamma(shape, rate, rng)
    if model == "bfl":
        tau2 = draw_scales(np.abs(beta), hyper.lambda1**2, sigma2, rng)
        w2 = draw_scales(np.abs(np.diff(beta)), hyper.lambda2**2, sigma2, rng)
        blocks, prec = {"tau2": tau2, "w2": w2}, build_fused_precision(tau2, w2)
    else:
        tau2 = draw_scales(np.sqrt(groups.group_sq_norms(beta)), hyper.lambda1**2, sigma2, rng)
        if model == "bgl":
            blocks, prec = {"tau2": tau2}, build_group_precision(tau2, groups)
        else:
            gamma2 = draw_scales(np.abs(beta), hyper.lambda2**2, sigma2, rng)
            blocks, prec = {"tau2": tau2, "gamma2": gamma2}, build_sparse_precision(tau2, gamma2, groups)
    beta = sample_gaussian_regression_conditional(data.xtx, data.xty, prec, sigma2, rng)
    return beta, blocks, sigma2


class TestMultiSweepReplay:
    """run_chain equals, row for row, a loop over the validated primitives."""

    @pytest.mark.parametrize("model", ["bfl", "bgl", "bsgl"])
    def test_chain_from_zero_start(self, model, small_data, hyper, groups22):
        self._check(model, small_data, hyper, None if model == "bfl" else groups22, n_iter=60)

    def test_p1_fused_chain(self):
        # the shape of the quadrature oracle's chain
        rng = RngStream(400, 0)
        x_mat = rng.gen.standard_normal((6, 1))
        data = Dataset(y=1.2 * x_mat[:, 0] + 0.8 * rng.gen.standard_normal(6), X=x_mat)
        self._check("bfl", data, Hyperparameters(1.0, 1.0, alpha=3.0, xi=2.0), None, n_iter=200)

    @staticmethod
    def _check(model, data, hyper, groups, n_iter):
        out = run_chain(model, data, hyper, groups=groups,
                        config=ChainConfig(n_iter=n_iter, burn_in=0, seed=29, stream_id=4, init_mode="zero"))
        rng = RngStream(29, 4)
        beta = np.zeros(data.p)
        k = data.p if groups is None else groups.K
        blocks = {"tau2": np.ones(k)}
        if model == "bfl":
            blocks["w2"] = np.ones(data.p - 1)
        elif model == "bsgl":
            blocks["gamma2"] = np.ones(data.p)
        # beta = 0: every scale of the first sweep takes the Inverse-Gamma fallback
        for j in range(n_iter):
            beta, blocks, sigma2 = _replay_sweep(model, beta, blocks, data, hyper, groups, rng)
            row = np.concatenate([beta, *blocks.values(), [sigma2]])
            assert np.array_equal(out.draws[j], row), f"sweep {j} differs"


class TestLoudFailure:
    def test_zero_response_without_xi_raises(self):
        # rss = 0 and beta'P beta = 0 at the zero start, so the sigma2 rate is 0
        data = Dataset(y=np.zeros(5), X=np.random.default_rng(3).standard_normal((5, 2)))
        hyper = Hyperparameters(1.0, 1.0, alpha=1.0, xi=0.0)
        for model, groups in (("bfl", None), ("bgl", GroupStructure((2,))), ("bsgl", GroupStructure((1, 1)))):
            with pytest.raises(InvalidParameterError):
                run_chain(model, data, hyper, groups=groups,
                          config=ChainConfig(n_iter=5, burn_in=0, init_mode="zero"))

    def test_start_state_must_match_the_model(self, small_data, hyper, groups22):
        bad = GroupState(np.zeros(4), np.ones(3))
        with pytest.raises(StructureError):
            run_chain("bgl", small_data, hyper, groups=groups22,
                      config=ChainConfig(n_iter=5, burn_in=0, init_mode="custom", init_state=bad))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        model=st.sampled_from(["bfl", "bgl", "bsgl"]),
        n=st.integers(1, 6),
        p=st.integers(1, 8),
        duplicate=st.booleans(),
        log_lam=st.tuples(st.floats(-6, 6), st.floats(-6, 6)),
        xi=st.sampled_from([0.0, 1e-8, 1.0]),
        y_scale=st.sampled_from([0.0, 1e-6, 1.0, 1e4]),
        seed=st.integers(0, 2**16),
    )
    def test_hostile_inputs_stay_finite_or_raise(self, model, n, p, duplicate, log_lam, xi, y_scale, seed):
        # admissible but hostile: lambda in 1e-6..1e6, n < p, duplicated columns, n = 1-2
        gen = np.random.default_rng(seed)
        x_mat = gen.standard_normal((n, p))
        if duplicate and p > 1:
            x_mat[:, -1] = x_mat[:, 0]
        data = Dataset(y=y_scale * gen.standard_normal(n), X=x_mat)
        hyper = Hyperparameters(10.0 ** log_lam[0], 10.0 ** log_lam[1], alpha=0.0, xi=xi)
        groups = None if model == "bfl" else GroupStructure((1,) * p if model == "bsgl" else (p,))
        try:
            out = run_chain(model, data, hyper, groups=groups,
                            config=ChainConfig(n_iter=40, burn_in=0, seed=seed, init_mode="zero"))
        except PlgError:
            return
        assert np.all(np.isfinite(out.draws))
        scales = [j for j, label in enumerate(out.column_labels) if not label.startswith("beta.")]
        assert np.all(out.draws[:, scales] > 0)
