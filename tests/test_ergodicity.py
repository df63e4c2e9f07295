import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plgibbs.distributions import RngStream, sample_gaussian_regression_conditional
from plgibbs.ergodicity import (
    bsgl_drift_rate_alt,
    build_drift_report,
    drift_constant,
    drift_rate,
    drift_value,
    empirical_drift_check,
    log_minorization_epsilon,
    minorization_epsilon,
    small_set_radius,
)
from plgibbs.errors import DegenerateEpsilonError, DriftHypothesisWarning, InvalidParameterError
from plgibbs.model_core import (
    Dataset,
    FusedState,
    GroupState,
    GroupStructure,
    Hyperparameters,
    SparseGroupState,
)

from conftest import mcse_of


class TestDriftValue:
    def test_zero_beta_zero_response(self):
        data = Dataset(y=np.zeros(3), X=np.eye(3))
        hyper = Hyperparameters(lambda1=2.0, lambda2=3.0, alpha=0.0, xi=0.0)
        state = FusedState(np.zeros(3), np.array([1.0, 2.0, 3.0]), np.array([1.0, 4.0]), 1.0)
        expected = (4.0 / 4) * 6.0 + (9.0 / 4) * 5.0
        assert drift_value("bfl", state, data, hyper) == pytest.approx(expected)

    def test_hand_value_five(self):
        data = Dataset(y=np.array([1.0, 0.0]), X=np.eye(2))
        hyper = Hyperparameters(lambda1=2.0, lambda2=2.0, alpha=0.0, xi=0.0)
        state = FusedState(np.array([1.0, 0.0]), np.ones(2), np.ones(1), 1.0)
        assert drift_value("bfl", state, data, hyper) == pytest.approx(5.0)

    def test_independent_of_sigma2(self, small_data, hyper, groups22):
        state_lo = SparseGroupState(np.ones(4), np.ones(2), np.ones(4), 1.0)
        state_hi = SparseGroupState(np.ones(4), np.ones(2), np.ones(4), 100.0)
        v_lo = drift_value("bsgl", state_lo, small_data, hyper, groups22)
        v_hi = drift_value("bsgl", state_hi, small_data, hyper, groups22)
        assert v_lo == v_hi


class TestDriftRate:
    def test_fused_and_group_hand_values(self):
        assert drift_rate("bfl", 10, 5, 1.0) == 0.5
        assert drift_rate("bgl", 10, 5, 1.0) == 0.5
        assert drift_rate("bfl", 4, 100, 0.0) == pytest.approx(100 / 102)

    def test_sparse_three_term_hand_value(self):
        assert drift_rate("bsgl", 10, 5, 1.0, M=2, lambda1=1.0, lambda2=1.0) == pytest.approx(1 / 3)

    def test_alt_variant_is_looser(self):
        tight = drift_rate("bsgl", 30, 2, 0.0, M=2, lambda1=1.0, lambda2=2.0)
        loose = bsgl_drift_rate_alt(30, 2, 0.0, 2, 1.0, 2.0)
        assert loose >= tight

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        n=st.integers(min_value=3, max_value=10_000),
        p=st.integers(min_value=1, max_value=10_000),
        alpha=st.floats(min_value=0.0, max_value=100.0),
        m_size=st.integers(min_value=1, max_value=50),
        l1=st.floats(min_value=1e-3, max_value=1e3),
        l2=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_rate_below_one_whenever_n_at_least_three(self, n, p, alpha, m_size, l1, l2):
        assert drift_rate("bfl", n, p, alpha) < 1.0
        assert drift_rate("bgl", n, p, alpha) < 1.0
        assert drift_rate("bsgl", n, p, alpha, M=m_size, lambda1=l1, lambda2=l2) < 1.0

    def test_small_n_warns(self):
        with pytest.warns(DriftHypothesisWarning):
            drift_rate("bfl", 2, 4, 0.0)


class TestDriftConstant:
    def test_fused_hand_value(self):
        assert drift_constant("bfl", 10, 5, 1.0, 1.0, 10.0) == pytest.approx(10 + 2.5 * 19 + 10 / 15)

    def test_group_hand_value(self):
        assert drift_constant("bgl", 10, 4, 0.0, 0.0, 0.0, M=1) == pytest.approx(8.0)

    def test_sparse_symmetric_lambda_case(self):
        npa = 10 + 5 + 2 * 1.0
        expected = 0.25 * 5 * (2.0 + 3.0 * npa * 2)
        assert drift_constant("bsgl", 10, 5, 1.0, 0.0, 0.0, M=2, lambda1=1.0, lambda2=1.0) == pytest.approx(expected)

    def test_rejects_degenerate_denominator(self):
        with pytest.raises(InvalidParameterError):
            drift_constant("bfl", 1, 1, 0.0, 0.0, 1.0)


class TestSmallSetRadius:
    def test_formula(self):
        assert small_set_radius(0.5, 10.0) == pytest.approx(40.0)
        assert small_set_radius(0.5, 10.0, multiplier=2.0) == pytest.approx(80.0)

    def test_report_invariants(self, small_data, hyper, groups22):
        for model in ("bfl", "bgl", "bsgl"):
            rep = build_drift_report(model, small_data, hyper,
                                     groups=None if model == "bfl" else groups22)
            assert 0 < rep.phi < 1
            assert rep.d >= 2 * rep.L / (1 - rep.phi) * (1 - 1e-12)
            assert 0 < rep.epsilon <= 1
            assert (rep.phi_alt is not None) == (model == "bsgl")


class TestMinorizationEpsilon:
    def test_zero_response_formula(self):
        # y = 0: the ridge residual vanishes and the numerator is exactly 2 xi
        data = Dataset(y=np.zeros(4), X=np.eye(4))
        hyper = Hyperparameters(lambda1=1.0, lambda2=1.0, alpha=0.5, xi=1.0)
        d = 3.0
        eps = minorization_epsilon("bfl", d, data, hyper)
        denom = d + 2.0 + 4 * 16 * d**2 + 4 * 16 * d**2
        expected = np.exp(-1.0) * (2.0 / denom) ** ((4 + 4) / 2 + 0.5)
        assert eps == pytest.approx(expected, rel=1e-12)
        assert eps > 0
        assert log_minorization_epsilon("bfl", d, data, hyper) == pytest.approx(np.log(expected), rel=1e-12)

    def test_log_space_where_epsilon_underflows(self):
        # at n = p = 200 epsilon underflows to 0.0 for every model; its log stays finite
        rng = np.random.default_rng(5)
        x_mat = rng.standard_normal((200, 200))
        data = Dataset(y=x_mat[:, 0] + rng.standard_normal(200), X=x_mat)
        hyper = Hyperparameters(lambda1=1.0, lambda2=1.0, alpha=1.0, xi=1.0)
        groups = GroupStructure((10,) * 20)
        for model in ("bfl", "bgl", "bsgl"):
            rep = build_drift_report(model, data, hyper, None if model == "bfl" else groups)
            assert rep.epsilon == 0.0
            assert np.isfinite(rep.log_epsilon) and rep.log_epsilon < np.log(np.finfo(float).tiny)
            assert rep.to_dict()["log_epsilon"] == rep.log_epsilon

    def test_group_denominator_hand_value(self):
        # K=1, d=1, lambda=2, xi=0.5: denominator = 1 + 1 + 4 = 6
        data = Dataset(y=np.zeros(2), X=np.eye(2))
        hyper = Hyperparameters(lambda1=2.0, lambda2=1.0, alpha=0.0, xi=0.5)
        groups = GroupStructure((2,))
        eps = minorization_epsilon("bgl", 1.0, data, hyper, groups)
        expected = np.exp(-0.5) * (1.0 / 6.0) ** ((2 + 2) / 2)
        assert eps == pytest.approx(expected, rel=1e-12)

    def test_strictly_decreasing_in_d(self, small_data, hyper, groups22):
        for model in ("bfl", "bgl", "bsgl"):
            g = None if model == "bfl" else groups22
            values = [minorization_epsilon(model, d, small_data, hyper, g)
                      for d in np.geomspace(0.5, 500, 12)]
            assert np.all(np.diff(values) < 0)

    def test_degenerate_numerator_raises(self):
        data = Dataset(y=np.zeros(3), X=np.eye(3))
        hyper = Hyperparameters(lambda1=1.0, lambda2=1.0, alpha=0.0, xi=0.0)
        with pytest.raises(DegenerateEpsilonError):
            minorization_epsilon("bfl", 1.0, data, hyper)


class TestEmpiricalDrift:
    def test_random_moderate_states(self, hyper):
        rng = RngStream(61, 0)
        n, p = 15, 4
        x_mat = rng.gen.standard_normal((n, p))
        y = x_mat @ np.array([1.5, 0.0, -1.0, 0.5]) + rng.gen.standard_normal(n)
        data = Dataset(y=y, X=x_mat)
        states = []
        for _ in range(20):
            g = rng.gen
            states.append(FusedState(3 * g.standard_normal(p), g.gamma(2, 1, p), g.gamma(2, 1, p - 1), 1.0))
        res = empirical_drift_check("bfl", states, data, hyper, replicates=2000, rng=RngStream(62, 0))
        assert res.all_satisfied

    def test_enormous_state_contracts(self, hyper):
        rng = RngStream(63, 0)
        n, p = 15, 4
        x_mat = rng.gen.standard_normal((n, p))
        data = Dataset(y=rng.gen.standard_normal(n), X=x_mat)
        state = FusedState(1e3 * np.ones(p), 1e-2 * np.ones(p), 1e-2 * np.ones(p - 1), 1.0)
        res = empirical_drift_check("bfl", [state], data, hyper, replicates=2000, rng=RngStream(64, 0))
        row = res.rows[0]
        assert row["satisfied"]
        assert row["estimate"] / row["v_state"] <= res.phi + 0.05

    def test_default_start_has_large_margin(self, hyper, groups22):
        from plgibbs.solvers import default_start_bgl

        rng = RngStream(65, 0)
        n, p = 15, 4
        x_mat = rng.gen.standard_normal((n, p))
        y = x_mat @ np.array([2.0, 1.0, -1.0, 0.5]) + 0.5 * rng.gen.standard_normal(n)
        data = Dataset(y=y, X=x_mat)
        start = default_start_bgl(data, groups22, hyper)
        res = empirical_drift_check("bgl", [start], data, hyper, groups=groups22,
                                    replicates=2000, rng=RngStream(66, 0))
        row = res.rows[0]
        assert row["satisfied"]
        assert row["estimate"] < row["bound"]

    def test_replicate_floor(self, small_data, hyper):
        with pytest.raises(InvalidParameterError):
            empirical_drift_check("bfl", [], small_data, hyper, replicates=10)

    def test_threaded_workers_give_same_rows(self, small_data, hyper):
        states = [
            FusedState(np.full(4, s), np.ones(4), np.ones(3), 1.0)
            for s in (0.5, 1.0, 2.0, 4.0)
        ]
        serial = empirical_drift_check("bfl", states, small_data, hyper,
                                       replicates=1000, rng=RngStream(67, 0), n_workers=1)
        threaded = empirical_drift_check("bfl", states, small_data, hyper,
                                         replicates=1000, rng=RngStream(67, 0), n_workers=3)
        for a, b in zip(serial.rows, threaded.rows):
            assert a["estimate"] == b["estimate"]

    def test_worker_cap_reads_environment(self, monkeypatch):
        from plgibbs.ergodicity import default_workers

        monkeypatch.setenv("PLG_THREADS", "6")
        assert default_workers() == 6
        monkeypatch.setenv("PLG_THREADS", "not-a-number")
        assert default_workers() == 1
        monkeypatch.delenv("PLG_THREADS")
        assert default_workers() == 1


class TestDistributionLemmas:
    def test_quadratic_residual_mean_bound(self):
        # E[(y-Xb)'(y-Xb) + b'S^{-1}b] <= y'y + p sigma2 under the regression conditional
        rng = RngStream(71, 0)
        for trial in range(200):
            g = rng.gen
            n = int(g.integers(2, 8))
            p = int(g.integers(1, 9))
            x_mat = g.standard_normal((n, p))
            y = g.standard_normal(n)
            a = g.standard_normal((p, p))
            prec = a @ a.T + 0.3 * np.eye(p)
            sigma2 = float(g.uniform(0.2, 3.0))
            draws = sample_gaussian_regression_conditional(
                x_mat.T @ x_mat, x_mat.T @ y, prec, sigma2, rng.substream(trial), size=2000
            )
            resid = y[None, :] - draws @ x_mat.T
            stat = np.sum(resid**2, axis=1) + np.sum((draws @ prec) * draws, axis=1)
            bound = float(y @ y) + p * sigma2
            assert stat.mean() <= bound + 3 * mcse_of(stat)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_ratio_of_weighted_sums_bound(self, data):
        p = data.draw(st.integers(min_value=1, max_value=12))
        alpha = np.array(data.draw(st.lists(
            st.floats(min_value=-100, max_value=100), min_size=p, max_size=p)))
        delta = np.array(data.draw(st.lists(
            st.floats(min_value=1e-3, max_value=100), min_size=p, max_size=p)))
        num = float(np.sum(alpha**2))
        den = float(np.sum(alpha**2 / delta**2))
        if den > 0:
            assert num / den <= float(np.sum(delta**2)) * (1 + 1e-9)

    def test_completed_square_lower_bound(self):
        rng = np.random.default_rng(73)
        for _ in range(10_000):
            n = int(rng.integers(1, 5))
            p = int(rng.integers(1, 5))
            x_mat = rng.standard_normal((n, p))
            y = rng.standard_normal(n)
            a = rng.standard_normal((p, p))
            prec = a @ a.T + 0.1 * np.eye(p)
            beta = 3 * rng.standard_normal(p)
            lhs = float((y - x_mat @ beta) @ (y - x_mat @ beta)) + float(beta @ prec @ beta)
            rhs = float(y @ y) - float(
                (x_mat.T @ y) @ np.linalg.solve(x_mat.T @ x_mat + prec, x_mat.T @ y)
            )
            assert lhs >= rhs - 1e-9 * max(1.0, abs(rhs))
