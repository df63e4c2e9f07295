import numpy as np
import pytest

from plgibbs.ergodicity import drift_value
from plgibbs.errors import InvalidParameterError
from plgibbs.model_core import Dataset, FusedState, GroupState, GroupStructure, Hyperparameters, SparseGroupState
from plgibbs.solvers import (
    EPS_FLOOR,
    block_soft_threshold,
    default_start_bfl,
    default_start_bgl,
    default_start_bsgl,
    fused_lasso_solve,
    group_lasso_solve,
    soft_threshold,
    sparse_group_lasso_solve,
    tv1d_prox,
)

from reference_kernels import coordinate_descent_lasso


def random_instance(seed, n=8, p=4):
    rng = np.random.default_rng(seed)
    x_mat = rng.standard_normal((n, p))
    beta = rng.standard_normal(p)
    y = x_mat @ beta + 0.5 * rng.standard_normal(n)
    return Dataset(y=y, X=x_mat)


class TestProxOperators:
    def test_soft_threshold(self):
        v = np.array([3.0, -0.4, 0.0, 1.0])
        assert np.allclose(soft_threshold(v, 0.5), [2.5, 0.0, 0.0, 0.5])

    def test_block_soft_threshold(self):
        groups = GroupStructure((2, 1))
        v = np.array([3.0, 4.0, 0.5])
        out = block_soft_threshold(v, 1.0, groups)
        assert np.allclose(out[:2], v[:2] * (1 - 1.0 / 5.0))
        assert out[2] == 0.0

    def test_tv_prox_kkt_certificate(self):
        # s_j = cumsum(v - x) must satisfy |s_j| <= lam, s_N = 0, and
        # s_j = -lam sign(x_{j+1} - x_j) at every jump: an exact optimality
        # certificate for the strictly convex TV problem.
        rng = np.random.default_rng(0)
        for _ in range(1500):
            n = int(rng.integers(1, 50))
            v = rng.standard_normal(n) * rng.uniform(0.1, 5)
            lam = float(rng.uniform(0, 3))
            x = tv1d_prox(v, lam)
            s = np.cumsum(v - x)
            tol = 1e-9 * max(1.0, float(np.abs(v).sum()))
            assert np.all(np.abs(s[:-1]) <= lam + tol)
            assert abs(s[-1]) <= tol
            jumps = np.diff(x)
            for j in np.nonzero(np.abs(jumps) > 1e-10)[0]:
                target = -lam if jumps[j] > 0 else lam
                assert abs(s[j] - target) <= tol

    def test_tv_prox_trivial_cases(self):
        v = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(tv1d_prox(v, 0.0), v)
        assert np.array_equal(tv1d_prox(v[:1], 5.0), v[:1])
        big = tv1d_prox(v, 1e6)
        assert np.allclose(big, v.mean())


class TestFusedLassoSolve:
    def test_full_shrinkage(self):
        data = random_instance(1)
        sol = fused_lasso_solve(data, 1e6, 1.0)
        assert np.max(np.abs(sol.beta_hat)) == 0.0

    def test_grid_search_oracle_p2(self):
        rng = np.random.default_rng(2)
        x_mat = rng.standard_normal((3, 2))
        y = rng.standard_normal(3)
        data = Dataset(y=y, X=x_mat)
        l1, l2 = 0.7, 0.4
        sol = fused_lasso_solve(data, l1, l2)
        gx = np.linspace(-5.0, 5.0, 400)
        b1, b2 = np.meshgrid(gx, gx, indexing="ij")
        resid = y[:, None, None] - x_mat[:, 0, None, None] * b1 - x_mat[:, 1, None, None] * b2
        obj = (resid**2).sum(axis=0) + l1 * (np.abs(b1) + np.abs(b2)) + l2 * np.abs(b2 - b1)
        assert sol.objective <= obj.min() + 1e-3
        assert sol.kkt_residual <= 1e-6

    def test_fusion_limit(self):
        data = random_instance(3)
        sol = fused_lasso_solve(data, 1e-3, 1e6)
        assert np.max(np.abs(np.diff(sol.beta_hat))) < 1e-6

    def test_reported_objective_is_exact(self):
        data = random_instance(4)
        sol = fused_lasso_solve(data, 0.8, 0.6)
        resid = data.y - data.X @ sol.beta_hat
        obj = float(resid @ resid) + 0.8 * np.abs(sol.beta_hat).sum() + 0.6 * np.abs(np.diff(sol.beta_hat)).sum()
        assert sol.objective == pytest.approx(obj, rel=1e-10)

    def test_rejects_negative_weights(self):
        with pytest.raises(InvalidParameterError):
            fused_lasso_solve(random_instance(5), -1.0, 1.0)


class TestGroupLassoSolve:
    def test_zero_condition(self):
        data = random_instance(6)
        groups = GroupStructure((2, 2))
        lam = 2.0 * max(
            np.linalg.norm(data.X[:, :2].T @ data.y), np.linalg.norm(data.X[:, 2:].T @ data.y)
        )
        sol = group_lasso_solve(data, groups, lam * 1.000001)
        assert np.max(np.abs(sol.beta_hat)) == 0.0

    def test_singleton_groups_match_coordinate_descent(self):
        data = random_instance(7)
        sol = group_lasso_solve(data, GroupStructure((1, 1, 1, 1)), 0.9)
        ref = coordinate_descent_lasso(data, 0.9)
        assert np.max(np.abs(sol.beta_hat - ref)) < 1e-6

    def test_orthonormal_single_group_closed_form(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((9, 3)))
        data = Dataset(y=rng.standard_normal(9), X=q)
        lam = 1.1
        sol = group_lasso_solve(data, GroupStructure((3,)), lam)
        xty = q.T @ data.y
        closed = max(0.0, 1.0 - lam / (2.0 * np.linalg.norm(xty))) * xty
        assert np.max(np.abs(sol.beta_hat - closed)) < 1e-8


class TestSparseGroupLassoSolve:
    def test_lasso_reduction(self):
        data = random_instance(9)
        groups = GroupStructure((2, 2))
        sol = sparse_group_lasso_solve(data, groups, 0.8, 0.0)
        ref = coordinate_descent_lasso(data, 0.8)
        assert np.max(np.abs(sol.beta_hat - ref)) < 1e-6

    def test_group_reduction(self):
        data = random_instance(10)
        groups = GroupStructure((3, 1))
        sol = sparse_group_lasso_solve(data, groups, 0.0, 1.2)
        ref = group_lasso_solve(data, groups, 1.2)
        assert np.max(np.abs(sol.beta_hat - ref.beta_hat)) < 1e-6

    def test_grid_search_oracle_single_group(self):
        rng = np.random.default_rng(11)
        x_mat = rng.standard_normal((4, 2))
        y = rng.standard_normal(4)
        data = Dataset(y=y, X=x_mat)
        l1, l2 = 0.5, 0.6
        sol = sparse_group_lasso_solve(data, GroupStructure((2,)), l1, l2)
        gx = np.linspace(-5.0, 5.0, 400)
        b1, b2 = np.meshgrid(gx, gx, indexing="ij")
        resid = y[:, None, None] - x_mat[:, 0, None, None] * b1 - x_mat[:, 1, None, None] * b2
        obj = (
            (resid**2).sum(axis=0)
            + l1 * (np.abs(b1) + np.abs(b2))
            + l2 * np.sqrt(b1**2 + b2**2)
        )
        assert sol.objective <= obj.min() + 1e-3


class TestSolverInvariants:
    def test_monotone_descent(self):
        data = random_instance(12, n=12, p=6)
        groups = GroupStructure((3, 3))
        sols = [
            fused_lasso_solve(data, 0.7, 0.5, keep_trace=True),
            group_lasso_solve(data, groups, 0.9, keep_trace=True),
            sparse_group_lasso_solve(data, groups, 0.5, 0.5, keep_trace=True),
        ]
        for sol in sols:
            assert np.all(np.diff(sol.objective_trace) <= 1e-12)

    def test_non_convergence_reported_with_best_iterate(self):
        data = random_instance(13, n=20, p=8)
        sol = fused_lasso_solve(data, 0.3, 0.2, max_iter=2)
        assert not sol.converged
        assert sol.iterations == 2
        assert np.all(np.isfinite(sol.beta_hat))

    def test_penalty_reduction_consistency(self):
        for seed in range(20):
            data = random_instance(100 + seed, n=10, p=5)
            lam = 0.6
            ref = coordinate_descent_lasso(data, lam)
            as_group = group_lasso_solve(data, GroupStructure((1,) * 5), lam).beta_hat
            as_sparse = sparse_group_lasso_solve(data, GroupStructure((2, 3)), lam, 0.0).beta_hat
            as_fused = fused_lasso_solve(data, lam, 0.0).beta_hat
            assert np.max(np.abs(as_group - ref)) < 1e-6
            assert np.max(np.abs(as_sparse - ref)) < 1e-6
            assert np.max(np.abs(as_fused - ref)) < 1e-6


def perturbation_instance():
    # Distinct, strictly increasing signal levels keep every coefficient and
    # every adjacent difference of the penalized solutions away from zero.
    rng = np.random.default_rng(21)
    n, p = 24, 4
    x_mat = rng.standard_normal((n, p))
    y = x_mat @ np.array([2.0, 4.5, -3.0, 7.0]) + 0.3 * rng.standard_normal(n)
    return Dataset(y=y, X=x_mat)


class TestDefaultStarts:
    def test_bfl_start_formulas(self):
        data = perturbation_instance()
        hyper = Hyperparameters(lambda1=0.5, lambda2=0.4, alpha=1.0, xi=1.0)
        start = default_start_bfl(data, hyper)
        sol = fused_lasso_solve(data, 0.5, 0.4)
        assert np.allclose(start.beta, sol.beta_hat)
        assert np.allclose(start.tau2, np.maximum(2 * np.abs(sol.beta_hat) / 0.5, EPS_FLOOR))
        assert np.allclose(start.w2, np.maximum(2 * np.abs(np.diff(sol.beta_hat)) / 0.4, EPS_FLOOR))
        assert start.sigma2 is None

    def test_bgl_start_formula_hand_value(self):
        # a (3, 4) coefficient block with lambda = 2 gives tau2 = 2*5/2 = 5
        norm = np.sqrt(3.0**2 + 4.0**2)
        assert 2.0 * norm / 2.0 == pytest.approx(5.0)
        data = perturbation_instance()
        groups = GroupStructure((2, 2))
        hyper = Hyperparameters(lambda1=0.6, lambda2=1.0, alpha=1.0, xi=1.0)
        start = default_start_bgl(data, groups, hyper)
        sol = group_lasso_solve(data, groups, 0.6)
        norms = np.sqrt(groups.group_sq_norms(sol.beta_hat))
        assert np.allclose(start.tau2, np.maximum(2 * norms / 0.6, EPS_FLOOR))

    def test_zero_solution_floors(self):
        data = random_instance(22)
        hyper = Hyperparameters(lambda1=1e6, lambda2=1e6, alpha=1.0, xi=1.0)
        start = default_start_bfl(data, hyper)
        assert np.all(start.beta == 0.0)
        assert np.all(start.tau2 == EPS_FLOOR)
        assert np.all(start.w2 == EPS_FLOOR)

    def test_bsgl_start_weights_groups_by_lambda1_and_coefficients_by_lambda2(self):
        # lambda1 penalizes the group norms and lambda2 the coefficients, so the
        # V-minimizing start solves with l1 weight lambda2 and group weight lambda1
        rng = np.random.default_rng(31)
        x_mat = rng.standard_normal((30, 6))
        y = x_mat @ np.array([2.0, -1.0, 0.5, 0.0, 1.5, 0.3]) + rng.standard_normal(30)
        data = Dataset(y=y, X=x_mat)
        groups = GroupStructure((2, 2, 2))
        hyper = Hyperparameters(lambda1=8.0, lambda2=1.0, alpha=1.0, xi=1.0)
        start = default_start_bsgl(data, groups, hyper)
        assert np.array_equal(start.beta, sparse_group_lasso_solve(data, groups, 1.0, 8.0).beta_hat)
        swapped = sparse_group_lasso_solve(data, groups, 8.0, 1.0).beta_hat
        assert not np.allclose(swapped, start.beta)
        swapped_start = SparseGroupState(
            swapped,
            np.maximum(2 * np.sqrt(groups.group_sq_norms(swapped)) / 8.0, EPS_FLOOR),
            np.maximum(2 * np.abs(swapped) / 1.0, EPS_FLOOR),
        )
        v_start = drift_value("bsgl", start, data, hyper, groups)
        assert v_start < drift_value("bsgl", swapped_start, data, hyper, groups)

    @pytest.mark.parametrize("model", ["bfl", "bgl", "bsgl"])
    def test_drift_local_minimality_under_perturbations(self, model):
        data = perturbation_instance()
        groups = GroupStructure((2, 2))
        hyper = Hyperparameters(lambda1=0.5, lambda2=0.4, alpha=1.0, xi=1.0)
        if model == "bfl":
            start = default_start_bfl(data, hyper)
            fields = ("beta", "tau2", "w2")
        elif model == "bgl":
            start = default_start_bgl(data, groups, hyper)
            fields = ("beta", "tau2")
        else:
            start = default_start_bsgl(data, groups, hyper)
            fields = ("beta", "tau2", "gamma2")
        g = None if model == "bfl" else groups
        v0 = drift_value(model, start, data, hyper, g)
        rng = np.random.default_rng(23)
        for _ in range(100):
            kwargs = {"sigma2": 1.0}
            for name in fields:
                value = np.asarray(getattr(start, name), dtype=float)
                kwargs[name] = value * rng.uniform(0.5, 2.0, size=value.shape)
            if model == "bfl":
                perturbed = FusedState(**kwargs)
            elif model == "bgl":
                perturbed = GroupState(**kwargs)
            else:
                perturbed = SparseGroupState(**kwargs)
            assert v0 <= drift_value(model, perturbed, data, hyper, g) * (1 + 1e-12)
