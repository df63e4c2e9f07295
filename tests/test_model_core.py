import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plgibbs.errors import InvalidParameterError, StructureError
from plgibbs.model_core import (
    Dataset,
    FusedState,
    GroupStructure,
    Hyperparameters,
    SymTridiagonal,
    build_fused_precision,
    build_group_precision,
    build_sparse_precision,
    fused_quadratic_form,
)

positive = st.floats(min_value=1e-3, max_value=1e3)


class TestFusedPrecision:
    def test_single_coefficient(self):
        prec = build_fused_precision([2.0], [])
        assert np.allclose(prec.to_dense(), [[0.5]])

    def test_two_by_two_display(self):
        prec = build_fused_precision([1.0, 1.0], [1.0])
        assert np.allclose(prec.to_dense(), [[2.0, -1.0], [-1.0, 2.0]])

    def test_three_by_three_substitution(self):
        prec = build_fused_precision([1.0, 2.0, 4.0], [1.0, 2.0])
        assert np.allclose(prec.diag, [2.0, 2.0, 0.75])
        assert np.allclose(prec.off, [-1.0, -0.5])

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            build_fused_precision([1.0, 0.0], [1.0])
        with pytest.raises(InvalidParameterError):
            build_fused_precision([1.0, 1.0], [-1.0])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_spd_by_cholesky(self, data):
        p = data.draw(st.integers(min_value=1, max_value=12))
        tau2 = data.draw(st.lists(positive, min_size=p, max_size=p))
        w2 = data.draw(st.lists(positive, min_size=p - 1, max_size=p - 1))
        dense = build_fused_precision(tau2, w2).to_dense()
        np.linalg.cholesky(dense)  # raises if not SPD
        assert np.allclose(dense, dense.T)
        # strict diagonal dominance with positive diagonal
        off_sums = np.sum(np.abs(dense), axis=1) - np.abs(np.diag(dense))
        assert np.all(np.diag(dense) > off_sums)

    def test_determinant_lower_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = rng.integers(1, 13)
            tau2 = rng.uniform(0.05, 20.0, p)
            w2 = rng.uniform(0.05, 20.0, max(p - 1, 0))
            prec = build_fused_precision(tau2, w2)
            assert prec.det() >= np.prod(1.0 / (2.0 * tau2)) * (1 - 1e-12)

    def test_det_matches_dense(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = rng.integers(1, 10)
            prec = build_fused_precision(rng.uniform(0.1, 5, p), rng.uniform(0.1, 5, max(p - 1, 0)))
            assert prec.det() == pytest.approx(np.linalg.det(prec.to_dense()), rel=1e-9)


class TestFusedQuadraticForm:
    def test_zero_vector(self):
        assert fused_quadratic_form(np.zeros(5), np.ones(5), np.ones(4)) == 0.0

    def test_hand_value(self):
        assert fused_quadratic_form([1.0, -1.0], [1.0, 1.0], [1.0]) == pytest.approx(6.0)

    def test_matches_matrix_form(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            p = rng.integers(1, 21)
            beta = rng.standard_normal(p) * rng.uniform(0.1, 10)
            tau2 = rng.uniform(1e-2, 1e2, p)
            w2 = rng.uniform(1e-2, 1e2, max(p - 1, 0))
            direct = fused_quadratic_form(beta, tau2, w2)
            matrix = float(beta @ build_fused_precision(tau2, w2).to_dense() @ beta)
            assert direct == pytest.approx(matrix, rel=1e-10, abs=1e-300)


class TestGroupPrecision:
    def test_single_group(self):
        prec = build_group_precision([4.0], GroupStructure((2,)))
        assert np.allclose(prec.to_dense(), 0.25 * np.eye(2))

    def test_display_substitution(self):
        prec = build_group_precision([1.0, 2.0], GroupStructure((1, 2)))
        assert np.allclose(np.diag(prec.to_dense()), [1.0, 0.5, 0.5])
        assert np.allclose(prec.off, 0.0)

    def test_singleton_groups_reduce_to_lasso_diag(self):
        tau2 = np.array([1.0, 2.0, 4.0, 8.0])
        prec = build_group_precision(tau2, GroupStructure((1, 1, 1, 1)))
        assert np.allclose(np.diag(prec.to_dense()), 1.0 / tau2)

    def test_structure_mismatch(self):
        with pytest.raises(StructureError):
            build_group_precision([1.0], GroupStructure((1, 2)))


class TestSparsePrecision:
    def test_symmetric_case(self):
        groups = GroupStructure((2, 1))
        prec = build_sparse_precision([2.0, 2.0], [2.0, 2.0, 2.0], groups)
        assert np.allclose(prec.to_dense(), np.eye(3))

    def test_hand_substitution(self):
        prec = build_sparse_precision([1.0], [1.0, 4.0], GroupStructure((2,)))
        assert np.allclose(np.diag(prec.to_dense()), [2.0, 1.25])

    def test_group_lasso_limit(self):
        groups = GroupStructure((2, 2))
        tau2 = np.array([0.7, 1.3])
        prec = build_sparse_precision(tau2, np.full(4, 1e12), groups)
        assert np.max(np.abs(np.diag(prec.to_dense()) - groups.expand(1.0 / tau2))) < 1e-9


class TestSymTridiagonal:
    def test_quad_form_matches_dense(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            p = rng.integers(1, 9)
            m = SymTridiagonal(rng.uniform(1, 3, p), rng.uniform(-0.5, 0.5, max(p - 1, 0)))
            v = rng.standard_normal(p)
            assert m.quad_form(v) == pytest.approx(float(v @ m.to_dense() @ v), rel=1e-12, abs=1e-12)

    def test_banded_upper_matches_scipy_layout(self):
        m = SymTridiagonal([2.0, 3.0, 4.0], [-1.0, -0.5])
        ab = m.to_banded_upper()
        assert np.allclose(ab[1], [2.0, 3.0, 4.0])
        assert np.allclose(ab[0, 1:], [-1.0, -0.5])


class TestContainers:
    def test_dataset_validation(self):
        with pytest.raises(InvalidParameterError):
            Dataset(y=np.ones(3), X=np.ones((2, 2)))
        with pytest.raises(InvalidParameterError):
            Dataset(y=np.array([1.0, np.nan]), X=np.ones((2, 1)))

    def test_group_structure_derived_fields(self):
        groups = GroupStructure((2, 3, 1))
        assert groups.K == 3 and groups.p == 6 and groups.max_size == 3
        beta = np.array([1.0, 2.0, 1.0, 1.0, 1.0, 5.0])
        assert np.allclose(groups.group_sq_norms(beta), [5.0, 3.0, 25.0])

    def test_group_structure_rejects_bad_sizes(self):
        with pytest.raises(StructureError):
            GroupStructure(())
        with pytest.raises(StructureError):
            GroupStructure((2, 0))

    def test_hyperparameters_validation(self):
        with pytest.raises(InvalidParameterError):
            Hyperparameters(lambda1=0.0)
        with pytest.raises(InvalidParameterError):
            Hyperparameters(lambda1=1.0, alpha=-0.1)
        # lambda^2 overflows to inf or underflows to 0
        with pytest.raises(InvalidParameterError):
            Hyperparameters(lambda1=1e200)
        with pytest.raises(InvalidParameterError):
            Hyperparameters(lambda1=1e-200)
        with pytest.raises(InvalidParameterError):
            Hyperparameters(lambda1=1.0, lambda2=1e200)
        with pytest.raises(InvalidParameterError):
            Hyperparameters(lambda1=1.0, lambda2=1e-200)
        hyper = Hyperparameters(lambda1=2.0, lambda2=3.0, alpha=0.0, xi=0.0)
        assert hyper.alpha == 0.0 and hyper.xi == 0.0

    def test_states_validate_positivity(self):
        with pytest.raises(InvalidParameterError):
            FusedState(np.zeros(2), [1.0, -1.0], [1.0])
        state = FusedState(np.zeros(2), [1.0, 1.0], [1.0])
        assert state.sigma2 is None
        with pytest.raises(InvalidParameterError):
            FusedState(np.zeros(2), [1.0, 1.0], [1.0], sigma2=0.0)
