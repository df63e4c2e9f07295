import math
import tracemalloc

import numpy as np
import pytest

from plgibbs.errors import DegenerateVarianceWarning, InvalidParameterError
from plgibbs.gibbs import ChainConfig, run_chain
from plgibbs.output_analysis import (
    batch_means_cov,
    effective_sample_size,
    monte_carlo_mean,
    summarize,
)


def ar1(rho, n, seed, scale=1.0):
    gen = np.random.default_rng(seed)
    innov = gen.standard_normal(n) * scale
    out = np.empty(n)
    out[0] = innov[0] / np.sqrt(1 - rho**2)
    for t in range(1, n):
        out[t] = rho * out[t - 1] + innov[t]
    return out


class TestMonteCarloMean:
    def test_constant_column(self):
        assert monte_carlo_mean(np.full((50, 1), 3.25))[0] == 3.25

    def test_small_example(self):
        assert monte_carlo_mean(np.array([[1.0], [2.0], [3.0]]))[0] == pytest.approx(2.0)

    def test_matches_compensated_summation(self):
        gen = np.random.default_rng(5)
        vals = gen.uniform(-1e6, 1e6, 1_000_000)
        fast = monte_carlo_mean(vals[:, None])[0]
        exact = math.fsum(vals) / len(vals)
        assert fast == pytest.approx(exact, rel=1e-12)

    def test_empty_chain_rejected(self):
        with pytest.raises(InvalidParameterError):
            monte_carlo_mean(np.empty((0, 2)))


class TestBatchMeansCov:
    def test_iid_normal_variance(self):
        x = np.random.default_rng(17).standard_normal(100_000)
        est = batch_means_cov(x)[0, 0]
        assert abs(est - 1.0) < 0.05

    def test_ar1_asymptotic_variance(self):
        rho = 0.5
        x = ar1(rho, 1_000_000, seed=2)
        # spectral value: marginal variance / (1 - rho)^2 * (1 - rho^2) = 1/(1-rho)^2
        target = 1.0 / (1 - rho) ** 2
        est = batch_means_cov(x)[0, 0]
        assert abs(est - target) / target < 0.05

    def test_constant_column_gives_zero(self):
        est = batch_means_cov(np.full(5000, 2.0))
        assert est[0, 0] == 0.0

    def test_positive_semidefinite(self):
        gen = np.random.default_rng(3)
        mat = gen.standard_normal((5000, 4)) @ gen.standard_normal((4, 4))
        eig = np.linalg.eigvalsh(batch_means_cov(mat))
        assert np.all(eig >= -1e-10)

    def test_exactly_four_batches_allowed(self):
        batch_means_cov(np.arange(8.0))  # b=2, a=4: smallest legal configuration
        with pytest.raises(InvalidParameterError):
            batch_means_cov(np.arange(7.0))


class TestEffectiveSampleSize:
    def test_iid_input_near_n(self):
        x = np.random.default_rng(4).standard_normal((100_000, 2))
        ratio = effective_sample_size(x) / 100_000
        assert 0.9 <= ratio <= 1.1

    def test_ar1_matches_theory(self):
        rho = 0.9
        x = ar1(rho, 1_000_000, seed=5)
        ratio = effective_sample_size(x) / 1_000_000
        target = (1 - rho) / (1 + rho)
        assert abs(ratio - target) / target < 0.2

    def test_constant_column_policy(self):
        with pytest.warns(DegenerateVarianceWarning):
            ess = effective_sample_size(np.full((5000, 1), 1.5))
        assert ess == 5000

    def test_thinning_raises_ess_ratio(self):
        x = ar1(0.9, 1_000_000, seed=6)
        full = effective_sample_size(x) / x.shape[0]
        thinned = x[::10]
        thin = effective_sample_size(thinned) / thinned.shape[0]
        assert thin > full

    def test_needs_more_batches_than_live_columns(self):
        x = np.random.default_rng(9).standard_normal((100, 10))  # a = 10 batches
        with pytest.raises(InvalidParameterError):
            effective_sample_size(x)
        x[:, 0] = 1.0  # constant columns do not count
        with pytest.warns(DegenerateVarianceWarning):
            assert effective_sample_size(x) > 0

    def test_singular_covariance_rejected(self):
        x = np.random.default_rng(10).standard_normal(400)
        with pytest.raises(InvalidParameterError):
            effective_sample_size(np.column_stack([x, x]))


class TestSummarize:
    def test_single_row(self):
        rep = summarize(np.array([[1.0, 2.0]]))
        assert rep.parameters[0]["mean"] == 1.0
        assert rep.parameters[0]["ess"] == 1.0
        assert "covariance" not in rep.multivariate

    def test_two_identical_rows(self):
        rep = summarize(np.array([[3.0], [3.0]]))
        assert rep.parameters[0]["sd"] == 0.0
        assert rep.parameters[0]["median"] == 3.0

    def test_quantiles_match_independent_oracle(self):
        gen = np.random.default_rng(7)
        u = gen.uniform(size=10_000)
        rep = summarize(u[:, None])
        srt = np.sort(u)

        def type7(q):
            h = (len(srt) - 1) * q
            lo = int(np.floor(h))
            return srt[lo] + (h - lo) * (srt[min(lo + 1, len(srt) - 1)] - srt[lo])

        row = rep.parameters[0]
        assert row["q2.5"] == pytest.approx(type7(0.025), abs=1e-12)
        assert row["median"] == pytest.approx(type7(0.5), abs=1e-12)
        assert row["q97.5"] == pytest.approx(type7(0.975), abs=1e-12)

    def test_clt_interval_coverage_on_iid_chains(self):
        gen = np.random.default_rng(8)
        n, reps = 10_000, 1000
        hits = 0
        for _ in range(reps):
            x = gen.standard_normal(n)
            sig = batch_means_cov(x)[0, 0]
            mcse = np.sqrt(sig / n)
            hits += abs(x.mean()) <= 1.96 * mcse
        assert 0.93 <= hits / reps <= 0.97

    def test_report_carries_chain_config(self, small_data, hyper):
        out = run_chain("bfl", small_data, hyper,
                        config=ChainConfig(n_iter=400, burn_in=100, seed=5))
        rep = summarize(out)
        assert rep.config["model"] == "bfl"
        assert rep.config["config"]["seed"] == 5
        assert rep.multivariate["ess"] <= out.n_kept
        for row in rep.parameters:
            assert 0 < row["ess"] <= out.n_kept
            assert row["mcse"] > 0
        assert "2+delta" in rep.assumptions or "moment" in rep.assumptions


class TestPerColumnSummaries:
    def test_wide_chain_peak_memory(self):
        mat = np.random.default_rng(11).standard_normal((100, 3001))
        tracemalloc.start()
        try:
            summarize(mat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 25 * 2**20

    def test_no_multivariate_ess_when_batches_do_not_exceed_live_columns(self):
        mat = np.column_stack([ar1(0.5, 100, seed=12 + j) for j in range(13)])  # a = 10 batches
        mat[:, 4] = 2.0
        rep = summarize(mat)
        assert rep.multivariate == {"ess": None, "batch_size": 10}
        assert "covariance" not in rep.to_dict()["multivariate"]
        rep = summarize(mat[:, :10])  # 9 live columns < 10 batches
        assert 0 < rep.multivariate["ess"] <= 100

    def test_singular_chain_has_no_multivariate_ess(self):
        x = ar1(0.5, 400, seed=13)
        rep = summarize(np.column_stack([x, x]))
        assert rep.multivariate["ess"] is None
        assert all(row["mcse"] > 0 for row in rep.parameters)

    @pytest.mark.parametrize("shape", [(400, 5), (100, 40)])
    def test_rows_match_batch_means_diagonal(self, shape):
        n, d = shape
        mat = np.column_stack([ar1(0.7, n, seed=14 + j) for j in range(d)])
        rep = summarize(mat)
        sig = np.diag(batch_means_cov(mat))
        mcse = np.array([row["mcse"] for row in rep.parameters])
        ess = np.array([row["ess"] for row in rep.parameters])
        np.testing.assert_allclose(mcse, np.sqrt(sig / n), rtol=1e-14, atol=0)
        np.testing.assert_allclose(ess, np.minimum(n, n * mat.var(axis=0, ddof=1) / sig), rtol=1e-14, atol=0)
