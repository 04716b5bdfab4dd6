import numpy as np
import pytest
from scipy import stats

from netepi.degree import (
    DegreeDistribution,
    from_weights,
    mean_degree,
    sample_degrees,
    truncated_power_law,
)
from netepi.errors import DomainError

# direct 60-term summation oracle: Z = sum k^-3, k = 1..60
Z3_60 = sum(k ** -3.0 for k in range(1, 61))


class TestTruncatedPowerLaw:
    def test_single_degree_support(self):
        dist = truncated_power_law(3, 1, 1)
        np.testing.assert_allclose(dist.pmf, [1.0])

    def test_pmf_matches_direct_summation(self):
        dist = truncated_power_law(3, 1, 60)
        assert dist.pmf[0] == pytest.approx(1.0 / Z3_60, abs=1e-15)
        assert dist.pmf[0] == pytest.approx(0.832001915475365, abs=1e-14)
        for k in (2, 17, 60):
            assert dist.pmf[k - 1] == pytest.approx(k ** -3.0 / Z3_60, rel=1e-13)

    def test_tiny_gamma_is_nearly_uniform(self):
        dist = truncated_power_law(1e-4, 1, 4)
        np.testing.assert_allclose(dist.pmf, 0.25, atol=1e-4)

    def test_monotone_decreasing(self):
        for gamma in (0.5, 1.0, 2.2, 3.0):
            dist = truncated_power_law(gamma, 1, 80)
            assert np.all(np.diff(dist.pmf) < 0)

    @pytest.mark.parametrize("gamma,k_min,k_max",
                             [(0.0, 1, 5), (-1, 1, 5), (3, 0, 5), (3, 4, 3), (float("nan"), 1, 20)])
    def test_domain_errors(self, gamma, k_min, k_max):
        with pytest.raises(DomainError):
            truncated_power_law(gamma, k_min, k_max)


class TestFromWeights:
    def test_symmetric(self):
        np.testing.assert_allclose(from_weights(1, [2, 2]).pmf, [0.5, 0.5])

    def test_zero_entry(self):
        np.testing.assert_allclose(from_weights(1, [1, 0, 3]).pmf, [0.25, 0.0, 0.75])

    def test_shifted_single_support(self):
        dist = from_weights(5, [1])
        np.testing.assert_allclose(dist.pmf, [1.0])
        assert dist.k_min == dist.k_max == 5

    def test_rejects_bad_weights(self):
        with pytest.raises(DomainError):
            from_weights(1, [0, 0])
        with pytest.raises(DomainError):
            from_weights(1, [1, -2])
        with pytest.raises(DomainError):
            from_weights(1, [])


class TestInvariants:
    def test_constructors_normalize(self):
        rng = np.random.default_rng(0)
        dists = [truncated_power_law(g, 1, k) for g, k in ((0.3, 7), (2, 150), (3.5, 60))]
        dists += [from_weights(2, rng.random(9)) for _ in range(5)]
        for dist in dists:
            assert abs(dist.pmf.sum() - 1.0) <= 1e-12
            assert dist.pmf.min() >= 0.0
            assert len(dist.pmf) == dist.k_max - dist.k_min + 1

    def test_rejects_unnormalized_pmf(self):
        with pytest.raises(DomainError):
            DegreeDistribution(1, 2, np.array([0.5, 0.6]))
        with pytest.raises(DomainError):
            DegreeDistribution(1, 3, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("pmf", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, -np.inf]])
    def test_rejects_non_finite_pmf(self, pmf):
        # NaN fails both the sign and the sum-to-1 comparison, so it needs its own check
        with pytest.raises(DomainError, match="finite"):
            DegreeDistribution(1, 2, np.array(pmf))
        with pytest.raises(DomainError):
            from_weights(1, pmf)

    def test_weighted_mean_against_hand_computation(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            w = rng.random(5)
            dist = from_weights(3, w)
            expected = sum((3 + i) * wi for i, wi in enumerate(w)) / w.sum()
            assert mean_degree(dist) == pytest.approx(expected, abs=1e-12)


class TestMeanDegree:
    def test_degenerate(self):
        assert mean_degree(from_weights(7, [1.0])) == 7.0

    def test_power_law_by_direct_summation(self):
        expected = sum(k ** -2.0 for k in range(1, 61)) / Z3_60
        assert mean_degree(truncated_power_law(3, 1, 60)) == pytest.approx(expected, abs=1e-13)
        assert mean_degree(truncated_power_law(3, 1, 60)) == pytest.approx(1.3548365097376154, abs=1e-13)

    def test_uniform(self):
        assert mean_degree(from_weights(1, [1, 1, 1])) == pytest.approx(2.0, abs=1e-14)


class TestSampling:
    def test_degenerate_support(self):
        dist = from_weights(3, [1.0])
        rng = np.random.default_rng(123)
        assert np.all(sample_degrees(dist, 50, rng) == 3)

    def test_uniform_two_frequency(self):
        # binomial standard error: 3 sigma = 3 * 0.5 / sqrt(1e6) = 0.0015
        dist = from_weights(1, [1, 1])
        draws = sample_degrees(dist, 10 ** 6, np.random.default_rng(7))
        freq1 = np.mean(draws == 1)
        assert abs(freq1 - 0.5) <= 0.002

    def test_power_law_mean_within_clt_bound(self):
        dist = truncated_power_law(3, 1, 30)
        k = dist.degrees
        mean = mean_degree(dist)
        var = float(np.dot(k ** 2, dist.pmf) - mean ** 2)
        draws = sample_degrees(dist, 10 ** 6, np.random.default_rng(99))
        assert abs(draws.mean() - mean) <= 3 * np.sqrt(var / 10 ** 6)

    def test_skips_zero_probability_degrees(self):
        dist = from_weights(1, [0.0, 1.0, 0.0, 1.0])
        draws = sample_degrees(dist, 10 ** 4, np.random.default_rng(3))
        assert set(np.unique(draws)) <= {2, 4}

    def test_chi_square_goodness_of_fit(self):
        # tail degrees binned together so every expected count is >= 5
        dist = truncated_power_law(3, 1, 30)
        n = 10 ** 6
        draws = sample_degrees(dist, n, np.random.default_rng(2024))
        observed = np.bincount(draws, minlength=31)[1:].astype(float)
        expected = dist.pmf * n
        cut = int(np.searchsorted(expected < 5, True))
        if cut < len(expected):
            observed = np.concatenate([observed[:cut], [observed[cut:].sum()]])
            expected = np.concatenate([expected[:cut], [expected[cut:].sum()]])
        _, pvalue = stats.chisquare(observed, expected * observed.sum() / expected.sum())
        assert pvalue > 0.001
