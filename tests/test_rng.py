import numpy as np
import pytest
from scipy import stats

from gapshrink.rng import (
    inverse_gaussian,
    slice_sample_1d,
    stream,
    truncated_normal,
)


class TestStreams:
    def test_same_key_same_draws(self):
        a = stream(7, 1, 3, 2).standard_normal(5)
        b = stream(7, 1, 3, 2).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_any_coordinate_changes_the_stream(self):
        base = stream(7, 1, 3, 2).standard_normal(5)
        for key in [(8, 1, 3, 2), (7, 2, 3, 2), (7, 1, 4, 2), (7, 1, 3, 3)]:
            other = stream(*key).standard_normal(5)
            assert not np.array_equal(base, other)


class TestTruncatedNormal:
    def test_half_normal_mean(self):
        rng = stream(0)
        x = truncated_normal(np.zeros(100_000), 1.0, 0.0, np.inf, rng)
        assert np.mean(x) == pytest.approx(np.sqrt(2 / np.pi), abs=0.01)

    def test_unconstrained_is_plain_normal(self):
        rng = stream(1)
        x = truncated_normal(np.zeros(100_000), 1.0, -np.inf, np.inf, rng)
        assert np.mean(x) == pytest.approx(0.0, abs=0.01)
        assert np.var(x) == pytest.approx(1.0, abs=0.02)

    def test_far_tail_support(self):
        rng = stream(2)
        x = truncated_normal(np.zeros(10_000), 1.0, 8.0, 9.0, rng)
        assert np.all((x >= 8.0) & (x <= 9.0))

    def test_extreme_tail_narrow_interval(self):
        # the regime that breaks naive inverse-CDF and rejection schemes
        rng = stream(3)
        x = truncated_normal(np.zeros(1000), 1.0, 40.0, 40.001, rng)
        assert np.all((x >= 40.0) & (x <= 40.001))

    def test_far_tail_distribution(self):
        rng = stream(4)
        x = truncated_normal(np.zeros(50_000), 1.0, 6.0, np.inf, rng)
        # conditional tail mean: phi(6)/Phi_c(6) shifted
        expected = stats.norm.pdf(6) / stats.norm.sf(6)
        assert np.mean(x) == pytest.approx(expected, rel=0.005)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            truncated_normal(0.0, 1.0, 1.0, 1.0, stream(0))

    def test_scalar_wrapper(self):
        x = truncated_normal(2.0, 0.5, 1.0, 3.0, stream(5))
        assert x.shape == ()
        assert 1.0 < x < 3.0


class TestInverseGaussian:
    def test_mean(self):
        rng = stream(6)
        x = inverse_gaussian(np.full(100_000, 1.0), np.full(100_000, 1.0), rng)
        assert np.mean(x) == pytest.approx(1.0, abs=0.02)

    def test_variance(self):
        rng = stream(7)
        x = inverse_gaussian(np.full(200_000, 2.0), np.full(200_000, 1.0), rng)
        assert np.var(x) == pytest.approx(8.0, rel=0.05)

    def test_positive(self):
        rng = stream(8)
        x = inverse_gaussian(np.full(10_000, 0.01), np.full(10_000, 5.0), rng)
        assert np.all(x > 0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            inverse_gaussian(-1.0, 1.0, stream(0))
        with pytest.raises(ValueError):
            inverse_gaussian(1.0, 0.0, stream(0))

    def test_against_scipy_distribution(self):
        rng = stream(9)
        mu, lam = 1.5, 2.5
        x = inverse_gaussian(np.full(20_000, mu), np.full(20_000, lam), rng)
        # scipy parameterizes by mu/lam with scale lam
        ks = stats.kstest(x, stats.invgauss(mu / lam, scale=lam).cdf)
        assert ks.pvalue > 0.01


class TestSliceSampler:
    def test_standard_normal_moments(self):
        rng = stream(10)
        logf = lambda x: -0.5 * x * x
        x = 0.0
        draws = np.empty(100_000)
        for i in range(draws.size):
            x = slice_sample_1d(logf, x, 2.0, rng)
            draws[i] = x
        assert np.mean(draws) == pytest.approx(0.0, abs=0.02)
        assert np.var(draws) == pytest.approx(1.0, abs=0.05)

    def test_inverse_gamma_mean(self):
        # IG(2, 1) has mean b / (a - 1) = 1
        rng = stream(11)
        logf = lambda x: -3.0 * np.log(x) - 1.0 / x if x > 0 else -np.inf
        x = 1.0
        draws = np.empty(50_000)
        for i in range(draws.size):
            x = slice_sample_1d(logf, x, 1.0, rng, bounds=(1e-12, np.inf))
            draws[i] = x
        assert np.mean(draws) == pytest.approx(1.0, abs=0.05)

    def test_bounds_respected(self):
        rng = stream(12)
        logf = lambda x: 0.0
        x = 0.5
        for _ in range(2000):
            x = slice_sample_1d(logf, x, 0.5, rng, bounds=(0.0, 1.0))
            assert 0.0 <= x <= 1.0

    def test_infinite_start_rejected(self):
        with pytest.raises(ValueError):
            slice_sample_1d(lambda x: -np.inf, 0.0, 1.0, stream(0))
