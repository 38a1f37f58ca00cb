import numpy as np
import pytest

from gapshrink.diagnostics import (
    ESS_CAP,
    acf,
    ess,
    ess_from_acf,
)


def ar1(phi, n, seed=0):
    rng = np.random.default_rng(seed)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    innov = rng.standard_normal(n) * np.sqrt(1 - phi**2)
    for i in range(1, n):
        x[i] = phi * x[i - 1] + innov[i]
    return x


class TestACF:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(1)
        assert acf(rng.standard_normal(500), 5)[0] == 1.0

    def test_iid_is_flat(self):
        rng = np.random.default_rng(2)
        rho = acf(rng.standard_normal(10_000), 10)
        assert np.max(np.abs(rho[1:])) < 0.03

    def test_ar1_geometric_decay(self):
        rho = acf(ar1(0.5, 100_000, seed=3), 8)
        for k in range(1, 9):
            assert rho[k] == pytest.approx(0.5**k, abs=0.03)

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError):
            acf(np.ones(100), 5)

    def test_series_must_exceed_lag(self):
        with pytest.raises(ValueError):
            acf(np.arange(10.0), 10)


class TestESS:
    def test_iid(self):
        rng = np.random.default_rng(4)
        n = 10_000
        assert ess(rng.standard_normal(n)) == pytest.approx(n, rel=0.15)

    def test_ar1_half(self):
        n = 100_000
        # integrated autocorrelation time of AR(1) at phi=0.5 is 3
        assert ess(ar1(0.5, n, seed=5)) == pytest.approx(n / 3, rel=0.15)

    def test_antithetic_capped(self):
        x = np.tile([1.0, -1.0], 600)
        assert ess(x) == ESS_CAP * x.size

    def test_consistency_with_returned_acf(self):
        x = ar1(0.7, 5000, seed=6)
        rho = acf(x, x.size - 1)
        direct = ess(x)
        recomputed, _ = ess_from_acf(rho, x.size)
        assert recomputed == direct

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            ess(np.arange(50.0))

