"""Chain-quality diagnostics: autocorrelation and effective sample size."""

from __future__ import annotations

import numpy as np

__all__ = [
    "acf",
    "ess",
    "ess_from_acf",
]

# ESS of an antithetic chain exceeds n; estimates are capped at this
# multiple of n and flagged rather than reported raw.
ESS_CAP = 1.05


def acf(series, max_lag):
    """Autocorrelation at lags 0..max_lag, biased autocovariance estimator
    normalized by lag zero (so acf[0] is exactly 1)."""
    x = np.asarray(series, dtype=float).ravel()
    n = x.size
    if n <= max_lag:
        raise ValueError("series must be longer than max_lag")
    x = x - x.mean()
    var = float(x @ x)
    if var == 0.0:
        raise ValueError("autocorrelation of a constant series is undefined")
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    cov = np.fft.irfft(f * np.conj(f), nfft)[: max_lag + 1]
    return cov / cov[0]


def ess_from_acf(rho, n):
    """ESS n / (1 + 2 sum rho_k), truncated by the initial-positive-sequence
    rule: stop before the first adjacent pair (rho_2m, rho_2m+1) with a
    nonpositive sum.  Returns (ess, capped)."""
    rho = np.asarray(rho, dtype=float).ravel()
    tau = -1.0
    m = 0
    while 2 * m + 1 < rho.size:
        pair = rho[2 * m] + rho[2 * m + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
        m += 1
    if tau <= 0.0:
        return ESS_CAP * n, True
    raw = n / tau
    if raw > ESS_CAP * n:
        return ESS_CAP * n, True
    return raw, False


def ess(series):
    """Autocorrelation-adjusted effective sample size of one chain."""
    x = np.asarray(series, dtype=float).ravel()
    n = x.size
    if n < 100:
        raise ValueError("need at least 100 draws for an ESS estimate")
    value, _ = ess_from_acf(acf(x, n - 1), n)
    return value

