"""Effective sample size, computed apart from gapshrink.diagnostics.

ESS = n / tau, with the integrated autocorrelation time from a Bartlett lag
window of width b = ceil(sqrt(n)): tau = 1 + 2 sum_{k<b} (1 - k/b) rho(k).
Autocorrelations come from an FFT of the centred series, normalised by n.
Estimates above n * log10(n) per chain (an antithetic chain) are capped.

Why a fixed window rather than Geyer's adaptive initial positive sequence:
the benchmark's chains are short (40 to 60 kept draws), and the key scalar
with the smallest ESS is often one that barely moves.  On such a series
Geyer's estimate reads about 5 whatever the length, varying by about 50%
from chain to chain, which the rounds of a run do not average away.  The
window reads about sqrt(n) there with a fraction of that variation.  The
price: any autocorrelation time longer than the window reads as about
sqrt(n) effective draws, so ESS/s then follows how fast such chains run
rather than how stuck they are.

``pooled_ess`` serves several chains of one sampler on like problems: it
averages their autocorrelation sequences before forming tau, so tau comes
from all chains at once, and returns the chains' summed ESS.
"""

from __future__ import annotations

import math

import numpy as np


def autocorrelation(series):
    """rho(0..n-1) of one chain; None for a constant series."""
    x = np.asarray(series, dtype=float).ravel()
    n = x.size
    if n < 4:
        raise ValueError("need at least 4 draws for an ESS estimate")
    x = x - x.mean()
    spectrum = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), 2 * n)[:n]
    if acov[0] <= 0.0:
        return None
    return acov / acov[0]


def _tau(rho):
    width = math.isqrt(rho.size - 1) + 1
    k = np.arange(1, width)
    return 1.0 + 2.0 * float(np.sum((1.0 - k / width) * rho[1:width]))


def _capped(n, tau):
    return min(n / tau if tau > 0 else math.inf, n * math.log10(n))


def ess(series):
    """Effective sample size of one chain; nan for a constant series."""
    rho = autocorrelation(series)
    return math.nan if rho is None else _capped(rho.size, _tau(rho))


def pooled_ess(chains):
    """Summed ESS of equally long chains from one averaged autocorrelation;
    constant chains are left out."""
    rhos = [r for r in map(autocorrelation, chains) if r is not None]
    if not rhos:
        return math.nan
    n = rhos[0].size
    return len(rhos) * _capped(n, _tau(np.mean(rhos, axis=0)))


def ar1_series(phi, n, seed):
    """Stationary AR(1) series x_t = phi x_{t-1} + e_t with unit innovations."""
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = e[0] / math.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + e[t]
    return x


def ar1_check(estimator=ess, pooled=pooled_ess, n=50_000, seed=20240601):
    """Compare both estimators with the known ESS n (1 - phi) / (1 + phi) of
    AR(1) series (pooled: the series cut into ten chains); returns a list of
    failure messages, empty when they hold.

    The series are fixed (their seed is not the workload seed), so the check
    gives the same verdict on every run.
    """
    failures = []
    for phi, tol in ((0.0, 0.10), (0.5, 0.10), (0.9, 0.20)):
        truth = n * (1.0 - phi) / (1.0 + phi)
        x = ar1_series(phi, n, seed)
        for label, got in (("single", estimator(x)),
                           ("pooled", pooled(np.split(x, 10)))):
            if not abs(got / truth - 1.0) <= tol:
                failures.append(
                    f"ess: AR(1) phi={phi} {label} estimate {got:.1f} "
                    f"vs known {truth:.1f}"
                )
    return failures
