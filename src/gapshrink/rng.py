"""Random-variate primitives and reproducible counter-based streams.

Streams are Philox generators keyed by (seed, chain, sweep, block), so a
replication reproduces bit-for-bit regardless of how chains are scheduled
across workers, and a change in one block's draw count never shifts the
randomness of later blocks.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError

__all__ = [
    "stream",
    "truncated_normal",
    "inverse_gaussian",
    "slice_sample_1d",
]

_MASK16 = (1 << 16) - 1
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def stream(seed, chain=0, sweep=0, block=0):
    """Generator for one (seed, chain, sweep, block) coordinate."""
    k0 = int(seed) & _MASK64
    k1 = ((int(chain) & _MASK16) << 48) | ((int(sweep) & _MASK32) << 16) | (
        int(block) & _MASK16
    )
    key = np.array([k0, k1], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Beyond this many sigmas the plain CDF saturates in float64 and direct
# inverse-CDF sampling collapses; switch to the log-space tail inverse.
_TAIL = 5.0


def _tail_inverse(a, b, u):
    """Standard-normal draws on (a, b) with a >= _TAIL via the log-space
    complementary CDF, exact however deep or narrow the interval."""
    from scipy.special import log_ndtr, ndtri_exp

    la = log_ndtr(-a)
    lb = log_ndtr(-b)
    ratio = np.exp(np.minimum(lb - la, 0.0))
    logt = la + np.log(ratio + u * (1.0 - ratio))
    return -ndtri_exp(logt)


def truncated_normal(mu, sigma, lo, hi, rng):
    """Exact draws from N(mu, sigma^2) restricted to (lo, hi), vectorized.

    Inverse-CDF in the bulk; once the whole interval sits more than 5 sigma
    into one tail, the complementary CDF is evaluated in log space so the
    inverse stays exact (a rejection scheme stalls on narrow far-tail
    intervals, which the samplers do produce).
    """
    # imported here: scipy.special takes about 0.3 s to load, and neither
    # importing the package nor gap-check draws a truncated normal
    from scipy.special import ndtr, ndtri

    mu, sigma, lo, hi = np.broadcast_arrays(
        np.asarray(mu, dtype=float),
        np.asarray(sigma, dtype=float),
        np.asarray(lo, dtype=float),
        np.asarray(hi, dtype=float),
    )
    if np.any(lo >= hi):
        raise ValueError("lower bound must be below upper bound")
    if np.any(sigma <= 0):
        raise ValueError("sigma must be positive")

    a = (lo - mu) / sigma
    b = (hi - mu) / sigma
    x = np.empty(a.shape)

    upper = a >= _TAIL
    lower = b <= -_TAIL
    mid = ~(upper | lower)

    u = rng.uniform(size=a.shape)
    if np.any(mid):
        am, bm = a[mid], b[mid]
        fa, fb = ndtr(am), ndtr(bm)
        uu = fa + u[mid] * (fb - fa)
        x[mid] = ndtri(np.clip(uu, 1e-300, 1.0 - 1e-16))
    if np.any(upper):
        x[upper] = _tail_inverse(a[upper], b[upper], u[upper])
    if np.any(lower):
        x[lower] = -_tail_inverse(-b[lower], -a[lower], u[lower])

    x = mu + sigma * x
    return np.clip(x, lo, hi)


def inverse_gaussian(mu, lam, rng):
    """Inverse-Gaussian draws (mean mu, shape lam), one per element of the
    broadcast of mu and lam.

    Transform-with-rejection: solve the quadratic for the smaller root,
    then flip to mu^2 / x with probability x / (mu + x).
    """
    mu = np.asarray(mu, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if np.any(mu <= 0) or np.any(lam <= 0):
        raise ValueError("mu and lam must be positive")
    size = np.broadcast_shapes(mu.shape, lam.shape)
    nu = rng.standard_normal(size) ** 2
    w = mu * nu
    x = mu * (1.0 + (w - np.sqrt(w * (4.0 * lam + w))) / (2.0 * lam))
    # cancellation can land exactly on zero for extreme nu
    x = np.maximum(x, 1e-300)
    flip = rng.uniform(size=size) * (mu + x) > mu
    return np.where(flip, mu * mu / x, x)


# step-out budget of slice_sample_1d, in widths, split between the two ends
_MAX_STEPOUT = 256
# shrink budget of slice_sample_1d
_MAX_SHRINK = 2000


def slice_sample_1d(logf, x0, width, rng, bounds=(-math.inf, math.inf)):
    """One stepping-out-and-shrink slice update leaving exp(logf) invariant.

    bounds clip both the initial bracket and the step-out walk, so regions
    outside them are never proposed.  When the step-out budget of
    _MAX_STEPOUT widths binds, the randomized left/right split keeps the
    capped walk reversible.
    Raises NumericError when _MAX_SHRINK shrinks find no point in the slice.
    """
    lo, hi = bounds
    x0 = float(x0)
    fx0 = float(logf(x0))
    if not np.isfinite(fx0):
        raise ValueError("logf must be finite at the initial point")

    logy = fx0 + math.log(rng.uniform())
    r = rng.uniform()
    left = x0 - r * width
    right = left + width
    left = max(left, lo)
    right = min(right, hi)

    j = int(math.floor(_MAX_STEPOUT * rng.uniform()))
    k = _MAX_STEPOUT - 1 - j
    while j > 0 and left > lo and logf(left) > logy:
        left = max(left - width, lo)
        j -= 1
    while k > 0 and right < hi and logf(right) > logy:
        right = min(right + width, hi)
        k -= 1

    for _ in range(_MAX_SHRINK):
        x1 = left + rng.uniform() * (right - left)
        if logf(x1) > logy:
            return x1
        if x1 < x0:
            left = x1
        else:
            right = x1
    raise NumericError(f"slice sampler found no point in {_MAX_SHRINK} shrinks")
