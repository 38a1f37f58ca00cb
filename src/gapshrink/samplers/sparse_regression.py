"""Blocked Gibbs sampler for sparse linear regression under the l1
gap-shrinkage prior with a Cauchy base kernel.

Model: y = X theta + noise, noise ~ N(0, sigma2 I).  The prior couples
theta with a box-constrained dual vector u through the gap
sum_j (lam - |u_j|) |theta_j|; lam acts as the global shrinkage level and
each |u_j| climbing toward lam is the local escape that releases one
coordinate.  Two scale-mixture augmentations make the theta block jointly
Gaussian: an exponential mixture for each exp(-a_j |theta_j|) factor and
an inverse-gamma mixture for each Cauchy kernel factor.  Hyperparameter
updates use the collapsed (mixture-free) conditionals.
"""

from __future__ import annotations

import numpy as np

from ..rng import stream, truncated_normal
from .base import (
    box_strength_step,
    inverse_gamma,
    laplace_mixture_precision,
    noise_variance,
    regression_theta_sampler,
)
from .chain import run_chain

__all__ = [
    "gibbs_sparse_regression",
    "dual_conditional_logpdf",
    "dual_block_draw",
]

_SCALES, _THETA, _DUAL, _LAM, _SIGMA, _INIT = range(6)


def dual_conditional_logpdf(x, theta_j, w_j, lam, alpha):
    """Log density (unnormalized) of one dual coordinate given the rest.

    exp(alpha * x * theta_j - (theta_j + x)^2 / (2 w_j)) on the sign-matched
    part of [-lam, lam]; -inf outside.
    """
    if abs(x) > lam:
        return -np.inf
    if theta_j > 0 and x < 0:
        return -np.inf
    if theta_j < 0 and x > 0:
        return -np.inf
    return alpha * x * theta_j - (theta_j + x) ** 2 / (2.0 * w_j)


def dual_block_draw(theta, w, lam, alpha, rng):
    """Exact draw of the dual block given theta, the kernel scales w and lam:
    independent truncated normals, each matching dual_conditional_logpdf."""
    mean = theta * (alpha * w - 1.0)
    lo = np.where(theta > 0, 0.0, -lam)
    hi = np.where(theta < 0, 0.0, lam)
    return truncated_normal(mean, np.sqrt(w), lo, hi, rng)


def gibbs_sparse_regression(X, y, config):
    """Run one chain; returns draws of (theta, u, lam, sigma2).

    Sweep order: augmentation scales, theta block (joint Gaussian), dual
    coordinates (truncated normals), lam (slice on the log scale against
    the collapsed conditional), sigma2 (conjugate inverse-gamma).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, p = X.shape
    alpha = config.alpha
    seed, chain = config.seed, config.chain_id

    theta_draw = regression_theta_sampler(X, y)

    rng0 = stream(seed, chain, 0, _INIT)
    theta = 0.1 * rng0.standard_cauchy(p)
    u = np.zeros(p)
    lam = 1.0
    sigma2 = float(np.var(y)) or 1.0
    inv_s = inv_w = None

    def step(sweep):
        nonlocal theta, u, lam, sigma2, inv_s, inv_w
        rng = stream(seed, chain, sweep, _SCALES)
        inv_s = laplace_mixture_precision(theta, alpha * (lam - np.abs(u)), rng)
        resid_ku = theta + u
        w = inverse_gamma(1.0, (1.0 + resid_ku**2) / 2.0, rng)
        inv_w = 1.0 / w

        rng = stream(seed, chain, sweep, _THETA)
        theta = theta_draw(sigma2, inv_s + inv_w, -u * inv_w, rng)

        rng = stream(seed, chain, sweep, _DUAL)
        u = dual_block_draw(theta, w, lam, alpha, rng)

        rng = stream(seed, chain, sweep, _LAM)
        lam = box_strength_step(
            lam, float(np.sum(np.abs(theta))), float(np.max(np.abs(u))), alpha, rng
        )

        rng = stream(seed, chain, sweep, _SIGMA)
        resid = y - X @ theta
        sigma2 = noise_variance(float(resid @ resid), n, rng)

    def record():
        values = {"theta": theta, "u": u, "lam": lam, "sigma2": sigma2}
        return values, {"u": (u, lam)}, {"inv_s": inv_s, "inv_w": inv_w}

    return run_chain(config, step, record)
