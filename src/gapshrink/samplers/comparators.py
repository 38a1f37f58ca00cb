"""Comparator Gibbs samplers for sparse regression: the Bayesian lasso
(exponential scale mixture) and the generalized double Pareto prior in its
hierarchical Laplace form.  Both share the output contract of the
gap-shrinkage sampler so experiment code can treat methods uniformly."""

from __future__ import annotations

import numpy as np

from ..rng import slice_sample_1d, stream
from .base import (
    HYPERPRIORS,
    inverse_gamma,
    laplace_mixture_precision,
    regression_theta_sampler,
)
from .chain import run_chain

__all__ = [
    "gibbs_bayesian_lasso",
    "gibbs_gdp",
    "lasso_lam_logpdf",
    "lasso_lam_step",
]

_SCALES, _THETA, _LAM, _SIGMA, _INIT = range(5)


def lasso_lam_logpdf(lam, tau2_sum, p):
    """Log density (unnormalized) of the Bayesian-lasso rate lam given the
    p mixture variances tau_j^2 ~ Exp(lam^2 / 2), whose sum is tau2_sum,
    under the inverse-gamma prior HYPERPRIORS["lam"] (Park & Casella
    2008)."""
    if lam <= 0.0:
        return -np.inf
    a, b = HYPERPRIORS["lam"]
    return (2.0 * p - a - 1.0) * np.log(lam) - 0.5 * tau2_sum * lam * lam - b / lam


def lasso_lam_step(lam, tau2_sum, p, rng):
    """One slice move on log lam against lasso_lam_logpdf."""
    a, b = HYPERPRIORS["lam"]

    def logf(ell):
        # lasso_lam_logpdf(exp(ell)) plus the log-scale Jacobian ell
        return (
            (2.0 * p - a) * ell - 0.5 * tau2_sum * np.exp(2.0 * ell) - b * np.exp(-ell)
        )

    return float(np.exp(slice_sample_1d(logf, np.log(lam), 0.5, rng)))


def gibbs_bayesian_lasso(X, y, config):
    """Scale-mixture Gibbs sampler for the Bayesian lasso.

    theta_j | tau_j^2 ~ N(0, sigma2 tau_j^2), tau_j^2 ~ Exp(lam^2 / 2);
    lam gets the same inverse-gamma hyperprior as the gap model and is
    updated by slice sampling on the log scale.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, p = X.shape
    a_sig, b_sig = HYPERPRIORS["sigma2"]
    seed, chain = config.seed, config.chain_id

    theta_draw = regression_theta_sampler(X, y)

    rng0 = stream(seed, chain, 0, _INIT)
    theta = 0.01 * rng0.standard_normal(p)
    lam = 1.0
    sigma2 = float(np.var(y)) or 1.0

    def step(sweep):
        nonlocal theta, lam, sigma2
        rng = stream(seed, chain, sweep, _SCALES)
        # as an array, the rate squares to the exact product lam * lam
        inv_tau2 = laplace_mixture_precision(
            theta, np.full(p, lam), rng, scale=np.sqrt(sigma2)
        )
        tau2 = 1.0 / inv_tau2

        rng = stream(seed, chain, sweep, _THETA)
        theta = theta_draw(sigma2, inv_tau2 / sigma2, 0.0, rng)

        rng = stream(seed, chain, sweep, _SIGMA)
        resid = y - X @ theta
        shape = a_sig + 0.5 * (n + p)
        rate = b_sig + 0.5 * (
            float(resid @ resid) + float(np.sum(theta**2 * inv_tau2))
        )
        sigma2 = inverse_gamma(shape, rate, rng)

        rng = stream(seed, chain, sweep, _LAM)
        lam = lasso_lam_step(lam, float(np.sum(tau2)), p, rng)

    def record():
        return {"theta": theta, "lam": lam, "sigma2": sigma2}, {}, {}

    return run_chain(config, step, record)


def gibbs_gdp(X, y, config):
    """Generalized double Pareto prior via its hierarchical Laplace form.

    Each coordinate has its own Laplace rate lam_j with a gamma conditional;
    the Laplace factor is expanded as the usual exponential scale mixture.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, p = X.shape
    a_gdp, eta = HYPERPRIORS["gdp"]
    a_sig, b_sig = HYPERPRIORS["sigma2"]
    seed, chain = config.seed, config.chain_id

    theta_draw = regression_theta_sampler(X, y)

    rng0 = stream(seed, chain, 0, _INIT)
    theta = 0.01 * rng0.standard_normal(p)
    sigma2 = float(np.var(y)) or 1.0

    def step(sweep):
        nonlocal theta, sigma2
        rng = stream(seed, chain, sweep, _SCALES)
        sigma = np.sqrt(sigma2)
        lam_j = rng.standard_gamma(a_gdp + 1.0, size=p) / (
            eta + np.abs(theta) / sigma
        )
        inv_s = laplace_mixture_precision(theta, lam_j, rng, scale=sigma)

        rng = stream(seed, chain, sweep, _THETA)
        theta = theta_draw(sigma2, inv_s / sigma2, 0.0, rng)

        rng = stream(seed, chain, sweep, _SIGMA)
        resid = y - X @ theta
        shape = a_sig + 0.5 * (n + p)
        rate = b_sig + 0.5 * (
            float(resid @ resid) + float(np.sum(theta**2 * inv_s))
        )
        sigma2 = inverse_gamma(shape, rate, rng)

    def record():
        return {"theta": theta, "sigma2": sigma2}, {}, {}

    return run_chain(config, step, record)
