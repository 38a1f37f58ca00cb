"""Comparator Gibbs samplers for sparse regression: the Bayesian lasso
(exponential scale mixture) and the generalized double Pareto prior in its
hierarchical Laplace form.  Both share the output contract of the
gap-shrinkage sampler so experiment code can treat methods uniformly."""

from __future__ import annotations

import numpy as np

from ..rng import slice_sample_1d, stream
from .base import flat_names, gaussian_draw, laplace_mixture_precision
from .chain import run_chain

__all__ = ["gibbs_bayesian_lasso", "gibbs_gdp"]

_SCALES, _THETA, _LAM, _SIGMA, _INIT = range(5)


def gibbs_bayesian_lasso(X, y, config):
    """Scale-mixture Gibbs sampler for the Bayesian lasso.

    theta_j | tau_j^2 ~ N(0, sigma2 tau_j^2), tau_j^2 ~ Exp(lam^2 / 2);
    lam gets the same inverse-gamma hyperprior as the gap model and is
    updated by slice sampling on the log scale.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, p = X.shape
    a_lam, b_lam = config.hyperpriors["lam"]
    a_sig, b_sig = config.hyperpriors["sigma2"]
    seed, chain = config.seed, config.chain_id

    XtX = X.T @ X
    Xty = X.T @ y
    # one precision buffer for all sweeps, so no p x p array is freed and
    # page-faulted in again each sweep
    prec = np.empty_like(XtX)

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
        np.copyto(prec, XtX)
        prec[np.diag_indices_from(prec)] += inv_tau2
        theta = gaussian_draw(prec, Xty, rng, scale=np.sqrt(sigma2))

        rng = stream(seed, chain, sweep, _SIGMA)
        resid = y - X @ theta
        shape = a_sig + 0.5 * (n + p)
        rate = b_sig + 0.5 * (
            float(resid @ resid) + float(np.sum(theta**2 * inv_tau2))
        )
        sigma2 = rate / rng.standard_gamma(shape)

        rng = stream(seed, chain, sweep, _LAM)
        tau2_sum = float(np.sum(tau2))

        def lam_logf(ell):
            return (
                (2.0 * p - a_lam) * ell
                - 0.5 * tau2_sum * np.exp(2.0 * ell)
                - b_lam * np.exp(-ell)
            )

        lam = float(np.exp(slice_sample_1d(lam_logf, np.log(lam), 0.5, rng)))

    def record():
        return np.concatenate([theta, [lam, sigma2]]), {}, {}

    names = flat_names("theta", p) + ["lam", "sigma2"]
    return run_chain(config, step, record, names, "bayesian_lasso")


def gibbs_gdp(X, y, config):
    """Generalized double Pareto prior via its hierarchical Laplace form.

    Each coordinate has its own Laplace rate lam_j with a gamma conditional;
    the Laplace factor is expanded as the usual exponential scale mixture.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, p = X.shape
    a_gdp, eta = config.hyperpriors["gdp"]
    a_sig, b_sig = config.hyperpriors["sigma2"]
    seed, chain = config.seed, config.chain_id

    XtX = X.T @ X
    Xty = X.T @ y
    # one precision buffer for all sweeps, so no p x p array is freed and
    # page-faulted in again each sweep
    prec = np.empty_like(XtX)

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
        np.copyto(prec, XtX)
        prec[np.diag_indices_from(prec)] += inv_s
        theta = gaussian_draw(prec, Xty, rng, scale=np.sqrt(sigma2))

        rng = stream(seed, chain, sweep, _SIGMA)
        resid = y - X @ theta
        shape = a_sig + 0.5 * (n + p)
        rate = b_sig + 0.5 * (
            float(resid @ resid) + float(np.sum(theta**2 * inv_s))
        )
        sigma2 = rate / rng.standard_gamma(shape)

    def record():
        return np.concatenate([theta, [sigma2]]), {}, {}

    names = flat_names("theta", p) + ["sigma2"]
    return run_chain(config, step, record, names, "gdp")
