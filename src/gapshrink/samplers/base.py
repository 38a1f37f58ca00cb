"""Shared sampler configuration, draw storage, the fixed hyperprior
table, and the conditional draws the samplers share: the Gaussian block
draw, the Laplace scale-mixture precision, the inverse-gamma draw and the
slice move on a box strength."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from ..errors import NumericError
from ..rng import inverse_gaussian, slice_sample_1d

__all__ = [
    "SamplerConfig",
    "PosteriorSamples",
    "HYPERPRIORS",
    "gaussian_draw",
    "laplace_mixture_precision",
    "inverse_gamma",
    "box_strength_logpdf",
    "box_strength_step",
]

# floor on mixture rates and on |x|, so no inverse-Gaussian mean is 0 or inf
_EPS_ABS = 1e-8

# The fixed hyperprior table of every sampler: (shape, rate) of the
# inverse-gamma priors on the box strengths lam and lam2 and the
# Bayesian-lasso lam ("lam"), on every noise or intercept variance
# ("sigma2") and on the fused smoothing strength ("rho"); (a, b) of the beta
# prior on the cross-group weight; (shape, rate) of the gamma prior on the
# double-Pareto rates.
HYPERPRIORS = MappingProxyType({
    "lam": (2.0, 1.0),
    "sigma2": (2.0, 1.0),
    "rho": (2.0, 1.0),
    "omega_cross": (1.0, 1.0),
    "gdp": (1.0, 1.0),
})


@dataclass
class SamplerConfig:
    """Run-length, seed and shrinkage-strength settings.

    Identical configs produce bit-identical chains: all randomness flows
    through counter-based streams keyed by (seed, chain_id, sweep, block).
    """

    warmup: int = 1000
    retain: int = 1000
    seed: int = 0
    alpha: float = 1000.0
    thinning: int = 1
    chain_id: int = 0
    rank: int = 5
    random_intercept: bool = False

    def __post_init__(self):
        if self.warmup < 1 or self.retain < 1:
            raise ValueError("warmup and retain must be at least 1")
        if self.thinning < 1:
            raise ValueError("thinning must be at least 1")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

    def digest(self):
        payload = {
            "warmup": self.warmup,
            "retain": self.retain,
            "seed": self.seed,
            "alpha": self.alpha,
            "thinning": self.thinning,
            "chain_id": self.chain_id,
            "rank": self.rank,
            "random_intercept": self.random_intercept,
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()[:16]


@dataclass
class PosteriorSamples:
    """Retained draws as a (iterations x parameters) matrix with labels."""

    draws: np.ndarray
    names: list
    meta: dict

    def __post_init__(self):
        self.draws = np.atleast_2d(np.asarray(self.draws, dtype=float))
        if self.draws.shape[1] != len(self.names):
            raise ValueError("column count does not match names")
        self._index = {name: j for j, name in enumerate(self.names)}

    def column(self, name):
        return self.draws[:, self._index[name]]

    def columns(self, prefix):
        """All columns whose name starts with prefix, in declared order."""
        cols = [j for j, n in enumerate(self.names) if n.startswith(prefix)]
        return self.draws[:, cols]

    def mean(self, prefix):
        return self.columns(prefix).mean(axis=0)


def flat_names(prefix, *dims):
    """Labels like prefix_i or prefix_i_j for flattened parameter blocks."""
    if len(dims) == 1:
        return [f"{prefix}_{i}" for i in range(dims[0])]
    if len(dims) == 2:
        return [
            f"{prefix}_{i}_{j}" for i in range(dims[0]) for j in range(dims[1])
        ]
    raise ValueError("only 1- and 2-d blocks supported")


def gaussian_draw(prec, lin, rng, scale=1.0):
    """Draw prec^-1 lin + scale * L^-T z, z standard normal, where
    prec = L L^T; that is N(prec^-1 lin, scale^2 prec^-1).

    prec is one (r, r) precision with lin of shape (r,), or a stack of k
    precisions (k, r, r) with lin of shape (k, r), one independent draw per
    slice.  A single matrix goes through LAPACK's triangular solves, which
    numpy lacks (its LU solve is several times slower at r = 500); a stack
    goes through numpy's batched Cholesky and solve, which loop in C where
    scipy's loop in Python.  Either way lin.size standard normals are drawn
    in C order.

    Raises NumericError when prec is not positive definite or the draw is
    not finite.
    """
    try:
        if prec.ndim == 2:
            cf = cho_factor(prec, lower=True, check_finite=False)
            mean = cho_solve(cf, lin, check_finite=False)
            noise = solve_triangular(
                cf[0], rng.standard_normal(lin.size), lower=True, trans="T",
                check_finite=False,
            )
        else:
            L = np.linalg.cholesky(prec)
            mean = np.linalg.solve(prec, lin[..., None])[..., 0]
            z = rng.standard_normal((*lin.shape, 1))
            noise = np.linalg.solve(np.swapaxes(L, -1, -2), z)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            "conditional precision is not positive definite "
            f"(min diagonal {np.min(np.diagonal(prec, axis1=-2, axis2=-1)):.3e})"
        ) from exc
    draw = mean + scale * noise
    if not np.all(np.isfinite(draw)):
        raise NumericError("Gaussian block draw is not finite")
    return draw


def laplace_mixture_precision(x, rate, rng, scale=1.0):
    """Latent precision 1/s of the exponential scale mixture behind a
    factor exp(-rate |x| / scale), given x.

    exp(-rate |x| / scale) is proportional to the integral of
    N(x; 0, scale^2 s) against s ~ Exponential(rate^2 / 2), so given x,
    1/s is inverse-Gaussian with mean rate * scale / |x| and shape rate^2
    (Park & Casella 2008).  rate broadcasts against x; rate and |x| are
    floored at a small positive value so the mean stays finite.
    """
    rate = np.maximum(rate, _EPS_ABS)
    abs_x = np.maximum(np.abs(x), _EPS_ABS)
    return inverse_gaussian(rate * scale / abs_x, rate**2, rng)


def inverse_gamma(shape, rate, rng):
    """InverseGamma(shape, rate) draws, rate / Gamma(shape, 1): one
    standard_gamma call with one draw per element of rate (a float when
    shape and rate are scalars)."""
    return rate / rng.standard_gamma(shape, size=np.shape(rate) or None)


def box_strength_logpdf(lam, abs_sum, dual_max, alpha):
    """Log density (unnormalized) of a box strength lam given the rest:
    the inverse-gamma prior HYPERPRIORS["lam"] times the gap factor
    exp(-alpha lam sum|theta|), on lam >= max|u| so the box holds its dual
    block; abs_sum is sum|theta| and dual_max is max|u|."""
    if lam <= 0.0 or lam < dual_max:
        return -np.inf
    a, b = HYPERPRIORS["lam"]
    return -(a + 1.0) * np.log(lam) - b / lam - alpha * abs_sum * lam


def box_strength_step(lam, abs_sum, dual_max, alpha, rng):
    """One slice move on log lam against box_strength_logpdf (the exp1
    lam and the exp2 lam2 move)."""
    a, b = HYPERPRIORS["lam"]

    def logf(ell):
        # box_strength_logpdf(exp(ell)) plus the log-scale Jacobian ell
        return -a * ell - b * np.exp(-ell) - alpha * abs_sum * np.exp(ell)

    floor = np.log(max(dual_max, 1e-300))
    return float(
        np.exp(slice_sample_1d(logf, np.log(lam), 1.0, rng, bounds=(floor, np.inf)))
    )
