"""Shared sampler configuration, draw storage, and the two conditional draws
every sampler builds its conjugate blocks from: the Gaussian block draw and
the Laplace scale-mixture precision."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from ..errors import NumericError
from ..rng import inverse_gaussian

__all__ = [
    "SamplerConfig",
    "PosteriorSamples",
    "DEFAULT_HYPERPRIORS",
    "gaussian_draw",
    "laplace_mixture_precision",
]

# floor on mixture rates and on |x|, so no inverse-Gaussian mean is 0 or inf
_EPS_ABS = 1e-8

# (shape, rate/scale) pairs for inverse-gamma priors, (a, b) for the beta
# prior on the cross-group weight, and the gamma hyperprior of the
# double-Pareto comparator.
DEFAULT_HYPERPRIORS = {
    "lam": (2.0, 1.0),
    "lam2": (2.0, 1.0),
    "sigma2": (2.0, 1.0),
    "rho": (2.0, 1.0),
    "omega_cross": (1.0, 1.0),
    "gdp": (1.0, 1.0),
}


@dataclass
class SamplerConfig:
    """Run-length, seed, shrinkage strength, and hyperprior settings.

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
    hyperpriors: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.warmup < 1 or self.retain < 1:
            raise ValueError("warmup and retain must be at least 1")
        if self.thinning < 1:
            raise ValueError("thinning must be at least 1")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        merged = dict(DEFAULT_HYPERPRIORS)
        merged.update(self.hyperpriors)
        self.hyperpriors = merged

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
            "hyperpriors": {k: list(v) if isinstance(v, tuple) else v
                            for k, v in sorted(self.hyperpriors.items())},
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
