"""Shared sampler configuration, draw storage, the fixed hyperprior
table, and the conditional draws the samplers share: the Gaussian block
draw, the regression theta draw, the Laplace scale-mixture precision, the
inverse-gamma draw and the slice move on a box strength."""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from ..errors import NumericError
from ..rng import inverse_gaussian, slice_sample_1d

__all__ = [
    "CHAIN_IDS",
    "SamplerConfig",
    "PosteriorSamples",
    "HYPERPRIORS",
    "gaussian_draw",
    "regression_theta_sampler",
    "laplace_mixture_precision",
    "inverse_gamma",
    "box_strength_logpdf",
    "box_strength_step",
]

# rng.stream keys 16 bits of the chain id, so chain CHAIN_IDS replays chain 0
CHAIN_IDS = 1 << 16

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
    chain_id: int = 0
    rank: int = 5

    def __post_init__(self):
        if self.warmup < 1 or self.retain < 1:
            raise ValueError("warmup and retain must be at least 1")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 0 <= self.chain_id < CHAIN_IDS:
            raise ValueError(f"chain_id must be between 0 and {CHAIN_IDS - 1}")
        if self.rank < 1:
            raise ValueError("rank must be at least 1")


@dataclass
class PosteriorSamples:
    """Retained draws as a (iterations x parameters) matrix with labels,
    and the chain's wall-clock seconds."""

    draws: np.ndarray
    names: list
    wall_seconds: float

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


def gaussian_draw(prec, lin, rng):
    """Draw prec^-1 lin + L^-T z, z standard normal, where prec = L L^T;
    that is N(prec^-1 lin, prec^-1).

    prec is one (r, r) precision with lin of shape (r,), or a stack of k
    precisions (k, r, r) with lin of shape (k, r), one independent draw per
    slice.  Both go through numpy's batched Cholesky and solve, which loop
    in C over a stack, so every call stays in numpy's OpenBLAS.  lin.size
    standard normals are drawn in C order.

    Raises NumericError when prec is not positive definite or the draw is
    not finite.
    """
    try:
        L = np.linalg.cholesky(prec)
        mean = np.linalg.solve(prec, lin[..., None])[..., 0]
        z = rng.standard_normal((*lin.shape, 1))
        noise = np.linalg.solve(np.swapaxes(L, -1, -2), z)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            "conditional precision is not positive definite "
            f"(min diagonal {np.min(np.diagonal(prec, axis1=-2, axis2=-1)):.3e})"
        ) from exc
    draw = mean + noise
    if not np.all(np.isfinite(draw)):
        raise NumericError("Gaussian block draw is not finite")
    return draw


def regression_theta_sampler(X, y):
    """The regression theta conditional of a design X (n, p) and response y:
    returns draw(sigma2, d, b, rng), one draw of

        N(Q^-1 (X'y / sigma2 + b), Q^-1),  Q = X'X / sigma2 + diag(d),

    for positive prior precisions d (shape (p,)) and a prior shift b
    (shape (p,), or 0).  Raises ValueError unless y has one entry per row
    of X.

    The draw goes through an n x n system, at O(n^2 p) per draw against
    O(p^3) for the p x p precision (Bhattacharya, Chakraborty & Mallick
    2016, Biometrika): with D = 1/d and the prior mean m0 = D b, draw
    u0 ~ N(0, diag(D)) and delta ~ N(0, I_n), then
        theta = m0 + u0 + D X' / sigma * M^-1 ((y - X (m0 + u0)) / sigma - delta)
    with M = X diag(D) X' / sigma2 + I_n; neither a p x p array nor a copy
    of a C-ordered X is formed.  Every BLAS and LAPACK call goes through
    scipy: numpy and scipy each load their own OpenBLAS, and alternating
    between the two copies is several times slower than either alone.
    p standard normals are drawn, then n.

    draw raises NumericError when the system is not positive definite or
    the draw is not finite.
    """
    # imported here, once per chain, and bound in draw: scipy.linalg takes
    # about 0.25 s to load, which only regression chains need
    from scipy.linalg import LinAlgError, cho_factor, cho_solve
    from scipy.linalg.blas import dgemv, dsyrk

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if y.shape != (n,):
        raise ValueError("y length must match rows of X")
    # X' and diag(sqrt(D)) X' in Fortran order, so scipy's BLAS reads them
    # uncopied; X' is a view when X is C-ordered
    Xt = np.asfortranarray(X.T)
    XSt = np.empty_like(Xt)
    M = np.zeros((n, n), order="F")
    diag = np.diag_indices(n)

    def draw(sigma2, d, b, rng):
        D = 1.0 / d
        root_d = np.sqrt(D)
        sigma = np.sqrt(sigma2)
        prior = b * D + root_d * rng.standard_normal(p)
        resid = (y - dgemv(1.0, Xt, prior, trans=1)) / sigma - rng.standard_normal(n)
        np.multiply(Xt, root_d[:, None], out=XSt)
        # lower triangle of X diag(D) X' / sigma2, written into M
        dsyrk(1.0 / sigma2, XSt, c=M, trans=1, lower=1, overwrite_c=1)
        M[diag] += 1.0
        try:
            cf = cho_factor(M, lower=True, overwrite_a=True, check_finite=False)
        except LinAlgError as exc:
            raise NumericError(
                "n x n regression system is not positive definite "
                f"(min prior precision {np.min(d):.3e})"
            ) from exc
        w = cho_solve(cf, resid, check_finite=False)
        theta = prior + D / sigma * dgemv(1.0, Xt, w)
        if not np.all(np.isfinite(theta)):
            raise NumericError("regression theta draw is not finite")
        return theta

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
