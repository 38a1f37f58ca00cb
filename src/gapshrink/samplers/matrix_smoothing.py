"""Blocked Gibbs sampler for low-rank plus sparse matrix smoothing.

Data are repeated noisy copies of one matrix; the mean matrix is
parameterized as theta = A B^T so the nuclear norm enters through the
factorization identity 0.5 (||A||_F^2 + ||B||_F^2).  The dual splits into
V1 (nuclear side, with strength tied as lam1 = ||V1||_F, which keeps V1
operator-norm feasible for free) and V2 (elementwise box |V2| <= lam2).
Rows of A and B are jointly Gaussian given the elementwise exponential
scale mixture for the lam2 ||theta||_1 factor; V2 coordinates are
truncated normals; V1 moves as one block through the normal scale-mixture
form of its group-lasso factor exp(-coupling ||V1||_F) (Kyung, Gill,
Ghosh & Casella 2010): a latent scale given V1, then independent normal
entries given the scale.
"""

from __future__ import annotations

import math

import numpy as np

from ..priors import _KERNEL_VAR
from ..rng import inverse_gaussian, stream, truncated_normal
from .base import (
    HYPERPRIORS,
    box_strength_step,
    gaussian_draw,
    inverse_gamma,
    laplace_mixture_precision,
)
from .chain import run_chain

__all__ = [
    "gibbs_matrix_smoothing",
    "v2_conditional_logpdf",
    "v2_block_draw",
    "v1_conditional_logpdf",
    "v1_block_draw",
]

_ROWS_A, _ROWS_B, _SCALES, _V2, _V1, _SIGMA, _LAM2, _INIT = range(8)


def v2_conditional_logpdf(x, theta_ij, v1_ij, lam2, alpha):
    """Log density of one sparse-dual entry given everything else."""
    if abs(x) > lam2:
        return -np.inf
    c = theta_ij + v1_ij
    return alpha * theta_ij * x - (c + x) ** 2 / (2.0 * _KERNEL_VAR)


def v2_block_draw(theta, V1, lam2, alpha, rng):
    """Exact draw of the sparse dual V2 given theta, V1 and lam2:
    independent truncated normals, each matching v2_conditional_logpdf."""
    mean = _KERNEL_VAR * alpha * theta - (theta + V1)
    return truncated_normal(mean, math.sqrt(_KERNEL_VAR), -lam2, lam2, rng)


def v1_conditional_logpdf(x, theta_ij, c2_ij, coupling, r2_rest, alpha):
    """Log density of one nuclear-dual entry; coupling is
    alpha * (||A||_F^2 + ||B||_F^2) / 2 and r2_rest the squared Frobenius
    norm of V1 excluding this entry (lam1 moves with the entry)."""
    return (
        alpha * theta_ij * x
        - coupling * math.sqrt(r2_rest + x * x)
        - (c2_ij + x) ** 2 / (2.0 * _KERNEL_VAR)
    )


def v1_block_draw(theta, V1, V2, coupling, alpha, rng):
    """One data-augmentation move on the whole nuclear dual V1, leaving
    the joint density of v1_conditional_logpdf invariant.

    With d entries, exp(-c ||V1||_F) is the marginal of N(V1; 0, tau I)
    under tau ~ Gamma((d + 1) / 2, rate c^2 / 2).  Given V1, 1/tau is
    inverse-Gaussian (mean c / ||V1||_F, shape c^2), or tau is
    Gamma(1/2, rate c^2 / 2) when V1 = 0; given tau the entries are
    independent normals.  tau is discarded after the draw.
    """
    c = float(coupling)
    r = float(np.linalg.norm(V1))
    if r > 0.0:
        inv_tau = float(inverse_gaussian(c / r, c * c, rng))
    else:
        inv_tau = inverse_gamma(0.5, 0.5 * c * c, rng)
    prec = inv_tau + 1.0 / _KERNEL_VAR
    lin = alpha * theta - (theta + V2) / _KERNEL_VAR
    return lin / prec + rng.standard_normal(np.shape(theta)) / math.sqrt(prec)


def gibbs_matrix_smoothing(Y, config):
    """Run one chain; returns draws of (A, B, V1, V2, sigma2, lam1, lam2)
    plus the leading singular values of theta = A B^T per draw.

    Sweep order: rows of A, rows of B, elementwise scale mixtures, V2
    (truncated normals), V1 (one scale-mixture block move under the lam1
    coupling), sigma2 (conjugate), lam2 (slice on the log scale).
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 3:
        raise ValueError("Y must be a stack of matrices (S x p1 x p2)")
    S, p1, p2 = Y.shape
    r = config.rank
    if r > min(p1, p2):
        raise ValueError("rank exceeds matrix dimensions")
    alpha = config.alpha
    a_sig, b_sig = HYPERPRIORS["sigma2"]
    seed, chain = config.seed, config.chain_id

    Ybar = Y.mean(axis=0)
    ss0 = float(np.sum((Y - Ybar) ** 2))

    rng0 = stream(seed, chain, 0, _INIT)
    A = rng0.standard_normal((p1, r))
    B = rng0.standard_normal((p2, r))
    V1 = np.zeros((p1, p2))
    V2 = np.zeros((p1, p2))
    inv_s = np.ones((p1, p2))
    sigma2 = float(np.var(Y)) or 1.0
    lam2 = 1.0
    theta = None
    diag = np.arange(r)

    def rows(block, sweep, F, W, M, V, lam1):
        """Draw the rows of one factor given the other factor F, the scale
        precisions W, the data mean M and the dual sum V (all oriented with
        the drawn factor's rows first): one r x r precision per row, the
        row's own scale-weighted Gram matrix plus the shared likelihood
        term and the nuclear ridge."""
        rng = stream(seed, chain, sweep, block)
        like_w = S / sigma2 + 1.0 / _KERNEL_VAR
        prec = np.einsum("jk,ij,jl->ikl", F, W, F) + like_w * (F.T @ F)
        prec[:, diag, diag] += alpha * lam1
        rhs = (S / sigma2) * (M @ F) + (alpha - 1.0 / _KERNEL_VAR) * (V @ F)
        return gaussian_draw(prec, rhs, rng)

    def step(sweep):
        nonlocal A, B, V1, V2, inv_s, sigma2, lam2, theta
        lam1 = float(np.linalg.norm(V1))
        V = V1 + V2
        A = rows(_ROWS_A, sweep, B, inv_s, Ybar, V, lam1)
        B = rows(_ROWS_B, sweep, A, inv_s.T, Ybar.T, V.T, lam1)
        theta = A @ B.T

        rng = stream(seed, chain, sweep, _SCALES)
        inv_s = laplace_mixture_precision(theta, alpha * lam2, rng)

        rng = stream(seed, chain, sweep, _V2)
        V2 = v2_block_draw(theta, V1, lam2, alpha, rng)

        rng = stream(seed, chain, sweep, _V1)
        coupling = alpha * 0.5 * (float(np.sum(A * A)) + float(np.sum(B * B)))
        V1 = v1_block_draw(theta, V1, V2, coupling, alpha, rng)

        rng = stream(seed, chain, sweep, _SIGMA)
        shape = a_sig + 0.5 * S * p1 * p2
        rate_sig = b_sig + 0.5 * (ss0 + S * float(np.sum((Ybar - theta) ** 2)))
        sigma2 = inverse_gamma(shape, rate_sig, rng)

        rng = stream(seed, chain, sweep, _LAM2)
        lam2 = box_strength_step(
            lam2, float(np.sum(np.abs(theta))), float(np.max(np.abs(V2))), alpha, rng
        )

    n_sv = min(6, min(p1, p2))

    def record():
        sv = np.linalg.svd(theta, compute_uv=False)[:n_sv]
        values = {
            "A": A, "B": B, "V1": V1, "V2": V2, "sigma2": sigma2,
            "lam1": float(np.linalg.norm(V1)), "lam2": lam2,
            **{f"sv_{k + 1}": s for k, s in enumerate(sv)},
        }
        return values, {"V2": (V2, lam2)}, {"inv_s": inv_s}

    return run_chain(config, step, record)
