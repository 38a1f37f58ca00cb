"""Metropolis-within-Gibbs sampler for multivariate probit responses with
a complete-graph fused gap-shrinkage prior over category coefficients.

Categories are smoothed toward each other along a complete weighted graph:
within-group edges carry weight 1, cross-group edges a learned weight in
(0, 1).  The gap couples the coefficient matrix with one dual entry per
(edge, covariate), box-constrained by the smoothing strength rho.  Probit
responses are augmented with truncated-normal latents so every coefficient
column has a Gaussian full conditional.
"""

from __future__ import annotations

import math

import numpy as np

from ..priors import _KERNEL_VAR, complete_graph
from ..rng import (
    slice_sample_1d,
    standard_inverse,
    stream,
    truncated_normal_inverse,
)
from .base import HYPERPRIORS, gaussian_draw, laplace_mixture_precision
from .chain import run_chain

__all__ = [
    "gibbs_fused_probit",
    "rho_conditional_logpdf",
    "rho_conditional_step",
    "omega_conditional_logpdf",
    "omega_conditional_step",
    "edge_dual_conditional_logpdf",
    "edge_dual_block_draw",
    "edge_classes",
    "edge_class_layout",
    "edge_dual_sweep",
    "probit_latent_draw",
]

_LATENT, _SCALES, _THETA, _DUAL, _RHO, _OMEGA = range(6)
# the stream ids key the draws: a new _INIT id would change every exp3 chain
_INIT = 7


def rho_conditional_logpdf(x, sum_w_absdiff, sum_w_vunit_d, theta, q_unit,
                           alpha):
    """Log density of the smoothing strength given the rest, under the
    inverse-gamma prior HYPERPRIORS["rho"].

    The dual entries are parameterized as rho times a unit-box variable,
    so a rho move rescales them in place: the box carries no rho-dependent
    volume (the raw-v parameterization is improper in rho once the graph
    differences vanish) and feasibility |v| <= rho holds by construction.
    q_unit is the anchor contribution of the unit duals, scaled by rho.
    """
    if x <= 0.0:
        return -np.inf
    a, b = HYPERPRIORS["rho"]
    anchor = theta + x * q_unit
    return (
        -(a + 1.0) * math.log(x)
        - b / x
        - alpha * x * (sum_w_absdiff - sum_w_vunit_d)
        - float(np.sum(anchor * anchor)) / (2.0 * _KERNEL_VAR)
    )


def rho_conditional_step(x0, sum_w_absdiff, sum_w_vunit_d, theta, q_unit,
                         alpha, rng):
    """One slice move on log rho against rho_conditional_logpdf."""

    def logf(ell):
        # ell is the log-scale Jacobian
        return rho_conditional_logpdf(
            math.exp(ell), sum_w_absdiff, sum_w_vunit_d, theta, q_unit, alpha
        ) + ell

    return float(math.exp(slice_sample_1d(logf, math.log(x0), 1.0, rng)))


def omega_conditional_logpdf(x, rho, sum_cross_absdiff, sum_cross_vd, theta,
                             q_within, q_cross, alpha):
    """Log density of the cross-group weight given the rest, under the beta
    prior HYPERPRIORS["omega_cross"].

    The weight scales both the cross-edge share of the gap and the
    cross-edge contribution to the reconstructed anchor.
    """
    if not 0.0 < x < 1.0:
        return -np.inf
    a, b = HYPERPRIORS["omega_cross"]
    gap = rho * x * sum_cross_absdiff - x * sum_cross_vd
    anchor = theta + q_within + x * q_cross
    val = -alpha * gap - float(np.sum(anchor * anchor)) / (2.0 * _KERNEL_VAR)
    return val + (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x)


def omega_conditional_step(x0, rho, sum_cross_absdiff, sum_cross_vd, theta,
                           q_within, q_cross, alpha, rng):
    """One slice move on the cross-group weight within (0, 1)."""

    def logf(x):
        return omega_conditional_logpdf(
            x, rho, sum_cross_absdiff, sum_cross_vd, theta,
            q_within, q_cross, alpha,
        )

    return slice_sample_1d(logf, x0, 0.25, rng, bounds=(1e-12, 1.0 - 1e-12))


def edge_dual_conditional_logpdf(x, d_ek, a1, a2, w_e, rho, alpha):
    """Log density of one (edge, covariate) dual entry.

    a1, a2 are the anchor entries of the edge's two nodes with this entry's
    own contribution removed; the entry adds +w_e x to the first and
    -w_e x to the second.
    """
    if abs(x) > rho:
        return -np.inf
    return (
        alpha * w_e * d_ek * x
        - ((a1 + w_e * x) ** 2 + (a2 - w_e * x) ** 2) / (2.0 * _KERNEL_VAR)
    )


def edge_dual_block_draw(d, a1, a2, w, rho, alpha, u):
    """Exact truncated-normal draws matching edge_dual_conditional_logpdf
    at the uniforms u, one per entry of the broadcast of d, a1, a2 and w.
    The caller checks rho > 0 and a positive sd, as edge_dual_sweep does."""
    var = _dual_var(w)
    mean = var * (alpha * w * d - w * (a1 - a2) / _KERNEL_VAR)
    return truncated_normal_inverse(mean, np.sqrt(var), -rho, rho, u)


def _dual_var(w):
    return _KERNEL_VAR / (2.0 * w * w)


def edge_classes(edges, m):
    """Edge indices of a graph on nodes 0..m-1 in m node-disjoint classes:
    edge (j, j') is in class c = (j + j') mod m, so j's partner is c - j."""
    cls = np.sum(edges, axis=1) % m
    return [np.flatnonzero(cls == c) for c in range(m)]


def edge_class_layout(edges, classes):
    """(order, blocks): the edge indices class after class, and per class
    the slice of its edges in that order with their two node indices."""
    order = np.concatenate(classes)
    bounds = np.cumsum([0] + [len(c) for c in classes])
    blocks = [
        (slice(start, stop), *edges[c].T.copy())
        for c, start, stop in zip(classes, bounds[:-1], bounds[1:])
    ]
    return order, blocks


def edge_dual_sweep(v, anchor, d, w, layout, rho, alpha, rng):
    """Draw every dual entry in place, one edge_dual_block_draw per class of
    layout (edge_class_layout); anchor (theta + B^T (w v)) follows exactly,
    as no class repeats a node.

    One uniform draw covers the sweep, in class order: each class's
    (len(c), p) block takes the next len(c) * p uniforms, as a draw per
    class would.
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    if not np.all(np.sqrt(_dual_var(w)) > 0):
        raise ValueError("edge weights must give a positive dual sd")
    order, blocks = layout
    w_o, d_o, v_o = w[order, None], d[order], v[order]
    u = rng.uniform(size=v_o.shape)
    for sl, j1, j2 in blocks:
        w_c = w_o[sl]
        old = w_c * v_o[sl]
        v_o[sl] = edge_dual_block_draw(
            d_o[sl], anchor[j1] - old, anchor[j2] + old, w_c, rho, alpha, u[sl]
        )
        step = w_c * v_o[sl] - old
        anchor[j1] += step
        anchor[j2] -= step
    v[order] = v_o


def probit_latent_draw(M, y, lo, hi, rng):
    """Albert-Chib probit latents: N(M, 1) truncated to (lo, hi), which is
    (0, inf) where y is 1 and (-inf, 0) where y is 0.

    truncated_normal's inverse CDF with one ndtr per entry: ndtr is exactly
    0 at -inf and 1 at +inf, so ndtr(lo - M) and ndtr(hi - M) are t and 1
    where y is 1 and 0 and t where y is 0, for t = ndtr(-M).  The caller
    checks lo < hi.
    """
    from scipy.special import ndtr

    t = ndtr(-M)
    fa = t * y
    fb = t * (1.0 - y) + y
    x = standard_inverse(lo - M, hi - M, fa, fb, rng.uniform(size=M.shape))
    return np.clip(M + x, lo, hi)


def gibbs_fused_probit(Y, X, taxonomy, config):
    """Run one chain; returns draws of (theta, v, rho, omega_cross).

    Y is the n x m binary (0/1) response and X the n x p design;
    taxonomy partitions the categories into groups.  Sweep order: probit
    latents (probit_latent_draw, a one-sided inverse CDF), fused scale
    mixtures, theta columns (blocked Gaussian), dual entries (one
    truncated-normal block per edge class, from one uniform draw per sweep
    taken in class order), rho and omega_cross (slice).
    """
    Y = np.asarray(Y)
    X = np.asarray(X, dtype=float)
    n, m = Y.shape
    p = X.shape[1]
    if X.shape[0] != n:
        raise ValueError("X rows must match Y rows")
    if not np.all((Y == 0) | (Y == 1)):
        raise ValueError("Y must be binary (entries 0 or 1)")
    if any(len(g) == 0 for g in taxonomy):
        raise ValueError("empty group in taxonomy")
    graph = complete_graph(taxonomy)
    if graph.n_nodes != m:
        raise ValueError("taxonomy does not cover the response columns")
    layout = edge_class_layout(graph.edges, edge_classes(graph.edges, m))
    cross = graph.cross
    B = graph.incidence()
    n_edges = graph.n_edges

    alpha = config.alpha
    seed, chain = config.seed, config.chain_id

    # kernel scale 10 shrunk by 0.1 gives unit-scale starting coefficients
    theta = stream(seed, chain, 0, _INIT).standard_normal((m, p))
    v = np.zeros((n_edges, p))
    inv_s = np.ones((n_edges, p))
    rho = 1.0
    omega = 0.5

    x2 = np.sum(X * X, axis=0)
    y = Y.astype(float)
    lo = np.where(y == 1.0, 0.0, -np.inf)
    hi = np.where(y == 1.0, np.inf, 0.0)
    if not np.all(lo < hi):
        raise ValueError("lower bound must be below upper bound")

    M = X @ theta.T
    # the probit latents are chain state like the rest; holding them between
    # sweeps also keeps the heap from being trimmed and page-faulted in again
    z = None

    def step(sweep):
        nonlocal M, z, v, inv_s, rho, omega
        w = graph.weights(omega)

        rng = stream(seed, chain, sweep, _LATENT)
        z = probit_latent_draw(M, y, lo, hi, rng)

        rng = stream(seed, chain, sweep, _SCALES)
        d = B @ theta
        inv_s = laplace_mixture_precision(d, (alpha * rho * w)[:, None], rng)

        rng = stream(seed, chain, sweep, _THETA)
        q = B.T @ (w[:, None] * v)
        for k in range(p):
            resid = z - M + np.outer(X[:, k], theta[:, k])
            prec = B.T @ (inv_s[:, k, None] * B)
            prec[np.diag_indices_from(prec)] += x2[k] + 1.0 / _KERNEL_VAR
            lin = X[:, k] @ resid + (alpha - 1.0 / _KERNEL_VAR) * q[:, k]
            new_col = gaussian_draw(prec, lin, rng)
            M += np.outer(X[:, k], new_col - theta[:, k])
            theta[:, k] = new_col

        # v and w are as in the theta block, so q still holds B^T (w v)
        rng = stream(seed, chain, sweep, _DUAL)
        d = B @ theta
        anchor = theta + q
        edge_dual_sweep(v, anchor, d, w, layout, rho, alpha, rng)

        rng = stream(seed, chain, sweep, _RHO)
        sum_wd = float(np.sum(w[:, None] * np.abs(d)))
        v_unit = v / rho
        sum_w_vunit_d = float(np.sum(w[:, None] * v_unit * d))
        q_unit = B.T @ (w[:, None] * v_unit)
        rho = rho_conditional_step(
            rho, sum_wd, sum_w_vunit_d, theta, q_unit, alpha, rng
        )
        v = v_unit * rho

        rng = stream(seed, chain, sweep, _OMEGA)
        abs_d_cross = float(np.sum(np.abs(d[cross])))
        vd_cross = float(np.sum(v[cross] * d[cross]))
        q_within = B.T @ (~cross[:, None] * v)
        q_cross = B.T @ (cross[:, None] * v)
        omega = omega_conditional_step(
            omega, rho, abs_d_cross, vd_cross, theta, q_within, q_cross,
            alpha, rng,
        )

    def record():
        values = {"theta": theta, "v": v, "rho": rho, "omega_cross": omega}
        return values, {"v": (v, rho)}, {"inv_s": inv_s}

    return run_chain(config, step, record)
