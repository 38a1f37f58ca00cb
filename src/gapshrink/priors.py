"""Unnormalized log-densities of the gap-shrinkage priors of the three
sampled models, in the samplers' own parameters.

Each prior exponentiates -alpha times a duality gap and multiplies a base
kernel at the reconstructed anchor, fixed by its model: a standard Cauchy
for the l1 model, and a Gaussian of variance _KERNEL_VAR per entry for the
matrix-smoothing and fused models.  Densities are always unnormalized; the
normalizing constant is never computed (it depends on hyperparameters, a
known doubly-intractable caveat of the hyperparameter updates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .gaps import l1_gap, variational_nuclear_gap

__all__ = [
    "EdgeGraph",
    "complete_graph",
    "log_gap_prior_l1",
    "log_gap_prior_fused",
    "log_gap_prior_nuclear_sparse",
    "marginal_l1_prior",
    "marginal_l1_lower_bound",
    "pairwise_diff_penalty",
    "pairwise_diff_penalty_median_form",
]

# variance per entry of the Gaussian base kernel on the anchor, in the
# matrix-smoothing and fused-probit models
_KERNEL_VAR = 100.0


def _check_alpha(alpha):
    if not alpha > 0:
        raise ValueError("alpha must be positive")


def _check_strength(name, value):
    if not value >= 0:
        raise ValueError(f"{name} must be nonnegative")


def _gaussian_kernel(x):
    return -0.5 * float(np.sum(x * x)) / _KERNEL_VAR


@dataclass
class EdgeGraph:
    """Undirected graph over node indices with directed incidence.

    Edge e = (j, j') contributes the row of B with +1 at j and -1 at j', so
    B theta stacks the per-edge differences.  cross marks the edges whose
    weight is the learned cross-group value omega rather than 1.
    """

    n_nodes: int
    edges: np.ndarray
    cross: np.ndarray

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=int).reshape(-1, 2)
        self.cross = np.asarray(self.cross, dtype=bool).ravel()
        if self.edges.size and (
            self.edges.min() < 0 or self.edges.max() >= self.n_nodes
        ):
            raise ValueError("edge references a node outside the graph")
        if len(self.cross) != len(self.edges):
            raise ValueError("cross must have one entry per edge")

    @property
    def n_edges(self):
        return self.edges.shape[0]

    def weights(self, omega):
        """Edge weights: omega on cross-group edges, 1 within groups."""
        return np.where(self.cross, omega, 1.0)

    def incidence(self):
        B = np.zeros((self.n_edges, self.n_nodes))
        idx = np.arange(self.n_edges)
        B[idx, self.edges[:, 0]] = 1.0
        B[idx, self.edges[:, 1]] = -1.0
        return B


def complete_graph(groups):
    """Complete graph over all group members, with the edges between
    different groups marked cross."""
    members = [j for g in groups for j in g]
    m = len(members)
    if sorted(members) != list(range(m)):
        raise ValueError("groups must partition 0..m-1")
    owner = np.empty(m, dtype=int)
    for gi, g in enumerate(groups):
        owner[list(g)] = gi
    # row-major upper triangle: (0, 1), (0, 2), ..., (m - 2, m - 1)
    j, k = np.triu_indices(m, 1)
    return EdgeGraph(m, np.column_stack([j, k]), owner[j] != owner[k])


def log_gap_prior_l1(theta, u, lam, alpha):
    """Log density of the l1 gap-shrinkage prior at (theta, u).

    -alpha * sum_j (lam - |u_j|) |theta_j| plus the standard Cauchy kernel
    at theta + u; -inf off the feasible region (box or sign violation).
    """
    _check_alpha(alpha)
    _check_strength("lam", lam)
    theta = np.asarray(theta, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    if theta.shape != u.shape:
        raise DimensionError("theta and u differ in shape")
    gap = l1_gap(lam, theta, u)
    if np.isinf(gap):
        return -np.inf
    beta = theta + u
    return -alpha * gap - float(np.sum(np.log1p(beta * beta)))


def log_gap_prior_fused(theta, v, graph, rho, omega, alpha):
    """Log density of the graph-fused gap-shrinkage prior.

    theta is m x p (node by covariate), v holds one dual entry per
    (edge, covariate), and the edge weights are graph.weights(omega).  The
    gap is rho * sum of weighted |difference| terms minus the pairing
    <theta, B^T W v>; the Gaussian kernel sits at the anchor
    theta + B^T W v.  -inf when any |v| exceeds rho.
    """
    _check_alpha(alpha)
    _check_strength("rho", rho)
    if not 0.0 < omega < 1.0:
        raise ValueError("omega must lie in (0, 1)")
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    if theta.shape[0] != graph.n_nodes:
        raise DimensionError("theta rows must match graph nodes")
    if v.shape != (graph.n_edges, theta.shape[1]):
        raise DimensionError("v must be n_edges x n_covariates")
    if v.size and np.max(np.abs(v)) > rho:
        return -np.inf
    B = graph.incidence()
    w = graph.weights(omega)[:, None]
    diffs = B @ theta
    gap = rho * float(np.sum(w * np.abs(diffs))) - float(np.sum(w * v * diffs))
    return -alpha * gap + _gaussian_kernel(theta + B.T @ (w * v))


def log_gap_prior_nuclear_sparse(A, B, V1, V2, lam2, alpha):
    """Log density of the nuclear + elementwise-l1 gap-shrinkage prior.

    The nuclear strength is tied to the dual by lam1 = ||V1||_F, which keeps
    V1 automatically operator-norm feasible; entries of V2 must stay within
    the sparsity strength lam2 or the density is -inf (the gap's own box
    check).  The Gaussian kernel sits at the anchor A B^T + V1 + V2.
    """
    _check_alpha(alpha)
    _check_strength("lam2", lam2)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    V1 = np.asarray(V1, dtype=float)
    V2 = np.asarray(V2, dtype=float)
    lam1 = float(np.linalg.norm(V1))
    gap = variational_nuclear_gap(A, B, (V1, V2), lam1, lam2)
    if np.isinf(gap):
        return -np.inf
    return -alpha * gap + _gaussian_kernel(A @ B.T + V1 + V2)


def marginal_l1_prior(theta_j, lam, alpha):
    """Marginal prior density (unnormalized) of one coordinate under the
    l1 gap prior with Cauchy kernel, by adaptive quadrature over the dual.

    Integrates exp(-alpha (lam - |u|) |theta|) / (1 + (theta + u)^2) over
    u in [-lam, lam], splitting at the |u| kink.
    """
    # imported here: scipy.integrate pulls in scipy.optimize and
    # scipy.sparse, which nothing else in the package needs
    from scipy.integrate import quad

    if lam <= 0 or alpha <= 0:
        raise ValueError("lam and alpha must be positive")
    t = float(theta_j)

    def integrand(u):
        return np.exp(-alpha * (lam - abs(u)) * abs(t)) / (
            1.0 + (t + u) ** 2
        )

    value, _ = quad(
        integrand, -lam, lam, points=[0.0], epsrel=1e-8, epsabs=0.0, limit=200
    )
    return float(value)


def marginal_l1_lower_bound(theta_j, lam, alpha):
    """Closed-form lower bound on marginal_l1_prior:
    2 (1 - exp(-alpha lam |theta|)) / (alpha |theta| (1 + (|theta| + lam)^2)).
    """
    t = abs(float(theta_j))
    if t == 0.0:
        raise ValueError("bound is for nonzero coordinates")
    return (
        2.0
        * (1.0 - np.exp(-alpha * lam * t))
        / (alpha * t * (1.0 + (t + lam) ** 2))
    )


def pairwise_diff_penalty(values, rho=1.0):
    """rho * sum over pairs j < j' of |values_j - values_j'|, direct form."""
    values = np.asarray(values, dtype=float).ravel()
    total = 0.0
    for j in range(values.size):
        total += float(np.sum(np.abs(values[j] - values[j + 1 :])))
    return rho * total


def pairwise_diff_penalty_median_form(values, rho=1.0):
    """All-pairs absolute differences via order statistics about the median.

    rho * sum_t |2t - m - 1| * |v_(t) - c| with c the sample median (the
    midpoint of the central pair for even m; the coefficients about the
    median sum to zero, so any point between the central pair works).
    """
    values = np.sort(np.asarray(values, dtype=float).ravel())
    m = values.size
    if m % 2:
        c = values[m // 2]
    else:
        c = 0.5 * (values[m // 2 - 1] + values[m // 2])
    t = np.arange(1, m + 1)
    return rho * float(np.sum(np.abs(2 * t - m - 1) * np.abs(values - c)))
