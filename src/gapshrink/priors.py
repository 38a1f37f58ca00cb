"""Unnormalized log-densities of the gap-shrinkage priors.

Each prior exponentiates -alpha times a duality gap and multiplies a base
kernel evaluated at the reconstructed anchor beta.  Densities are always
unnormalized; the normalizing constant is never computed (it depends on
hyperparameters, a known doubly-intractable caveat of the hyperparameter
updates).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .gaps import l1_gap, variational_nuclear_gap

__all__ = [
    "BaseKernel",
    "GapPriorSpec",
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


@dataclass
class BaseKernel:
    """Base density on the anchor variable: standard Cauchy or Gaussian."""

    kind: str
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("cauchy", "gaussian"):
            raise ValueError("kind must be 'cauchy' or 'gaussian'")
        if self.kind == "gaussian" and self.scale <= 0:
            raise ValueError("gaussian kernel needs a positive scale")

    @classmethod
    def cauchy(cls):
        return cls("cauchy")

    @classmethod
    def gaussian(cls, scale):
        return cls("gaussian", scale)

    def log_density(self, x):
        """Unnormalized log-density summed over all entries of x."""
        x = np.asarray(x, dtype=float)
        if self.kind == "cauchy":
            return -float(np.sum(np.log1p(x * x)))
        return -0.5 * float(np.sum(x * x)) / (self.scale**2)


@dataclass
class GapPriorSpec:
    """Shrinkage strength, penalty, base kernel, and named hyperparameters."""

    alpha: float
    kernel: BaseKernel
    penalty: object = None
    hyper: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        for name, value in self.hyper.items():
            if value < 0:
                raise ValueError(f"hyperparameter {name} must be nonnegative")
        w = self.hyper.get("omega_cross")
        if w is not None and not 0.0 < w < 1.0:
            raise ValueError("omega_cross must lie in (0, 1)")


@dataclass
class EdgeGraph:
    """Weighted undirected graph over node indices with directed incidence.

    Edge e = (j, j') contributes the row of B with +1 at j and -1 at j', so
    B theta stacks the per-edge differences.  cross marks edges whose weight
    is the learned cross-group value rather than 1.
    """

    n_nodes: int
    edges: np.ndarray
    weights: np.ndarray
    cross: np.ndarray

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=int).reshape(-1, 2)
        self.weights = np.asarray(self.weights, dtype=float).ravel()
        self.cross = np.asarray(self.cross, dtype=bool).ravel()
        if self.edges.size and (
            self.edges.min() < 0 or self.edges.max() >= self.n_nodes
        ):
            raise ValueError("edge references a node outside the graph")
        if len(self.weights) != len(self.edges) != len(self.cross):
            raise ValueError("edges, weights, cross must align")

    @property
    def n_edges(self):
        return self.edges.shape[0]

    def incidence(self):
        B = np.zeros((self.n_edges, self.n_nodes))
        idx = np.arange(self.n_edges)
        B[idx, self.edges[:, 0]] = 1.0
        B[idx, self.edges[:, 1]] = -1.0
        return B


def complete_graph(groups, omega_cross=1.0):
    """Complete graph over all group members; cross-group edges get
    weight omega_cross, within-group edges weight 1."""
    members = [j for g in groups for j in g]
    m = len(members)
    if sorted(members) != list(range(m)):
        raise ValueError("groups must partition 0..m-1")
    owner = {}
    for gi, g in enumerate(groups):
        for j in g:
            owner[j] = gi
    edges, cross = [], []
    for j in range(m):
        for k in range(j + 1, m):
            edges.append((j, k))
            cross.append(owner[j] != owner[k])
    cross = np.array(cross, dtype=bool)
    weights = np.where(cross, omega_cross, 1.0)
    return EdgeGraph(m, np.array(edges), weights, cross)


def log_gap_prior_l1(theta, u, spec):
    """Log density of the l1 gap-shrinkage prior at (theta, u).

    -alpha * sum_j (lam - |u_j|) |theta_j| plus the kernel at theta + u;
    -inf off the feasible region (box or sign violation).
    """
    theta = np.asarray(theta, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    if theta.shape != u.shape:
        raise DimensionError("theta and u differ in shape")
    lam = spec.hyper["lam"]
    gap = l1_gap(lam, theta, u)
    if np.isinf(gap):
        return -np.inf
    return -spec.alpha * gap + spec.kernel.log_density(theta + u)


def log_gap_prior_fused(theta, v, graph, spec):
    """Log density of the graph-fused gap-shrinkage prior.

    theta is m x p (node by covariate), v holds one dual entry per
    (edge, covariate).  The gap is rho * sum of weighted |difference| terms
    minus the pairing <theta, B^T W v>; the anchor is theta + B^T W v.
    -inf when any |v| exceeds rho.
    """
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    if theta.shape[0] != graph.n_nodes:
        raise DimensionError("theta rows must match graph nodes")
    if v.shape != (graph.n_edges, theta.shape[1]):
        raise DimensionError("v must be n_edges x n_covariates")
    rho = spec.hyper["rho"]
    if v.size and np.max(np.abs(v)) > rho:
        return -np.inf
    B = graph.incidence()
    w = graph.weights
    diffs = B @ theta
    gap = rho * float(np.sum(w[:, None] * np.abs(diffs))) - float(
        np.sum(w[:, None] * v * diffs)
    )
    beta = theta + B.T @ (w[:, None] * v)
    return -spec.alpha * gap + spec.kernel.log_density(beta)


def log_gap_prior_nuclear_sparse(A, B, V1, V2, spec):
    """Log density of the nuclear + elementwise-l1 gap-shrinkage prior.

    The nuclear strength is tied to the dual by lam1 = ||V1||_F, which keeps
    V1 automatically operator-norm feasible; entries of V2 must stay within
    the sparsity strength lam2 or the density is -inf.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    V1 = np.asarray(V1, dtype=float)
    V2 = np.asarray(V2, dtype=float)
    lam2 = spec.hyper["lam2"]
    if V2.size and np.max(np.abs(V2)) > lam2:
        return -np.inf
    lam1 = float(np.linalg.norm(V1))
    gap = variational_nuclear_gap(A, B, V1 + V2, lam1, lam2)
    if np.isinf(gap):
        return -np.inf
    return -spec.alpha * gap + spec.kernel.log_density(A @ B.T + V1 + V2)


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
