"""Duality-gap functions for projections and proximal mappings.

Each gap measures how far a primal/dual pair sits from the exact
projection: it is nonnegative by weak duality and zero exactly at the
optimum, where the dual point certifies optimality.  Variational forms
give tight tractable upper bounds when the conjugate itself is not
closed-form (additive penalties, nuclear norm).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DimensionError, UnsupportedPenaltyError
from .penalties import (
    GroupL2,
    Halfspace,
    NormBall,
    Nuclear,
    Quadratic,
    Sum,
    conjugate_value,
    halfspace_support,
    operator_norm,
    penalty_value,
    support_function,
)

__all__ = [
    "SimplexPoint",
    "fenchel_young_gap",
    "proximal_duality_gap",
    "l1_gap",
    "generalized_l1_gap",
    "generalized_l1_duality_gap",
    "kl_gap",
    "variational_additive_gap",
    "variational_nuclear_gap",
    "strong_convexity_radius",
    "hessian_block",
]


@dataclass
class SimplexPoint:
    """Point on the probability simplex: nonnegative entries summing to 1."""

    z: np.ndarray

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=float).ravel()
        if np.any(self.z < -1e-12):
            raise ValueError("simplex point has a negative entry")
        if abs(float(np.sum(self.z)) - 1.0) > 1e-12:
            raise ValueError("simplex point entries must sum to 1")


def as_simplex(x):
    """Validated simplex coordinates as a plain array."""
    if isinstance(x, SimplexPoint):
        return x.z
    return SimplexPoint(x).z


def fenchel_young_gap(spec, theta, u):
    """g*(u) + g(theta) - u^T theta, evaluated under beta = theta + u.

    Nonnegative for every (theta, u); +inf when u is conjugate-infeasible
    or theta falls outside an indicator set.
    """
    theta = np.asarray(theta, dtype=float)
    u = np.asarray(u, dtype=float)
    if theta.shape != u.shape:
        raise DimensionError("theta and u differ in shape")
    conj = conjugate_value(spec, u)
    if np.isinf(conj):
        return np.inf
    val = penalty_value(spec, theta)
    if np.isinf(val):
        return np.inf
    return conj + val - float(np.sum(u * theta))


def proximal_duality_gap(spec, z, u, beta):
    """Primal proximal loss minus dual function at an arbitrary (z, u, beta).

    Equals fenchel_young_gap plus 0.5 * ||beta - z - u||^2; the quadratic
    term vanishes under the identification beta = z + u.
    """
    z = np.asarray(z, dtype=float)
    u = np.asarray(u, dtype=float)
    beta = np.asarray(beta, dtype=float)
    base = fenchel_young_gap(spec, z, u)
    if np.isinf(base):
        return np.inf
    slack = beta - z - u
    return base + 0.5 * float(np.sum(slack * slack))


def l1_gap(lam, theta, u):
    """Gap sum_j (lam - |u_j|) |theta_j| for the l1 proximal mapping.

    Requires ||u||_inf <= lam and the sign convention u_j * theta_j >= 0;
    coordinates with theta_j exactly zero accept any feasible u_j (they
    contribute nothing).  Returns +inf when either condition fails.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    if theta.shape != u.shape:
        raise DimensionError("theta and u differ in shape")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if u.size and np.max(np.abs(u)) > lam:
        return np.inf
    if np.any((theta != 0.0) & (u * theta < 0.0)):
        return np.inf
    return float(np.sum((lam - np.abs(u)) * np.abs(theta)))


def generalized_l1_gap(D, lam, theta, u):
    """Gap sum_j (lam - |u_j|) |(D theta)_j| for g(z) = lam ||D z||_1.

    The dual point u lives in the contrast space (one entry per row of D);
    sign convention and feasibility mirror l1_gap, applied to D theta.
    """
    D = np.atleast_2d(np.asarray(D, dtype=float))
    theta = np.asarray(theta, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    if theta.size != D.shape[1]:
        raise DimensionError("theta does not match the columns of D")
    if u.size != D.shape[0]:
        raise DimensionError("u does not match the rows of D")
    return l1_gap(lam, D @ theta, u)


def generalized_l1_duality_gap(D, lam, z, u, beta):
    """Full primal-minus-dual gap for g(z) = lam ||D z||_1 at any (z, u, beta).

    lam ||Dz||_1 - u^T Dz + 0.5 ||z - (beta - D^T u)||^2 for ||u||_inf <= lam,
    +inf otherwise.  No sign convention: valid for every feasible u.
    """
    D = np.atleast_2d(np.asarray(D, dtype=float))
    z = np.asarray(z, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    beta = np.asarray(beta, dtype=float).ravel()
    if u.size and np.max(np.abs(u)) > lam:
        return np.inf
    d = D @ z
    slack = z - (beta - D.T @ u)
    return (
        lam * float(np.sum(np.abs(d)))
        - float(u @ d)
        + 0.5 * float(slack @ slack)
    )


def kl_gap(beta, z, u, c0="free"):
    """Gap of the KL projection onto C0 intersected with the simplex.

    KL(z, beta) + log(sum_j beta_j exp(-u_j)) + sigma_C0(u), where the
    support term comes from the constraint set: "free" means the whole
    space (finite only at u = 0), otherwise a Halfspace or ball indicator.
    """
    beta = as_simplex(beta)
    z = as_simplex(z)
    u = np.asarray(u, dtype=float).ravel()
    if not (beta.shape == z.shape == u.shape):
        raise DimensionError("beta, z, u differ in shape")
    if np.any(beta <= 0.0):
        raise ValueError("beta must be strictly positive")

    if c0 == "free":
        sigma = 0.0 if not np.any(u) else np.inf
        inside = True
    elif isinstance(c0, Halfspace):
        sigma = halfspace_support(c0, u)
        inside = float(c0.a @ z) <= c0.b + 1e-10
    elif isinstance(c0, (NormBall, GroupL2)):
        sigma = support_function(c0, u)
        inside = np.isfinite(penalty_value(c0, z))
    else:
        raise UnsupportedPenaltyError(f"unsupported constraint set {c0!r}")

    if not inside or np.isinf(sigma):
        return np.inf

    mask = z > 0.0
    kl = float(np.sum(z[mask] * np.log(z[mask] / beta[mask])))
    # log-sum-exp of log(beta_j) - u_j, stabilized
    a = np.log(beta) - u
    amax = float(np.max(a))
    lse = amax + float(np.log(np.sum(np.exp(a - amax))))
    return kl + lse + sigma


def variational_additive_gap(parts, z, v, beta, tol=1e-10):
    """Variational gap sum_j g_j*(v_j) + g(z) - (sum_j v_j)^T z.

    parts are summand penalties with tractable conjugates; v holds one dual
    point per part.  Requires z = beta - sum_j v_j to per-coordinate
    tolerance (the splitting identity); dominates the Fenchel-Young gap of
    the Sum penalty at u = sum_j v_j.
    """
    z = np.asarray(z, dtype=float)
    beta = np.asarray(beta, dtype=float)
    vs = [np.asarray(vj, dtype=float) for vj in v]
    if len(vs) != len(parts):
        raise DimensionError("one dual point per part required")
    v_total = np.zeros_like(z)
    for vj in vs:
        if vj.shape != z.shape:
            raise DimensionError("dual point shape mismatch")
        v_total = v_total + vj
    slack = beta - v_total - z
    if np.max(np.abs(slack), initial=0.0) > tol:
        raise ContractViolationError(
            f"z != beta - sum(v) beyond tolerance {tol:g} "
            f"(max deviation {np.max(np.abs(slack)):.3e})"
        )
    total = 0.0
    for part, vj in zip(parts, vs):
        c = conjugate_value(part, vj)
        if np.isinf(c):
            return np.inf
        total += c
    g = penalty_value(Sum(tuple(parts)), z)
    if np.isinf(g):
        return np.inf
    return total + g - float(np.sum(v_total * z))


def variational_nuclear_gap(A, B, u, lam1, lam2):
    """Variational gap for the nuclear + elementwise-l1 proximal mapping.

    With theta = A B^T:
        lam1/2 (||A||_F^2 + ||B||_F^2) + lam2 ||theta||_1 - <V1 + V2, theta>.
    u may be the summed dual V1 + V2 or the pair (V1, V2); when the pair is
    given, |V2| entries must not exceed lam2 and V1 must satisfy the
    operator-norm bound (automatic under the lam1 = ||V1||_F coupling).
    The factorization identity min 0.5(||A||^2 + ||B||^2) over A B^T = theta
    equals ||theta||_*, so this dominates the exact Fenchel-Young gap.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise DimensionError("A and B disagree on the factor rank")
    if isinstance(u, tuple):
        V1 = np.asarray(u[0], dtype=float)
        V2 = np.asarray(u[1], dtype=float)
        if V2.size and np.max(np.abs(V2)) > lam2 + 1e-12:
            return np.inf
        if operator_norm(V1) > lam1 + 1e-8 * max(1.0, lam1):
            return np.inf
        V = V1 + V2
    else:
        V = np.asarray(u, dtype=float)
    theta = A @ B.T
    if V.shape != theta.shape:
        raise DimensionError("dual matrix does not match A B^T")
    return (
        0.5 * lam1 * (float(np.sum(A * A)) + float(np.sum(B * B)))
        + lam2 * float(np.sum(np.abs(theta)))
        - float(np.sum(V * theta))
    )


def strong_convexity_radius(gap, mu):
    """Distance bound sqrt(2 * gap / mu) from a mu-strongly-convex loss.

    For proximal mappings mu = 1.  A gap more negative than -1e-12 means
    the caller fed an invalid pair and is rejected.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if gap < -1e-12:
        raise ContractViolationError(f"negative gap {gap:.3e}")
    return float(np.sqrt(2.0 * max(gap, 0.0) / mu))


def hessian_block(spec, theta, u, alpha):
    """Primal-dual curvature block of the gap term for a smooth penalty.

    Returns (H, min_eigenvalue) with H = alpha * [[H_g, -I], [-I, H_g*]],
    the Hessian contribution of alpha * (g(theta) + g*(u) - u^T theta).
    Near the optimum H_g(theta) H_g*(u) approaches I and the block becomes
    singular, which is the near-degeneracy this diagnostic surfaces.
    Only twice-differentiable penalties (Quadratic) are supported.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not isinstance(spec, Quadratic):
        raise UnsupportedPenaltyError("hessian_block needs a smooth penalty")
    p = spec.Q.shape[0]
    eye = np.eye(p)
    hess_conj = np.linalg.inv(spec.Q)
    top = np.hstack([spec.Q, -eye])
    bottom = np.hstack([-eye, hess_conj])
    block = alpha * np.vstack([top, bottom])
    return block, float(np.linalg.eigvalsh(block)[0])
