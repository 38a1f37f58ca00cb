"""Duality-gap functions for projections and proximal mappings.

Each gap measures how far a primal/dual pair sits from the exact
projection: it is nonnegative by weak duality and zero exactly at the
optimum, where the dual point certifies optimality.  Variational forms
give tight tractable upper bounds when the conjugate itself is not
closed-form (additive penalties, nuclear norm).

Like the penalties, the gaps take stacks of cases along leading axes, with
per-case parameters (lam) as floats or arrays over the case axes; one case
gives a float and a stack an array of gaps.
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
    Sum,
    _case_param,
    _check_cases,
    _dot,
    _matvec,
    _per_entry,
    _result,
    conjugate_value,
    penalty_value,
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
]


@dataclass
class SimplexPoint:
    """Point on the probability simplex: nonnegative entries summing to 1
    (along the last axis, for each case of a stack)."""

    z: np.ndarray

    def __post_init__(self):
        self.z = np.atleast_1d(np.asarray(self.z, dtype=float))
        if np.any(self.z < -1e-12):
            raise ValueError("simplex point has a negative entry")
        if np.any(np.abs(np.sum(self.z, axis=-1) - 1.0) > 1e-12):
            raise ValueError("simplex point entries must sum to 1")


def as_simplex(x):
    """Validated simplex coordinates as a plain array."""
    if isinstance(x, SimplexPoint):
        return x.z
    return SimplexPoint(x).z


def _vectors(*xs):
    """Each argument as a float array with at least one (entry) axis."""
    return [np.atleast_1d(np.asarray(x, dtype=float)) for x in xs]


def fenchel_young_gap(spec, theta, u):
    """g*(u) + g(theta) - u^T theta, evaluated under beta = theta + u.

    Nonnegative for every (theta, u); +inf when u is conjugate-infeasible
    or theta falls outside an indicator set.
    """
    theta, u = _vectors(theta, u)
    if theta.shape != u.shape:
        raise DimensionError("theta and u differ in shape")
    gap = conjugate_value(spec, u) + penalty_value(spec, theta)
    return _result(gap - np.sum(u * theta, axis=spec.axes))


def proximal_duality_gap(spec, z, u, beta):
    """Primal proximal loss minus dual function at an arbitrary (z, u, beta).

    Equals fenchel_young_gap plus 0.5 * ||beta - z - u||^2; the quadratic
    term vanishes under the identification beta = z + u.
    """
    z, u, beta = _vectors(z, u, beta)
    slack = beta - z - u
    gap = fenchel_young_gap(spec, z, u)
    return _result(gap + 0.5 * np.sum(slack * slack, axis=spec.axes))


def l1_gap(lam, theta, u):
    """Gap sum_j (lam - |u_j|) |theta_j| for the l1 proximal mapping.

    Requires ||u||_inf <= lam and the sign convention u_j * theta_j >= 0;
    coordinates with theta_j exactly zero accept any feasible u_j (they
    contribute nothing).  Returns +inf when either condition fails.
    """
    theta, u = _vectors(theta, u)
    if theta.shape != u.shape:
        raise DimensionError("theta and u differ in shape")
    lam = _case_param(lam, "lam")
    _check_cases(theta.shape[:-1], lam)
    lam = _per_entry(lam)
    infeasible = np.any(np.abs(u) > lam, axis=-1) | np.any(
        (theta != 0.0) & (u * theta < 0.0), axis=-1
    )
    gap = np.sum((lam - np.abs(u)) * np.abs(theta), axis=-1)
    return _result(np.where(infeasible, np.inf, gap))


def _contrasts(D, theta, u):
    """D as a matrix and D theta for each case, after the shape checks."""
    D = np.atleast_2d(np.asarray(D, dtype=float))
    if theta.shape[-1] != D.shape[1]:
        raise DimensionError("theta does not match the columns of D")
    if u.shape[-1] != D.shape[0]:
        raise DimensionError("u does not match the rows of D")
    return D, _matvec(D, theta)


def generalized_l1_gap(D, lam, theta, u):
    """Gap sum_j (lam - |u_j|) |(D theta)_j| for g(z) = lam ||D z||_1.

    The dual point u lives in the contrast space (one entry per row of D);
    sign convention and feasibility mirror l1_gap, applied to D theta.
    """
    theta, u = _vectors(theta, u)
    return l1_gap(lam, _contrasts(D, theta, u)[1], u)


def generalized_l1_duality_gap(D, lam, z, u, beta):
    """Full primal-minus-dual gap for g(z) = lam ||D z||_1 at any (z, u, beta).

    lam ||Dz||_1 - u^T Dz + 0.5 ||z - (beta - D^T u)||^2 for ||u||_inf <= lam,
    +inf otherwise.  No sign convention: valid for every feasible u.
    """
    z, u, beta = _vectors(z, u, beta)
    D, d = _contrasts(D, z, u)
    lam = _case_param(lam, "lam")
    _check_cases(z.shape[:-1], lam)
    infeasible = np.any(np.abs(u) > _per_entry(lam), axis=-1)
    slack = z - (beta - _matvec(D.T, u))
    gap = (
        lam * np.sum(np.abs(d), axis=-1)
        - _dot(u, d)
        + 0.5 * _dot(slack, slack)
    )
    return _result(np.where(infeasible, np.inf, gap))


def kl_gap(beta, z, u, c0):
    """Gap of the KL projection onto C0 intersected with the simplex.

    KL(z, beta) + log(sum_j beta_j exp(-u_j)) + sigma_C0(u), where C0 is a
    Halfspace or ball indicator, whose conjugate is the support function
    sigma_C0; +inf when z falls outside C0.
    """
    beta = as_simplex(beta)
    z = as_simplex(z)
    (u,) = _vectors(u)
    if not (beta.shape == z.shape == u.shape):
        raise DimensionError("beta, z, u differ in shape")
    if np.any(beta <= 0.0):
        raise ValueError("beta must be strictly positive")

    if not isinstance(c0, (Halfspace, NormBall, GroupL2)):
        raise UnsupportedPenaltyError(f"unsupported constraint set {c0!r}")
    sigma = conjugate_value(c0, u)
    inside = np.isfinite(penalty_value(c0, z))

    with np.errstate(divide="ignore", invalid="ignore"):
        terms = z * np.log(z / beta)
    kl = np.sum(np.where(z > 0.0, terms, 0.0), axis=-1)
    # log-sum-exp of log(beta_j) - u_j, stabilized
    a = np.log(beta) - u
    amax = np.max(a, axis=-1, keepdims=True)
    lse = amax[..., 0] + np.log(np.sum(np.exp(a - amax), axis=-1))
    gap = np.where(inside & np.isfinite(sigma), kl + lse + sigma, np.inf)
    return _result(gap)


_SPLIT_TOL = 1e-10


def variational_additive_gap(parts, z, v, beta):
    """Variational gap sum_j g_j*(v_j) + g(z) - (sum_j v_j)^T z.

    parts are summand penalties with tractable conjugates; v holds one dual
    point per part.  Requires z = beta - sum_j v_j to per-coordinate
    tolerance _SPLIT_TOL (the splitting identity), in every case of a
    stack; dominates the Fenchel-Young gap of the Sum penalty at
    u = sum_j v_j.
    """
    z, beta = _vectors(z, beta)
    vs = [np.asarray(vj, dtype=float) for vj in v]
    if len(vs) != len(parts):
        raise DimensionError("one dual point per part required")
    if any(vj.shape != z.shape for vj in vs):
        raise DimensionError("dual point shape mismatch")
    v_total = sum(vs, np.zeros_like(z))
    deviation = np.max(np.abs(beta - v_total - z), initial=0.0)
    if deviation > _SPLIT_TOL:
        raise ContractViolationError(
            f"z != beta - sum(v) beyond tolerance {_SPLIT_TOL:g} "
            f"(max deviation {deviation:.3e})"
        )
    conj = sum(conjugate_value(part, vj) for part, vj in zip(parts, vs))
    g = penalty_value(Sum(tuple(parts)), z)
    return _result(conj + g - np.sum(v_total * z, axis=-1))


def variational_nuclear_gap(A, B, u, lam1, lam2):
    """Variational gap for the nuclear + elementwise-l1 proximal mapping.

    With theta = A B^T and the dual pair u = (V1, V2):
        lam1/2 (||A||_F^2 + ||B||_F^2) + lam2 ||theta||_1 - <V1 + V2, theta>.
    +inf off the feasible set: when an entry of |V2| exceeds lam2, or V1
    breaks the operator-norm bound lam1 (never under the lam1 = ||V1||_F
    coupling).  The factorization identity min 0.5(||A||^2 + ||B||^2)
    over A B^T = theta equals ||theta||_*, so this dominates the exact
    Fenchel-Young gap.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise DimensionError("A and B disagree on the factor rank")
    if len(u) != 2:
        raise DimensionError("u must be the dual pair (V1, V2)")
    V1, V2 = (np.asarray(v, dtype=float) for v in u)
    if V1.ndim != 2 or V1.shape != V2.shape:
        raise DimensionError("u must be the dual pair (V1, V2)")
    if V2.size and np.max(np.abs(V2)) > lam2 + 1e-12:
        return np.inf
    if conjugate_value(Nuclear(lam1, V1.shape), V1) == np.inf:
        return np.inf
    V = V1 + V2
    theta = A @ B.T
    if V.shape != theta.shape:
        raise DimensionError("dual matrix does not match A B^T")
    return (
        0.5 * lam1 * (float(np.sum(A * A)) + float(np.sum(B * B)))
        + lam2 * float(np.sum(np.abs(theta)))
        - float(np.sum(V * theta))
    )
