"""Randomized certification suites tying the gap functions to the oracles.

Each suite draws random instances, evaluates a gap, and checks the bound it
is supposed to satisfy: weak-duality nonnegativity, the strong-convexity
distance bound, the Bregman (KL) distance bound, and zero gap at oracle
optima.  The suites return their worst observed violations so callers can
gate on them.
"""

from __future__ import annotations

import numpy as np

from .gaps import (
    fenchel_young_gap,
    generalized_l1_duality_gap,
    generalized_l1_gap,
    kl_gap,
    l1_gap,
    proximal_duality_gap,
    variational_additive_gap,
)
from .oracles import kl_project, project_l1_ball, prox_fused, soft_threshold, svt
from .penalties import (
    GroupL2,
    Halfspace,
    L1,
    NormBall,
    Nuclear,
    Quadratic,
    _vector_norm,
    operator_norm,
)
from .rng import stream

__all__ = [
    "check_gap_nonnegativity",
    "check_theorem1",
    "check_theorem2",
    "check_zero_gap",
    "run_gap_check",
]

_BLOCK = 7777


def _random_chain_diff(p):
    D = np.zeros((p - 1, p))
    idx = np.arange(p - 1)
    D[idx, idx] = 1.0
    D[idx, idx + 1] = -1.0
    return D


def check_gap_nonnegativity(n_cases=10_000, seed=0):
    """Weak duality across penalty kinds: every gap at a feasible dual
    point must be nonnegative (within -1e-10)."""
    rng = stream(seed, 0, 0, _BLOCK)
    kinds = ("l1", "gen_l1", "ball", "group", "quad", "nuclear", "sum", "kl")
    min_gap = np.inf
    per_kind = {}
    for i in range(n_cases):
        kind = kinds[i % len(kinds)]
        p = int(rng.integers(2, 7))
        lam = float(rng.uniform(0.2, 2.5))
        if kind == "l1":
            theta = rng.normal(0, 2, p)
            u = rng.uniform(-lam, lam, p)
            gap = fenchel_young_gap(L1(lam), theta, u)
        elif kind == "gen_l1":
            D = _random_chain_diff(p)
            theta = rng.normal(0, 2, p)
            u = rng.uniform(-lam, lam, p - 1)
            beta = rng.normal(0, 2, p)
            gap = generalized_l1_duality_gap(D, lam, theta, u, beta)
        elif kind == "ball":
            tag = ("l1", "l2", "linf")[i % 3]
            ball = NormBall(tag, lam)
            theta = rng.normal(0, 1, p)
            norm = _vector_norm(theta, tag)
            if norm > lam:
                theta *= lam / norm * rng.uniform(0.2, 1.0)
            u = rng.normal(0, 2, p)
            gap = fenchel_young_gap(ball, theta, u)
        elif kind == "group":
            groups = ((0, 1), tuple(range(2, p)))
            radii = (lam, float(rng.uniform(0.2, 2.5)))
            spec = GroupL2(groups, radii)
            theta = rng.normal(0, 1, p)
            for g, r in zip(groups, radii):
                gnorm = np.linalg.norm(theta[list(g)])
                if gnorm > r:
                    theta[list(g)] *= r / gnorm * rng.uniform(0.2, 1.0)
            u = rng.normal(0, 2, p)
            gap = fenchel_young_gap(spec, theta, u)
        elif kind == "quad":
            M = rng.normal(0, 1, (p, p))
            spec = Quadratic(M @ M.T + 0.1 * np.eye(p))
            gap = fenchel_young_gap(spec, rng.normal(0, 2, p), rng.normal(0, 2, p))
        elif kind == "nuclear":
            p2 = int(rng.integers(2, 5))
            theta = rng.normal(0, 1, (p, p2))
            u = rng.normal(0, 1, (p, p2))
            op = operator_norm(u)
            if op > 0:
                u *= lam / op * rng.uniform(0.1, 1.0)
            gap = fenchel_young_gap(Nuclear(lam, (p, p2)), theta, u)
        elif kind == "sum":
            b1 = NormBall("l1", lam)
            b2 = NormBall("linf", float(rng.uniform(0.2, 2.5)))
            theta = rng.normal(0, 1, p)
            s1 = np.sum(np.abs(theta))
            if s1 > lam:
                theta *= lam / s1 * rng.uniform(0.2, 1.0)
            theta = np.clip(theta, -b2.radius, b2.radius)
            v = [rng.normal(0, 1, p), rng.normal(0, 1, p)]
            beta = theta + v[0] + v[1]
            gap = variational_additive_gap([b1, b2], theta, v, beta)
        else:
            beta = rng.dirichlet(np.ones(p))
            beta = np.maximum(beta, 1e-9)
            beta /= beta.sum()
            z = rng.dirichlet(np.ones(p))
            a = rng.normal(0, 1, p)
            nu = float(rng.uniform(0, 2))
            hs = Halfspace(a, float(a @ z) + rng.uniform(0, 1))
            gap = kl_gap(beta, z, nu * a, hs)
        gap = float(gap)
        if np.isfinite(gap):
            min_gap = min(min_gap, gap)
            per_kind[kind] = min(per_kind.get(kind, np.inf), gap)
    return {"cases": n_cases, "min_gap": min_gap, "per_kind": per_kind}


def check_theorem1(n_cases=1000, seed=0, admm_tol=1e-9):
    """Distance-to-projection bound: || z - oracle || <= sqrt(2 gap) for
    random feasible perturbations of the oracle pair, both for the l1
    penalty (closed form) and the fused penalty (ADMM oracle)."""
    rng = stream(seed, 0, 1, _BLOCK)
    worst = -np.inf
    for i in range(n_cases):
        p = int(rng.integers(2, 7))
        lam = float(rng.uniform(0.3, 2.0))
        beta = rng.normal(0, 2, p)
        if i % 2 == 0:
            zhat = soft_threshold(beta, lam)
            z = zhat + rng.normal(0, 0.3, p)
            u = np.clip(beta - zhat + rng.normal(0, 0.2, p), -lam, lam)
            gap = proximal_duality_gap(L1(lam), z, u, beta)
        else:
            D = _random_chain_diff(p)
            res = prox_fused(beta, D, lam, tol=admm_tol)
            zhat = res.solution
            z = zhat + rng.normal(0, 0.3, p)
            u = np.clip(res.dual + rng.normal(0, 0.2, p - 1), -lam, lam)
            gap = generalized_l1_duality_gap(D, lam, z, u, beta)
        dist = float(np.linalg.norm(z - zhat))
        worst = max(worst, dist - np.sqrt(2.0 * max(gap, 0.0)))
    return {"cases": n_cases, "worst_violation": worst}


def check_theorem2(n_cases=1000, seed=0):
    """KL distance bound: KL(z, projection) <= kl gap for feasible z and
    dual points in the halfspace normal cone."""
    rng = stream(seed, 0, 2, _BLOCK)
    worst = -np.inf
    for _ in range(n_cases):
        p = int(rng.integers(2, 7))
        beta = rng.dirichlet(np.full(p, 2.0))
        beta = np.maximum(beta, 1e-6)
        beta /= beta.sum()
        a = rng.normal(0, 1, p)
        amin = float(np.min(a))
        span = float(a @ beta) - amin
        b = amin + float(rng.uniform(0.05, 1.2)) * max(span, 1e-9)
        zhat = kl_project(beta, a, b, tol=1e-13).z
        t = float(rng.uniform(0.0, 1.0))
        vertex = np.zeros(p)
        vertex[int(np.argmin(a))] = 1.0
        z = t * zhat + (1.0 - t) * vertex
        nu = float(rng.uniform(0.0, 3.0))
        gap = kl_gap(beta, z, nu * a, Halfspace(a, b))
        mask = z > 0
        kl = float(np.sum(z[mask] * np.log(z[mask] / zhat[mask])))
        worst = max(worst, kl - float(gap))
    return {"cases": n_cases, "worst_violation": worst}


def check_zero_gap(n_cases=1000, seed=0, admm_tol=1e-8):
    """Gap at oracle optima: exactly solvable projections certify
    themselves to 1e-8, the ADMM fused oracle to 10x its tolerance."""
    rng = stream(seed, 0, 3, _BLOCK)
    worst_closed = 0.0
    worst_admm = 0.0
    for i in range(n_cases):
        p = int(rng.integers(2, 7))
        lam = float(rng.uniform(0.3, 2.0))
        beta = rng.normal(0, 2, p)
        mode = i % 4
        if mode == 0:
            zhat = soft_threshold(beta, lam)
            u = np.clip(beta - zhat, -lam, lam)
            worst_closed = max(worst_closed, float(l1_gap(lam, zhat, u)))
        elif mode == 1:
            ball = NormBall("l1", lam)
            zhat = project_l1_ball(beta, lam)
            u = beta - zhat
            worst_closed = max(
                worst_closed, float(fenchel_young_gap(ball, zhat, u))
            )
        elif mode == 2:
            p2 = int(rng.integers(2, 5))
            M = rng.normal(0, 1.5, (p, p2))
            zhat = svt(M, lam)
            u = M - zhat
            gap = fenchel_young_gap(Nuclear(lam, (p, p2)), zhat, u)
            worst_closed = max(worst_closed, float(gap))
        else:
            D = _random_chain_diff(p)
            res = prox_fused(beta, D, lam, tol=admm_tol)
            gap = generalized_l1_gap(D, lam, res.solution, res.dual)
            worst_admm = max(worst_admm, float(gap))
    return {
        "cases": n_cases,
        "worst_closed_form": worst_closed,
        "worst_admm": worst_admm,
        "admm_tol": admm_tol,
    }


def run_gap_check(limits, seed=0, n_nonneg=10_000, n_thm=1000, admm_tol=1e-8):
    """Run all four suites; returns their reports plus an overall verdict
    against limits, the gap_check entries of data/thresholds.json."""
    nonneg = check_gap_nonnegativity(n_nonneg, seed)
    thm1 = check_theorem1(n_thm, seed, admm_tol=1e-9)
    thm2 = check_theorem2(n_thm, seed)
    zero = check_zero_gap(n_thm, seed, admm_tol=admm_tol)
    passed = (
        nonneg["min_gap"] >= limits["min_gap"]
        and thm1["worst_violation"] <= limits["theorem1_slack"]
        and thm2["worst_violation"] <= limits["theorem2_slack"]
        and zero["worst_closed_form"] <= limits["zero_gap_closed_form"]
        and zero["worst_admm"] <= limits["zero_gap_admm_tol_multiple"] * admm_tol
    )
    return {
        "nonnegativity": nonneg,
        "theorem1": thm1,
        "theorem2": thm2,
        "zero_gap": zero,
        "passed": bool(passed),
    }
