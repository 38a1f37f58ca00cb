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
from .oracles import _fused_admm, kl_project, project_l1_ball, soft_threshold, svt
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

# case counts, and the fused-ADMM tolerances of theorem 1 and zero gap
_NONNEG_CASES = 10_000
_THEOREM_CASES = 1000
_THM1_TOL = 1e-9
_ZERO_GAP_TOL = 1e-8


def _random_chain_diff(p):
    D = np.zeros((p - 1, p))
    idx = np.arange(p - 1)
    D[idx, idx] = 1.0
    D[idx, idx + 1] = -1.0
    return D


def _groups(rng, n, low, high):
    """Draw a size in [low, high) for each of n cases; (size, count) pairs
    for the sizes drawn, in increasing order."""
    counts = np.bincount(rng.integers(low, high, n), minlength=high)[low:]
    return [(low + i, int(c)) for i, c in enumerate(counts) if c]


def _n_of(n_cases, period, phase):
    """How many of the cases i < n_cases have i % period == phase."""
    return len(range(phase, n_cases, period))


def _shrink_into(norm, r, rng):
    """Per-case factors that scale a point of norm `norm` to a uniform
    0.2-1 fraction of radius r when it lies outside, and 1 otherwise."""
    frac = rng.uniform(0.2, 1.0, norm.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(norm > r, r / norm * frac, 1.0)


# Each nonnegativity kind draws m cases of size p and returns their gaps at
# feasible dual points.
def _nonneg_l1(rng, p, m):
    lam = rng.uniform(0.2, 2.5, m)
    theta = rng.normal(0, 2, (m, p))
    u = rng.uniform(-lam[:, None], lam[:, None], (m, p))
    return fenchel_young_gap(L1(lam), theta, u)


def _nonneg_gen_l1(rng, p, m):
    lam = rng.uniform(0.2, 2.5, m)
    theta = rng.normal(0, 2, (m, p))
    u = rng.uniform(-lam[:, None], lam[:, None], (m, p - 1))
    beta = rng.normal(0, 2, (m, p))
    return generalized_l1_duality_gap(_random_chain_diff(p), lam, theta, u, beta)


def _nonneg_ball(rng, p, m):
    gaps = []
    for t, tag in enumerate(("l1", "l2", "linf")):
        c = _n_of(m, 3, t)
        lam = rng.uniform(0.2, 2.5, c)
        theta = rng.normal(0, 1, (c, p))
        theta *= _shrink_into(_vector_norm(theta, tag), lam, rng)[:, None]
        u = rng.normal(0, 2, (c, p))
        gaps.append(fenchel_young_gap(NormBall(tag, lam), theta, u))
    return np.concatenate(gaps)


def _nonneg_group(rng, p, m):
    groups = ((0, 1), tuple(range(2, p)))
    radii = (rng.uniform(0.2, 2.5, m), rng.uniform(0.2, 2.5, m))
    theta = rng.normal(0, 1, (m, p))
    for g, r in zip(groups, radii):
        g = list(g)
        norm = np.linalg.norm(theta[:, g], axis=-1)
        theta[:, g] *= _shrink_into(norm, r, rng)[:, None]
    u = rng.normal(0, 2, (m, p))
    return fenchel_young_gap(GroupL2(groups, radii), theta, u)


def _nonneg_quad(rng, p, m):
    M = rng.normal(0, 1, (m, p, p))
    spec = Quadratic(M @ np.swapaxes(M, -1, -2) + 0.1 * np.eye(p))
    return fenchel_young_gap(spec, rng.normal(0, 2, (m, p)), rng.normal(0, 2, (m, p)))


def _nonneg_nuclear(rng, p, m):
    gaps = []
    for p2, c in _groups(rng, m, 2, 5):
        lam = rng.uniform(0.2, 2.5, c)
        theta = rng.normal(0, 1, (c, p, p2))
        u = rng.normal(0, 1, (c, p, p2))
        op = operator_norm(u)
        frac = rng.uniform(0.1, 1.0, c)
        with np.errstate(divide="ignore", invalid="ignore"):
            u *= np.where(op > 0, lam / op * frac, 1.0)[:, None, None]
        gaps.append(fenchel_young_gap(Nuclear(lam, (p, p2)), theta, u))
    return np.concatenate(gaps)


def _nonneg_sum(rng, p, m):
    b1 = NormBall("l1", rng.uniform(0.2, 2.5, m))
    b2 = NormBall("linf", rng.uniform(0.2, 2.5, m))
    theta = rng.normal(0, 1, (m, p))
    theta *= _shrink_into(_vector_norm(theta, "l1"), b1.radius, rng)[:, None]
    r2 = b2.radius[:, None]
    theta = np.clip(theta, -r2, r2)
    v = [rng.normal(0, 1, (m, p)), rng.normal(0, 1, (m, p))]
    beta = theta + v[0] + v[1]
    return variational_additive_gap([b1, b2], theta, v, beta)


def _nonneg_kl(rng, p, m):
    beta = rng.dirichlet(np.ones(p), m)
    beta = np.maximum(beta, 1e-9)
    beta /= beta.sum(axis=-1, keepdims=True)
    z = rng.dirichlet(np.ones(p), m)
    a = rng.normal(0, 1, (m, p))
    nu = rng.uniform(0, 2, m)
    hs = Halfspace(a, np.sum(a * z, axis=-1) + rng.uniform(0, 1, m))
    return kl_gap(beta, z, nu[:, None] * a, hs)


_NONNEG_KINDS = {
    "l1": _nonneg_l1,
    "gen_l1": _nonneg_gen_l1,
    "ball": _nonneg_ball,
    "group": _nonneg_group,
    "quad": _nonneg_quad,
    "nuclear": _nonneg_nuclear,
    "sum": _nonneg_sum,
    "kl": _nonneg_kl,
}


def check_gap_nonnegativity(seed=0):
    """Weak duality across penalty kinds: every gap at a feasible dual
    point must be nonnegative (within -1e-10).

    Case i is of kind i mod 8 with a size drawn in 2-6; each (kind, size)
    group is drawn and evaluated as one stack."""
    rng = stream(seed, 0, 0, _BLOCK)
    per_kind = {}
    for k, (kind, draw) in enumerate(_NONNEG_KINDS.items()):
        n = _n_of(_NONNEG_CASES, len(_NONNEG_KINDS), k)
        gaps = np.concatenate(
            [draw(rng, p, m) for p, m in _groups(rng, n, 2, 7)] or [np.empty(0)]
        )
        finite = gaps[np.isfinite(gaps)]
        if finite.size:
            per_kind[kind] = float(np.min(finite))
    return {
        "cases": _NONNEG_CASES,
        "min_gap": min(per_kind.values(), default=np.inf),
        "per_kind": per_kind,
    }


def check_theorem1(seed=0):
    """Distance-to-projection bound: || z - oracle || <= sqrt(2 gap) for
    random feasible perturbations of the oracle pair, both for the l1
    penalty (closed form, even i) and the fused penalty (ADMM oracle, odd
    i); each (penalty, size) group is one stack."""
    rng = stream(seed, 0, 1, _BLOCK)
    worst = -np.inf
    for fused in (False, True):
        for p, m in _groups(rng, _n_of(_THEOREM_CASES, 2, int(fused)), 2, 7):
            lam = rng.uniform(0.3, 2.0, m)
            beta = rng.normal(0, 2, (m, p))
            box = lam[:, None]
            if fused:
                D = _random_chain_diff(p)
                zhat, _, _, _, dual = _fused_admm(beta, D, lam, tol=_THM1_TOL)
                z = zhat + rng.normal(0, 0.3, (m, p))
                u = np.clip(dual + rng.normal(0, 0.2, (m, p - 1)), -box, box)
                gap = generalized_l1_duality_gap(D, lam, z, u, beta)
            else:
                zhat = soft_threshold(beta, lam)
                z = zhat + rng.normal(0, 0.3, (m, p))
                u = np.clip(beta - zhat + rng.normal(0, 0.2, (m, p)), -box, box)
                gap = proximal_duality_gap(L1(lam), z, u, beta)
            radius = np.sqrt(2.0 * np.maximum(gap, 0.0))
            dist = np.linalg.norm(z - zhat, axis=-1)
            worst = max(worst, float(np.max(dist - radius)))
    return {"cases": _THEOREM_CASES, "worst_violation": worst}


def check_theorem2(seed=0):
    """KL distance bound: KL(z, projection) <= kl gap for feasible z and
    dual points in the halfspace normal cone; each size is one stack."""
    rng = stream(seed, 0, 2, _BLOCK)
    worst = -np.inf
    for p, m in _groups(rng, _THEOREM_CASES, 2, 7):
        beta = rng.dirichlet(np.full(p, 2.0), m)
        beta = np.maximum(beta, 1e-6)
        beta /= beta.sum(axis=-1, keepdims=True)
        a = rng.normal(0, 1, (m, p))
        amin = np.min(a, axis=-1)
        span = np.sum(a * beta, axis=-1) - amin
        b = amin + rng.uniform(0.05, 1.2, m) * np.maximum(span, 1e-9)
        zhat = kl_project(beta, a, b, tol=1e-13).z
        t = rng.uniform(0.0, 1.0, m)[:, None]
        vertex = np.zeros((m, p))
        vertex[np.arange(m), np.argmin(a, axis=-1)] = 1.0
        z = t * zhat + (1.0 - t) * vertex
        nu = rng.uniform(0.0, 3.0, m)
        gap = kl_gap(beta, z, nu[:, None] * a, Halfspace(a, b))
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = z * np.log(z / zhat)
        kl = np.sum(np.where(z > 0, terms, 0.0), axis=-1)
        worst = max(worst, float(np.max(kl - gap)))
    return {"cases": _THEOREM_CASES, "worst_violation": worst}


def _zero_gaps(rng, mode, p, m):
    """Gaps at the oracle optima of m cases of size p in one mode."""
    lam = rng.uniform(0.3, 2.0, m)
    if mode == 2:
        gaps = []
        for p2, c in _groups(rng, m, 2, 5):
            lam_c, lam = lam[:c], lam[c:]
            M = rng.normal(0, 1.5, (c, p, p2))
            zhat = svt(M, lam_c)
            gaps.append(fenchel_young_gap(Nuclear(lam_c, (p, p2)), zhat, M - zhat))
        return np.concatenate(gaps)
    beta = rng.normal(0, 2, (m, p))
    if mode == 0:
        zhat = soft_threshold(beta, lam)
        box = lam[:, None]
        return l1_gap(lam, zhat, np.clip(beta - zhat, -box, box))
    if mode == 1:
        zhat = project_l1_ball(beta, lam)
        return fenchel_young_gap(NormBall("l1", lam), zhat, beta - zhat)
    D = _random_chain_diff(p)
    zhat, _, _, _, dual = _fused_admm(beta, D, lam, tol=_ZERO_GAP_TOL)
    return generalized_l1_gap(D, lam, zhat, dual)


def check_zero_gap(seed=0):
    """Gap at oracle optima: exactly solvable projections certify
    themselves to 1e-8, the ADMM fused oracle to 10x its tolerance.

    Case i runs mode i mod 4 (soft threshold, l1 ball, singular-value
    threshold, fused ADMM); each (mode, size) group is one stack."""
    rng = stream(seed, 0, 3, _BLOCK)
    worst = [0.0] * 4
    for mode in range(4):
        for p, m in _groups(rng, _n_of(_THEOREM_CASES, 4, mode), 2, 7):
            gaps = _zero_gaps(rng, mode, p, m)
            worst[mode] = max(worst[mode], float(np.max(gaps)))
    return {
        "cases": _THEOREM_CASES,
        "worst_closed_form": max(worst[:3]),
        "worst_admm": worst[3],
        "admm_tol": _ZERO_GAP_TOL,
    }


def run_gap_check(limits, seed=0):
    """Run all four suites; returns their reports plus an overall verdict
    against limits, the gap_check entries of data/thresholds.json."""
    nonneg = check_gap_nonnegativity(seed)
    thm1 = check_theorem1(seed)
    thm2 = check_theorem2(seed)
    zero = check_zero_gap(seed)
    passed = (
        nonneg["min_gap"] >= limits["min_gap"]
        and thm1["worst_violation"] <= limits["theorem1_slack"]
        and thm2["worst_violation"] <= limits["theorem2_slack"]
        and zero["worst_closed_form"] <= limits["zero_gap_closed_form"]
        and zero["worst_admm"]
        <= limits["zero_gap_admm_tol_multiple"] * zero["admm_tol"]
    )
    return {
        "nonnegativity": nonneg,
        "theorem1": thm1,
        "theorem2": thm2,
        "zero_gap": zero,
        "passed": bool(passed),
    }
