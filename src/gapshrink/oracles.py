"""Reference solvers for projections and proximal mappings.

These are the certification oracles: exact or high-accuracy solutions used
to validate the gap bounds and the samplers.  They are deliberately never
called inside Gibbs updates; the point of the gap machinery is that the
sampler runs without an inner optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    InfeasibleError,
    UnsupportedPenaltyError,
)
from .gaps import as_simplex, SimplexPoint
from .penalties import (
    GeneralizedL1,
    GroupL2,
    L1,
    NormBall,
    Quadratic,
    Sum,
)

__all__ = [
    "OracleResult",
    "soft_threshold",
    "project_l1_ball",
    "prox_fused",
    "svt",
    "kl_project",
    "brute_force_prox",
]


@dataclass
class OracleResult:
    """Solver output: solution, objective, iteration count, final residual.

    dual carries the recovered dual certificate when the solver produces
    one (the ADMM multiplier for prox_fused).
    """

    solution: np.ndarray
    objective: float
    iterations: int
    residual: float
    dual: np.ndarray | None = None


def soft_threshold(beta, lam):
    """Elementwise sign(beta) * (|beta| - lam)_+, the l1 proximal mapping."""
    beta = np.asarray(beta, dtype=float)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return np.sign(beta) * np.maximum(np.abs(beta) - lam, 0.0)


def project_l1_ball(beta, r):
    """Euclidean projection onto {z : ||z||_1 <= r} by sort and threshold."""
    beta = np.asarray(beta, dtype=float)
    if r <= 0:
        raise ValueError("radius must be positive")
    a = np.abs(beta)
    if a.sum() <= r:
        return beta.copy()
    # descending sort; ties broken by index order, result is tie-invariant
    s = np.sort(a)[::-1]
    css = np.cumsum(s)
    j = np.arange(1, a.size + 1)
    rho = np.max(np.nonzero(s - (css - r) / j > 0)[0]) + 1
    tau = (css[rho - 1] - r) / rho
    return np.sign(beta) * np.maximum(a - tau, 0.0)


def prox_fused(beta, D, lam, tol=1e-8, max_iter=100_000):
    """ADMM solve of min_z 0.5 ||z - beta||^2 + lam ||D z||_1.

    Splits D z = w with scaled dual y; the penalty parameter starts at 1.0
    and is rebalanced (x2 / /2) whenever one residual exceeds the other
    tenfold.  The z-update's system I + rho D'D is inverted once per value
    of rho (Boyd et al. 2011, sec. 4.2), so each iteration applies it with
    one matrix-vector product.  Stops when max(primal, dual residual) <=
    tol; raises after max_iter with the last residual attached.

    The returned dual lives in the contrast space, clipped to [-lam, lam]
    and sign-aligned with D z so the gap certificate is exactly feasible.
    """
    beta = np.asarray(beta, dtype=float).ravel()
    D = np.atleast_2d(np.asarray(D, dtype=float))
    if tol <= 0:
        raise ValueError("tol must be positive")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if D.shape[1] != beta.size:
        raise DimensionError(
            f"D has {D.shape[1]} columns but beta has {beta.size} entries"
        )
    if lam == 0.0:
        return OracleResult(beta.copy(), 0.0, 0, 0.0, np.zeros(D.shape[0]))

    p = beta.size
    d = D.shape[0]
    rho = 1.0
    Dt = D.T
    DtD = Dt @ D
    eye = np.eye(p)

    def factor(rho):
        # z = inv (beta + rho D'(w - y)) = z_beta + G (w - y)
        inv = np.linalg.inv(eye + rho * DtD)
        return inv @ beta, rho * (inv @ Dt)

    z_beta, G = factor(rho)
    z = beta.copy()
    w = D @ z
    y = np.zeros(d)

    res = np.inf
    for it in range(1, max_iter + 1):
        z = z_beta + G @ (w - y)
        Dz = D @ z
        w_old = w
        arg = Dz + y
        w = np.sign(arg) * np.maximum(np.abs(arg) - lam / rho, 0.0)
        y = y + Dz - w
        r = Dz - w
        s = Dt @ (w - w_old)
        r_primal = math.sqrt(r @ r)
        r_dual = rho * math.sqrt(s @ s)
        res = max(r_primal, r_dual)
        if res <= tol:
            # also require the gap certificate promised at exit
            u_try = np.clip(rho * y, -lam, lam)
            cert = float(np.sum((lam - np.abs(u_try)) * np.abs(Dz)))
            if cert <= 5.0 * tol:
                break
        if r_primal > 10.0 * r_dual:
            rho *= 2.0
            y /= 2.0
            z_beta, G = factor(rho)
        elif r_dual > 10.0 * r_primal:
            rho /= 2.0
            y *= 2.0
            z_beta, G = factor(rho)
    else:
        raise ConvergenceError(
            f"ADMM did not reach tol={tol:g} in {max_iter} iterations",
            residual=res,
            iterations=max_iter,
        )

    u = np.clip(rho * y, -lam, lam)
    Dz = D @ z
    # sign-align the certificate with every nonzero contrast (fused
    # contrasts converge to ~0 but not exactly); the gap value only sees
    # |u|, so alignment never weakens the certificate
    nonzero = Dz != 0.0
    u[nonzero] = np.sign(Dz[nonzero]) * np.abs(u[nonzero])
    objective = 0.5 * float(np.sum((z - beta) ** 2)) + lam * float(
        np.sum(np.abs(Dz))
    )
    return OracleResult(z, objective, it, res, u)


def svt(beta, lam):
    """Singular-value soft-thresholding, the nuclear-norm proximal mapping."""
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    U, s, Vt = np.linalg.svd(beta, full_matrices=False)
    return (U * np.maximum(s - lam, 0.0)) @ Vt


def kl_project(beta, a, b, tol=1e-12, max_iter=200):
    """KL projection of beta onto {z : a^T z <= b} within the simplex.

    The projection is the exponential tilt z_j proportional to
    beta_j * exp(-nu * a_j) with multiplier nu >= 0, the root of
    h(nu) = a^T z(nu) - b.  h decreases with slope -Var_z(a); nu is found
    by Newton steps kept inside a bracket [lo, hi] with h(lo) > 0 >= h(hi),
    bisecting whenever a step would leave it.  It returns once the
    complementary-slackness residual |nu * h| is below tol on the feasible
    side (h <= 1e-12), or, when float resolution keeps the residual above
    tol, once the bracket has shrunk to adjacent floats (the feasible end
    is returned).  Raises ConvergenceError after max_iter steps.
    """
    beta = as_simplex(beta)
    if np.any(beta <= 0.0):
        raise ValueError("beta must be strictly positive")
    a = np.asarray(a, dtype=float).ravel()
    b = float(b)
    if a.shape != beta.shape:
        raise ValueError("constraint vector does not match beta")
    log_beta = np.log(beta)

    def tilt(nu):
        logz = log_beta - nu * a
        logz -= np.max(logz)
        z = np.exp(logz)
        return z / z.sum()

    if float(a @ beta) <= b:
        return SimplexPoint(beta.copy())

    # a^T tilt(nu) decreases to min(a_j); below that the set is empty
    if b < float(np.min(a)) - 1e-14:
        raise InfeasibleError(
            f"halfspace a^T z <= {b:g} misses the simplex (min a = {np.min(a):g})"
        )

    lo, hi = 0.0, 1.0
    for _ in range(200):
        z = tilt(hi)
        if float(a @ z) <= b:
            break
        hi *= 2.0
    else:
        raise InfeasibleError("constraint not attainable by exponential tilt")

    nu = hi
    for _ in range(max_iter):
        az = float(a @ z)
        h = az - b
        residual = abs(nu * h)
        if residual <= tol and h <= 1e-12:
            return SimplexPoint(z)
        if h > 0:
            lo = nu
        else:
            hi = nu
        # Newton step on h, whose slope is -Var_z(a); a flat h gives no
        # step, and a step outside (lo, hi) bisects instead
        c = a - az
        var = float(z @ (c * c))
        newton = nu + h / var if var > 0.0 else hi
        if lo < newton < hi:
            nu = newton
        else:
            nu = 0.5 * (lo + hi)
            if not lo < nu < hi:
                # lo and hi are adjacent floats: |nu * h| <= tol is out of
                # reach, and hi is the feasible end
                return SimplexPoint(tilt(hi))
        z = tilt(nu)
    raise ConvergenceError(
        f"KL projection did not reach tol={tol:g} in {max_iter} steps",
        residual=residual,
        iterations=max_iter,
    )


_GRID_SUPPORTED = (L1, GeneralizedL1, NormBall, GroupL2, Quadratic, Sum)


def _grid_penalty(spec, Z):
    """Penalty values for a batch of points (rows of Z).

    Independent re-derivation of each penalty used only by the brute-force
    oracle, so grid certification does not share code with penalty_value.
    """
    Z = np.atleast_2d(Z)
    if isinstance(spec, L1):
        return spec.lam * np.sum(np.abs(Z), axis=1)
    if isinstance(spec, GeneralizedL1):
        return spec.lam * np.sum(np.abs(Z @ spec.D.T), axis=1)
    if isinstance(spec, NormBall):
        if spec.norm == "l1":
            norms = np.sum(np.abs(Z), axis=1)
        elif spec.norm == "l2":
            norms = np.sqrt(np.sum(Z * Z, axis=1))
        else:
            norms = np.max(np.abs(Z), axis=1)
        return np.where(norms <= spec.radius + 1e-12, 0.0, np.inf)
    if isinstance(spec, GroupL2):
        out = np.zeros(Z.shape[0])
        for g, r in zip(spec.groups, spec.radii):
            norms = np.sqrt(np.sum(Z[:, list(g)] ** 2, axis=1))
            out = np.where(norms <= r + 1e-12, out, np.inf)
        return out
    if isinstance(spec, Quadratic):
        return 0.5 * np.einsum("ij,jk,ik->i", Z, spec.Q, Z)
    if isinstance(spec, Sum):
        out = np.zeros(Z.shape[0])
        for part in spec.parts:
            out = out + _grid_penalty(part, Z)
        return out
    raise UnsupportedPenaltyError(
        f"brute_force_prox does not handle {type(spec).__name__}"
    )


def brute_force_prox(beta, spec, grid=1001):
    """Grid argmin of 0.5 ||beta - z||^2 + g(z), refined by ternary search.

    Independent low-dimensional oracle (dimension <= 3).  The grid spans
    [-2 max|beta|, 2 max|beta|] per axis, which contains the solution since
    proximal mappings are non-expansive; the argmin is polished by cyclic
    per-coordinate ternary search within one grid step.
    """
    beta = np.asarray(beta, dtype=float).ravel()
    dim = beta.size
    if dim > 3:
        raise UnsupportedPenaltyError("brute_force_prox supports dimension <= 3")
    if not isinstance(spec, _GRID_SUPPORTED):
        raise UnsupportedPenaltyError(
            f"brute_force_prox does not handle {type(spec).__name__}"
        )
    bound = 2.0 * max(float(np.max(np.abs(beta))), 1e-3)
    axis = np.linspace(-bound, bound, int(grid))
    step = axis[1] - axis[0]

    def objective_batch(Z):
        quad = 0.5 * np.sum((Z - beta) ** 2, axis=1)
        return quad + _grid_penalty(spec, Z)

    best_val = np.inf
    best_z = beta.copy()
    if dim == 1:
        Z = axis[:, None]
        vals = objective_batch(Z)
        k = int(np.argmin(vals))
        best_z, best_val = Z[k].copy(), vals[k]
    else:
        # chunk over the leading axis to bound memory
        tail = np.stack(
            np.meshgrid(*([axis] * (dim - 1)), indexing="ij"), axis=-1
        ).reshape(-1, dim - 1)
        for x0 in axis:
            Z = np.concatenate(
                [np.full((tail.shape[0], 1), x0), tail], axis=1
            )
            vals = objective_batch(Z)
            k = int(np.argmin(vals))
            if vals[k] < best_val:
                best_val = vals[k]
                best_z = Z[k].copy()

    def objective_one(z):
        return float(objective_batch(z[None, :])[0])

    z = best_z
    current = best_val
    for _ in range(4):
        for i in range(dim):
            lo_i, hi_i = z[i] - step, z[i] + step
            for _ in range(60):
                m1 = lo_i + (hi_i - lo_i) / 3.0
                m2 = hi_i - (hi_i - lo_i) / 3.0
                za, zb = z.copy(), z.copy()
                za[i], zb[i] = m1, m2
                if objective_one(za) <= objective_one(zb):
                    hi_i = m2
                else:
                    lo_i = m1
            cand = z.copy()
            cand[i] = 0.5 * (lo_i + hi_i)
            cand_val = objective_one(cand)
            # keep the move only if it improves; infeasible probe pairs can
            # otherwise walk the search away from the grid argmin
            if cand_val <= current:
                z, current = cand, cand_val
    return z
