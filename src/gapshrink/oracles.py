"""Reference solvers for projections and proximal mappings.

These are the certification oracles: exact or high-accuracy solutions used
to validate the gap bounds and the samplers.  They are deliberately never
called inside Gibbs updates; the point of the gap machinery is that the
sampler runs without an inner optimizer.
"""

from __future__ import annotations

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
    _case_param,
    _check_cases,
    _dot,
    _matvec,
    _per_entry,
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
    lam = _case_param(lam, "lam")
    _check_cases(beta.shape[:-1], lam)
    return np.sign(beta) * np.maximum(np.abs(beta) - _per_entry(lam), 0.0)


def project_l1_ball(beta, r):
    """Euclidean projection onto {z : ||z||_1 <= r} by sort and threshold."""
    beta = np.asarray(beta, dtype=float)
    r = float(r) if np.ndim(r) == 0 else np.asarray(r, dtype=float)
    # written so that NaN fails it, as is the tol check of _fused_admm
    if not np.all(r > 0):
        raise ValueError("radius must be positive")
    _check_cases(beta.shape[:-1], r)
    r = _per_entry(r)
    a = np.abs(beta)
    # descending sort; ties broken by index order, result is tie-invariant
    s = np.flip(np.sort(a, axis=-1), axis=-1)
    css = np.cumsum(s, axis=-1)
    j = np.arange(1, a.shape[-1] + 1)
    # rho is the last j with s_j > (css_j - r) / j; j = 1 always qualifies
    above = s - (css - r) / j > 0
    rho = a.shape[-1] - np.argmax(np.flip(above, axis=-1), axis=-1)[..., None]
    tau = (np.take_along_axis(css, rho - 1, axis=-1) - r) / rho
    projected = np.sign(beta) * np.maximum(a - tau, 0.0)
    return np.where(np.sum(a, axis=-1, keepdims=True) <= r, beta, projected)


# iteration budgets of the fused ADMM and of the KL projection's Newton search
_ADMM_MAX_ITER = 100_000
_KL_MAX_ITER = 200


def _fused_admm(beta, D, lam, tol=1e-8):
    """The ADMM behind prox_fused, on a stack of cases sharing D.

    Returns (solution, objective, iterations, residual, dual) over the case
    axes; solution and dual keep their entry axis.  Each case runs its own
    penalty parameter, rebalancing and exit test, so it takes the steps a
    solve of that case alone takes; a case leaves the working set once it
    exits.  lam = 0 cases return beta after 0 iterations.

    When D has full row rank, each iteration also tries the exact finish
    that prox_fused describes; a finished case reports the iteration it
    finished at, and the norm of its fused contrasts (D z)_F as its
    residual.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    if not tol > 0:
        raise ValueError("tol must be positive")
    lam = _case_param(lam, "lam")
    d, p = D.shape
    if p != beta.shape[-1]:
        raise DimensionError(
            f"D has {p} columns but beta has {beta.shape[-1]} entries"
        )
    cases = beta.shape[:-1]
    _check_cases(cases, lam)
    b_all = beta.reshape(-1, p)
    lam_all = np.broadcast_to(lam, cases).reshape(-1)
    k = b_all.shape[0]
    z_out = b_all.copy()
    u_out = np.zeros((k, d))
    it_out = np.zeros(k, dtype=int)
    res_out = np.zeros(k)
    obj_out = np.zeros(k)

    Dt = D.T
    DtD = Dt @ D
    eye = np.eye(p)
    # the exact finish needs D D' nonsingular, that is D of full row rank
    DDt = D @ Dt if np.linalg.matrix_rank(D) == d else None

    def factor(rho, b):
        # z = inv (beta + rho D'(w - y)) = z_beta + G (w - y)
        inv = np.linalg.inv(eye + rho[:, None, None] * DtD)
        return _matvec(inv, b), rho[:, None, None] * (inv @ Dt)

    def meets_tol(res, lam, u, Dz):
        # the exit test: residuals within tol, gap certificate within 5 tol
        cert = np.sum((lam[:, None] - np.abs(u)) * np.abs(Dz), axis=-1)
        return (res <= tol) & (cert <= 5.0 * tol)

    def finish(b, lam, w):
        # fix u_N = lam sign(w_N) on the nonzero contrasts N and solve
        # (D D')_FF u_F = (D b)_F - (D D')_FN u_N on the fused ones F, one
        # system per case with identity rows on N; then z = b - D'u
        s = np.sign(w)
        on = s != 0.0
        u_on = lam[:, None] * s
        A = np.where(on[:, :, None], np.eye(d), DDt)
        u = np.linalg.solve(A, np.where(on, u_on, _matvec(D, b))[..., None])[..., 0]
        u = np.where(on, u_on, u)
        z = b - _matvec(Dt, u)
        Dz = _matvec(D, z)
        # KKT: |u_F| <= lam, and no nonzero contrast changed sign
        kkt = np.all(np.where(on, s * Dz >= 0.0, np.abs(u) <= lam[:, None]), axis=-1)
        fused = np.where(on, 0.0, Dz)
        res = np.sqrt(_dot(fused, fused))
        return z, u, Dz, res, kkt & meets_tol(res, lam, u, Dz)

    idx = np.flatnonzero(lam_all > 0.0)
    b, lam = b_all[idx], lam_all[idx]
    rho = np.ones(idx.size)
    z_beta, G = factor(rho, b)
    w = _matvec(D, b)
    y = np.zeros((idx.size, d))
    res = np.full(idx.size, np.inf)
    for it in range(1, _ADMM_MAX_ITER + 1):
        if idx.size == 0:
            break
        z = z_beta + _matvec(G, w - y)
        Dz = _matvec(D, z)
        w_old = w
        arg = Dz + y
        w = np.sign(arg) * np.maximum(np.abs(arg) - (lam / rho)[:, None], 0.0)
        y = y + Dz - w
        r = Dz - w
        s = _matvec(Dt, w - w_old)
        r_primal = np.sqrt(_dot(r, r))
        r_dual = rho * np.sqrt(_dot(s, s))
        res = np.maximum(r_primal, r_dual)
        u = np.clip(rho[:, None] * y, -lam[:, None], lam[:, None])
        done = meets_tol(res, lam, u, Dz)
        if DDt is not None:
            # a case whose exact finish passes exits with the finished pair
            z_f, u_f, Dz_f, res_f, exact = finish(b, lam, w)
            z, u, Dz = (
                np.where(exact[:, None], f, x)
                for f, x in ((z_f, z), (u_f, u), (Dz_f, Dz))
            )
            res = np.where(exact, res_f, res)
            done |= exact
        if done.any():
            j, u, Dz, z = idx[done], u[done], Dz[done], z[done]
            # sign-align the certificate with every nonzero contrast (fused
            # contrasts converge to ~0 but not exactly); the gap value only
            # sees |u|, so alignment never weakens the certificate
            u_out[j] = np.where(Dz != 0.0, np.sign(Dz) * np.abs(u), u)
            z_out[j] = z
            it_out[j] = it
            res_out[j] = res[done]
            obj_out[j] = 0.5 * np.sum((z - b[done]) ** 2, axis=-1) + lam[
                done
            ] * np.sum(np.abs(Dz), axis=-1)
            keep = ~done
            idx, b, lam, rho, z_beta, G, w, y, r_primal, r_dual, res = (
                x[keep]
                for x in (idx, b, lam, rho, z_beta, G, w, y, r_primal, r_dual, res)
            )
        up = r_primal > 10.0 * r_dual
        down = ~up & (r_dual > 10.0 * r_primal)
        if up.any() or down.any():
            rho = np.where(up, 2.0 * rho, np.where(down, rho / 2.0, rho))
            y = np.where(up[:, None], y / 2.0, np.where(down[:, None], 2.0 * y, y))
            moved = up | down
            z_beta[moved], G[moved] = factor(rho[moved], b[moved])
    if idx.size:
        raise ConvergenceError(
            f"ADMM did not reach tol={tol:g} in {_ADMM_MAX_ITER} iterations "
            f"on {idx.size} of {k} cases",
            residual=float(np.max(res)),
            iterations=_ADMM_MAX_ITER,
        )
    return (
        z_out.reshape(beta.shape),
        obj_out.reshape(cases),
        it_out.reshape(cases),
        res_out.reshape(cases),
        u_out.reshape(cases + (d,)),
    )


def prox_fused(beta, D, lam, tol=1e-8):
    """ADMM solve of min_z 0.5 ||z - beta||^2 + lam ||D z||_1.

    Splits D z = w with scaled dual y; the penalty parameter starts at 1.0
    and is rebalanced (x2 / /2) whenever one residual exceeds the other
    tenfold.  The z-update's system I + rho D'D is inverted once per value
    of rho (Boyd et al. 2011, sec. 4.2), so each iteration applies it with
    one matrix-vector product.  Stops when max(primal, dual residual) <=
    tol and the gap certificate is within 5 tol; raises after
    _ADMM_MAX_ITER iterations with the last residual attached.

    When D has full row rank (D D' nonsingular), each iteration also
    finishes the case exactly from the sign pattern s of the split w, as
    OSQP polishes its iterates (Stellato et al. 2020, sec. 4): u = lam s on
    the nonzero contrasts N, u_F from (D D')_FF u_F = (D beta)_F -
    (D D')_FN u_N on the fused ones F, and z = beta - D'u.  The case exits
    with that pair when it meets the KKT conditions (|u_F| <= lam, and
    s (D z) >= 0 on N) and the exit test above.  For a finished case,
    iterations is the iteration whose sign pattern it finished from, and
    residual is ||(D z)_F||, the pair's primal residual (its stationarity
    holds by construction), rounding error only.  A rank-deficient D runs
    the plain ADMM.

    The returned dual lives in the contrast space, clipped to [-lam, lam]
    and sign-aligned with D z so the gap certificate is exactly feasible.
    A stack of cases (leading axes of beta, with lam a float or one value
    per case) gives arrays over the cases in every field.
    """
    z, objective, iterations, residual, dual = _fused_admm(beta, D, lam, tol)
    if iterations.ndim == 0:
        return OracleResult(z, float(objective), int(iterations), float(residual), dual)
    return OracleResult(z, objective, iterations, residual, dual)


def svt(beta, lam):
    """Singular-value soft-thresholding, the nuclear-norm proximal mapping."""
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    lam = _case_param(lam, "lam")
    _check_cases(beta.shape[:-2], lam)
    U, s, Vt = np.linalg.svd(beta, full_matrices=False)
    s = np.maximum(s - _per_entry(lam), 0.0)
    return (U * s[..., None, :]) @ Vt


def _tilt(log_beta, a, nu):
    """Rows of the exponential tilt beta * exp(-nu a), normalized."""
    logz = log_beta - nu[:, None] * a
    logz -= np.max(logz, axis=-1, keepdims=True)
    z = np.exp(logz)
    return z / np.sum(z, axis=-1, keepdims=True)


def kl_project(beta, a, b, tol=1e-12):
    """KL projection of beta onto {z : a^T z <= b} within the simplex.

    The projection is the exponential tilt z_j proportional to
    beta_j * exp(-nu * a_j) with multiplier nu >= 0, the root of
    h(nu) = a^T z(nu) - b.  h decreases with slope -Var_z(a); nu is found
    by Newton steps kept inside a bracket [lo, hi] with h(lo) > 0 >= h(hi),
    bisecting whenever a step would leave it.  It returns once the
    complementary-slackness residual |nu * h| is below tol on the feasible
    side (h <= 1e-12), or, when float resolution keeps the residual above
    tol, once the bracket has shrunk to adjacent floats (the feasible end
    is returned).  Raises ConvergenceError after _KL_MAX_ITER steps.

    A stack of cases (leading axes of beta and a, b one value per case)
    runs every case's search side by side and returns one SimplexPoint
    holding the stack.
    """
    beta = as_simplex(beta)
    # NaN fails each check; b may be infinite (an inactive or an empty
    # constraint), a may not
    if not np.all(beta > 0.0):
        raise ValueError("beta must be strictly positive")
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    if a.shape != beta.shape:
        raise ValueError("constraint vector does not match beta")
    if not np.all(np.isfinite(a)):
        raise ValueError("constraint vector must be finite")
    if np.any(np.isnan(b)):
        raise ValueError("constraint bound must not be NaN")
    cases, p = beta.shape[:-1], beta.shape[-1]
    _check_cases(cases, b)
    out = beta.reshape(-1, p).copy()
    b = np.broadcast_to(b, cases).reshape(-1)
    a = a.reshape(-1, p)
    # the active cases; an inactive constraint leaves beta where it is
    idx = np.flatnonzero(_dot(a, out) > b)
    a, b, log_beta = a[idx], b[idx], np.log(out[idx])

    # a^T tilt(nu) decreases to min(a_j); below that the set is empty
    amin = np.min(a, axis=-1, initial=np.inf)
    empty = b < amin - 1e-14
    if empty.any():
        raise InfeasibleError(
            f"halfspace a^T z <= {b[empty][0]:g} misses the simplex "
            f"(min a = {amin[empty][0]:g})"
        )

    hi = np.ones(idx.size)
    z = np.empty((idx.size, p))
    run = np.arange(idx.size)
    for _ in range(200):
        z[run] = _tilt(log_beta[run], a[run], hi[run])
        run = run[_dot(a[run], z[run]) > b[run]]
        if run.size == 0:
            break
        hi[run] *= 2.0
    else:
        raise InfeasibleError("constraint not attainable by exponential tilt")

    lo = np.zeros(idx.size)
    nu = hi.copy()
    residual = np.full(idx.size, np.inf)
    run = np.arange(idx.size)
    for _ in range(_KL_MAX_ITER):
        az = _dot(a[run], z[run])
        h = az - b[run]
        residual[run] = np.abs(nu[run] * h)
        met = (residual[run] <= tol) & (h <= 1e-12)
        out[idx[run[met]]] = z[run[met]]
        run, az, h = run[~met], az[~met], h[~met]
        if run.size == 0:
            break
        lo[run] = np.where(h > 0, nu[run], lo[run])
        hi[run] = np.where(h > 0, hi[run], nu[run])
        # Newton step on h, whose slope is -Var_z(a); a flat h gives no
        # step, and a step outside (lo, hi) bisects instead
        c = a[run] - az[:, None]
        var = _dot(z[run], c * c)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(var > 0.0, nu[run] + h / var, hi[run])
        l, u = lo[run], hi[run]
        step = (l < newton) & (newton < u)
        mid = 0.5 * (l + u)
        # where lo and hi are adjacent floats, |nu * h| <= tol is out of
        # reach, and hi is the feasible end
        stuck = ~step & ~((l < mid) & (mid < u))
        done = run[stuck]
        out[idx[done]] = _tilt(log_beta[done], a[done], hi[done])
        nu[run] = np.where(step, newton, mid)
        run = run[~stuck]
        z[run] = _tilt(log_beta[run], a[run], nu[run])
    if run.size:
        raise ConvergenceError(
            f"KL projection did not reach tol={tol:g} in {_KL_MAX_ITER} steps",
            residual=float(np.max(residual[run])),
            iterations=_KL_MAX_ITER,
        )
    return SimplexPoint(out.reshape(beta.shape))


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
