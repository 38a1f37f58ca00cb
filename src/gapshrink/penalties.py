"""Penalty algebra: values, Fenchel conjugates, and support functions.

A penalty is a convex, lower semi-continuous function g.  Set constraints
are encoded as indicator penalties (0 inside, +inf outside), so Euclidean
projections are the special case of proximal mappings with an indicator g.
Extended-real arithmetic uses IEEE +inf; no term is ever -inf, so sums of
penalty and conjugate terms never form inf - inf.

Every function takes a stack of cases.  A vector penalty reads the last
axis of its argument and the nuclear norm the last two; the leading axes
index cases.  A per-case parameter (lam, radius, radii, Q, Halfspace's a
and b) is a float shared by every case or an array over the case axes.
One case (no case axis) gives a float; a stack gives an array over the
case axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, UnsupportedPenaltyError

__all__ = [
    "L1",
    "GeneralizedL1",
    "NormBall",
    "GroupL2",
    "Nuclear",
    "Quadratic",
    "Sum",
    "Halfspace",
    "penalty_value",
    "conjugate_value",
    "support_function",
    "operator_norm",
]

_DUAL_NORM = {"l1": "linf", "l2": "l2", "linf": "l1"}


def _case_param(x, name):
    """A nonnegative per-case parameter: a float, or an array over cases."""
    x = float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError(f"{name} must be nonnegative")
    return x


def _per_entry(x):
    """A per-case parameter shaped to broadcast against each case's entries."""
    return x if np.ndim(x) == 0 else np.expand_dims(x, -1)


def _result(x):
    """A float for one case, the array over the case axes for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _dot(x, y):
    """x^T y along the last axis, case by case.  A stacked matmul rounds
    each case as the single-case x @ y does, where a rowwise sum would not."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _matvec(M, x):
    """M x for each case, with the rounding of the single-case M @ x."""
    return (M @ x[..., None])[..., 0]


def _check_cases(cases, *params):
    """Raise DimensionError unless each per-case parameter broadcasts onto
    the case axes `cases` without enlarging them."""
    for x in params:
        shape = np.shape(x)
        if len(shape) > len(cases) or any(
            s not in (1, c) for s, c in zip(shape[::-1], cases[::-1])
        ):
            raise DimensionError(
                f"per-case parameter of shape {shape} does not match "
                f"the case axes {cases}"
            )


def _vector_norm(x, tag):
    """The l1, l2 or linf norm along the last axis (0.0 when it is empty)."""
    if tag == "l1":
        return np.sum(np.abs(x), axis=-1)
    if tag == "l2":
        return np.sqrt(np.sum(x * x, axis=-1))
    if tag == "linf":
        return np.max(np.abs(x), axis=-1, initial=0.0)
    raise ValueError(f"unknown norm tag {tag!r}")


@dataclass
class L1:
    """g(z) = lam * ||z||_1."""

    lam: float

    def __post_init__(self):
        self.lam = _case_param(self.lam, "lam")


@dataclass
class GeneralizedL1:
    """g(z) = lam * ||D z||_1 for a d x p contrast matrix D shared by all
    cases."""

    D: np.ndarray
    lam: float

    def __post_init__(self):
        self.D = np.atleast_2d(np.asarray(self.D, dtype=float))
        self.lam = _case_param(self.lam, "lam")
        if self.D.shape[0] < 1:
            raise ValueError("D needs at least one row")


@dataclass
class NormBall:
    """Indicator of {z : ||z|| <= radius} for norm in {l1, l2, linf}."""

    norm: str
    radius: float

    def __post_init__(self):
        if self.norm not in _DUAL_NORM:
            raise ValueError(f"unknown norm tag {self.norm!r}")
        self.radius = _case_param(self.radius, "radius")


@dataclass
class GroupL2:
    """Indicator of the intersection of per-group l2 balls.

    groups is a tuple of index tuples; radii matches it elementwise, one
    per-case parameter per group.  Only partitions (disjoint groups) admit
    a closed-form support function; for overlapping covers use the
    variational additive gap instead.
    """

    groups: tuple
    radii: tuple

    def __post_init__(self):
        self.groups = tuple(tuple(int(i) for i in g) for g in self.groups)
        self.radii = tuple(_case_param(r, "radii") for r in self.radii)
        if len(self.groups) != len(self.radii):
            raise ValueError("groups and radii length mismatch")

    def is_partition(self, dim):
        seen = [i for g in self.groups for i in g]
        return sorted(seen) == list(range(dim))


@dataclass
class Nuclear:
    """g(Z) = lam * (sum of singular values of Z) on p1 x p2 matrices."""

    lam: float
    shape: tuple

    def __post_init__(self):
        self.lam = _case_param(self.lam, "lam")
        self.shape = (int(self.shape[0]), int(self.shape[1]))


@dataclass
class Quadratic:
    """g(z) = 0.5 * z^T Q z with Q symmetric positive definite; a stack of
    cases may carry one Q per case along Q's leading axes."""

    Q: np.ndarray

    def __post_init__(self):
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        if self.Q.shape[-1] != self.Q.shape[-2]:
            raise ValueError("Q must be square")
        if not np.allclose(self.Q, np.swapaxes(self.Q, -1, -2), atol=1e-10):
            raise ValueError("Q must be symmetric")


@dataclass
class Sum:
    """g(z) = sum_j g_j(z) over penalties sharing one domain."""

    parts: tuple = field(default_factory=tuple)

    def __post_init__(self):
        self.parts = tuple(self.parts)
        if not self.parts:
            raise ValueError("Sum needs at least one part")


@dataclass
class Halfspace:
    """The set {z : a^T z <= b}; used as a constraint in Bregman projections.

    a may carry one normal per case along its leading axes, and b one
    offset per case."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        self.a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = self.b
        self.b = float(b) if np.ndim(b) == 0 else np.asarray(b, dtype=float)


def _case_params(spec):
    """The per-case parameters of a spec, for the case-axes check."""
    if isinstance(spec, (L1, GeneralizedL1, Nuclear)):
        return (spec.lam,)
    if isinstance(spec, NormBall):
        return (spec.radius,)
    if isinstance(spec, GroupL2):
        return spec.radii
    if isinstance(spec, Quadratic):
        return (spec.Q[..., 0, 0],)
    if isinstance(spec, Halfspace):
        return (spec.a[..., 0], spec.b)
    if isinstance(spec, Sum):
        return tuple(x for part in spec.parts for x in _case_params(part))
    return ()


def domain_dim(spec):
    """Domain dimension if the spec pins one down, else None."""
    if isinstance(spec, GeneralizedL1):
        return spec.D.shape[1]
    if isinstance(spec, Quadratic):
        return spec.Q.shape[-1]
    if isinstance(spec, Nuclear):
        return spec.shape
    if isinstance(spec, Sum):
        for part in spec.parts:
            d = domain_dim(part)
            if d is not None:
                return d
    if isinstance(spec, GroupL2):
        return max(i for g in spec.groups for i in g) + 1
    return None


def domain_axes(spec):
    """The trailing axes that hold one case's point."""
    return (-2, -1) if isinstance(spec, Nuclear) else -1


def _check_shape(spec, z):
    """z as an array of cases: trailing axes in the spec's domain, leading
    axes matching the spec's per-case parameters."""
    if isinstance(spec, Nuclear):
        z = np.asarray(z, dtype=float)
        if z.shape[-2:] != spec.shape:
            raise DimensionError(f"expected shape {spec.shape}, got {z.shape}")
        cases = z.shape[:-2]
    else:
        z = np.atleast_1d(np.asarray(z, dtype=float))
        dim = domain_dim(spec)
        if dim is not None and z.shape[-1] != dim:
            raise DimensionError(f"expected dimension {dim}, got {z.shape[-1]}")
        cases = z.shape[:-1]
    _check_cases(cases, *_case_params(spec))
    return z


def operator_norm(M):
    """Largest singular value of M, or of each matrix of a stack (the last
    two axes); 0.0 for an empty matrix."""
    M = np.asarray(M, dtype=float)
    if 0 in M.shape[-2:]:
        return _result(np.zeros(M.shape[:-2]))
    return _result(np.linalg.svd(M, compute_uv=False)[..., 0])


def _penalty(spec, z):
    if isinstance(spec, L1):
        return spec.lam * np.sum(np.abs(z), axis=-1)
    if isinstance(spec, GeneralizedL1):
        return spec.lam * np.sum(np.abs(_matvec(spec.D, z)), axis=-1)
    if isinstance(spec, NormBall):
        inside = _vector_norm(z, spec.norm) <= spec.radius + 1e-12
        return np.where(inside, 0.0, np.inf)
    if isinstance(spec, GroupL2):
        out = np.zeros(z.shape[:-1])
        for g, r in zip(spec.groups, spec.radii):
            outside = np.sqrt(np.sum(z[..., list(g)] ** 2, axis=-1)) > r + 1e-12
            out = np.where(outside, np.inf, out)
        return out
    if isinstance(spec, Nuclear):
        return spec.lam * np.sum(np.linalg.svd(z, compute_uv=False), axis=-1)
    if isinstance(spec, Quadratic):
        return 0.5 * _dot((z[..., None, :] @ spec.Q)[..., 0, :], z)
    if isinstance(spec, Sum):
        return sum(_penalty(part, z) for part in spec.parts)
    raise UnsupportedPenaltyError(f"unknown penalty {type(spec).__name__}")


def penalty_value(spec, z):
    """Evaluate g(z); +inf for indicator penalties outside their set."""
    return _result(_penalty(spec, _check_shape(spec, z)))


# Margin for the nuclear conjugate's operator-norm test: a dual scaled exactly
# onto the ball can come back from the SVD a rounding error above lam.
_OPNORM_MARGIN = 1e-8


def conjugate_value(spec, u):
    """Fenchel conjugate g*(u) = sup_w { u^T w - g(w) }.

    Closed forms: the L1 conjugate is the indicator of the dual-norm box,
    a ball indicator conjugates to its support function, a positive-definite
    quadratic to the inverse quadratic, and the nuclear norm to the indicator
    of the operator-norm ball (its SVD norm, with a rounding margin).
    """
    if isinstance(spec, Sum):
        raise UnsupportedPenaltyError(
            "conjugate of a Sum is an infimal convolution; "
            "use variational_additive_gap"
        )
    if isinstance(spec, GroupL2):
        return support_function(spec, u)
    u = _check_shape(spec, u)
    if isinstance(spec, L1):
        out = np.where(_vector_norm(u, "linf") <= spec.lam, 0.0, np.inf)
    elif isinstance(spec, NormBall):
        out = spec.radius * _vector_norm(u, _DUAL_NORM[spec.norm])
    elif isinstance(spec, Quadratic):
        out = 0.5 * _dot(u, np.linalg.solve(spec.Q, u[..., None])[..., 0])
    elif isinstance(spec, Nuclear):
        bound = spec.lam + _OPNORM_MARGIN * np.maximum(1.0, spec.lam)
        out = np.where(operator_norm(u) <= bound, 0.0, np.inf)
    else:
        raise UnsupportedPenaltyError(
            f"no tractable conjugate for {type(spec).__name__}"
        )
    return _result(out)


def support_function(ball, u):
    """Support function sigma_C(u) = sup_{w in C} u^T w of a ball indicator.

    NormBall gives radius times the dual norm of u.  GroupL2 with disjoint
    groups gives the sum of per-group radius * ||u_group||_2 terms.
    """
    if isinstance(ball, NormBall):
        u = _check_shape(ball, u)
        return _result(ball.radius * _vector_norm(u, _DUAL_NORM[ball.norm]))
    if isinstance(ball, GroupL2):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if not ball.is_partition(u.shape[-1]):
            raise UnsupportedPenaltyError(
                "support function of overlapping group balls is not "
                "separable; use the variational additive gap"
            )
        u = _check_shape(ball, u)
        return _result(sum(
            r * np.sqrt(np.sum(u[..., list(g)] ** 2, axis=-1))
            for g, r in zip(ball.groups, ball.radii)
        ))
    raise UnsupportedPenaltyError("support_function requires a ball indicator")


def halfspace_support(hs, u, tol=1e-10):
    """sigma_C(u) for C = {z : a^T z <= b}.

    Finite only when u is a nonnegative multiple of a (the normal cone
    direction); returns +inf otherwise.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    a = hs.a
    if u.shape[-1] != a.shape[-1]:
        raise DimensionError("u and halfspace normal differ in shape")
    _check_cases(u.shape[:-1], *_case_params(hs))
    denom = _dot(a, a)
    with np.errstate(divide="ignore", invalid="ignore"):
        nu = _dot(u, a) / denom
        scale = np.maximum(1.0, np.max(np.abs(u), axis=-1, initial=0.0))
        off_cone = (nu < -tol) | (
            np.max(np.abs(u - _per_entry(nu) * a), axis=-1, initial=0.0) > tol * scale
        )
        out = np.where((denom == 0.0) | off_cone, np.inf, np.maximum(nu, 0.0) * hs.b)
    return _result(np.where(np.any(u != 0.0, axis=-1), out, 0.0))
