"""Penalty algebra: values and Fenchel conjugates.

A penalty is a convex, lower semi-continuous function g.  Set constraints
are encoded as indicator penalties (0 inside, +inf outside), so Euclidean
projections are the special case of proximal mappings with an indicator g,
and the conjugate of a set indicator is the set's support function.
Extended-real arithmetic uses IEEE +inf; no term is ever -inf, so sums of
penalty and conjugate terms never form inf - inf.

Each penalty kind is a dataclass that states its own domain, per-case
parameters, value and conjugate; penalty_value and conjugate_value check
the shapes and call it.

Every function takes a stack of cases.  A vector penalty reads the last
axis of its argument and the nuclear norm the last two; the leading axes
index cases.  A per-case parameter (lam, radius, radii, Q, Halfspace's a
and b) is a float shared by every case or an array over the case axes.
One case (no case axis) gives a float; a stack gives an array over the
case axes.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class _Penalty:
    """A penalty kind: axes are the trailing axes of one point, dim the
    point shape the kind fixes (None if any), params() the per-case
    parameters; value(z) and conjugate(u) take points checked against them.
    """

    axes = (-1,)
    dim = None

    def conjugate(self, u):
        raise UnsupportedPenaltyError(
            f"no tractable conjugate for {type(self).__name__}"
        )


@dataclass
class L1(_Penalty):
    """g(z) = lam * ||z||_1; its conjugate is the indicator of the box
    ||u||_inf <= lam."""

    lam: float

    def __post_init__(self):
        self.lam = _case_param(self.lam, "lam")

    def params(self):
        return (self.lam,)

    def value(self, z):
        return self.lam * np.sum(np.abs(z), axis=-1)

    def conjugate(self, u):
        return np.where(_vector_norm(u, "linf") <= self.lam, 0.0, np.inf)


@dataclass
class GeneralizedL1(_Penalty):
    """g(z) = lam * ||D z||_1 for a d x p contrast matrix D shared by all
    cases; no closed-form conjugate."""

    D: np.ndarray
    lam: float

    def __post_init__(self):
        self.D = np.atleast_2d(np.asarray(self.D, dtype=float))
        self.lam = _case_param(self.lam, "lam")
        if self.D.shape[0] < 1:
            raise ValueError("D needs at least one row")
        self.dim = self.D.shape[1:]

    def params(self):
        return (self.lam,)

    def value(self, z):
        return self.lam * np.sum(np.abs(_matvec(self.D, z)), axis=-1)


@dataclass
class NormBall(_Penalty):
    """Indicator of {z : ||z|| <= radius} for norm in {l1, l2, linf}; its
    conjugate is the support function radius * ||u||_dual."""

    norm: str
    radius: float

    def __post_init__(self):
        if self.norm not in _DUAL_NORM:
            raise ValueError(f"unknown norm tag {self.norm!r}")
        self.radius = _case_param(self.radius, "radius")

    def params(self):
        return (self.radius,)

    def value(self, z):
        inside = _vector_norm(z, self.norm) <= self.radius + 1e-12
        return np.where(inside, 0.0, np.inf)

    def conjugate(self, u):
        return self.radius * _vector_norm(u, _DUAL_NORM[self.norm])


@dataclass
class GroupL2(_Penalty):
    """Indicator of the intersection of per-group l2 balls.

    groups is a tuple of index tuples; radii matches it elementwise, one
    per-case parameter per group.  Only partitions of the indices
    0..dim-1 (disjoint groups that cover every index) admit a closed-form
    support function, the sum of radius * ||u_group||_2; for overlapping
    covers use the variational additive gap instead.
    """

    groups: tuple
    radii: tuple

    def __post_init__(self):
        self.groups = tuple(tuple(int(i) for i in g) for g in self.groups)
        self.radii = tuple(_case_param(r, "radii") for r in self.radii)
        if len(self.groups) != len(self.radii):
            raise ValueError("groups and radii length mismatch")
        indices = [i for g in self.groups for i in g]
        if not indices:
            raise ValueError("a group ball needs at least one index")
        if min(indices) < 0:
            raise ValueError("group indices must be nonnegative")
        self.dim = (max(indices) + 1,)

    def params(self):
        return self.radii

    def _group_norms(self, z):
        return [np.sqrt(np.sum(z[..., list(g)] ** 2, axis=-1))
                for g in self.groups]

    def value(self, z):
        out = np.zeros(z.shape[:-1])
        for norm, r in zip(self._group_norms(z), self.radii):
            out = np.where(norm > r + 1e-12, np.inf, out)
        return out

    def conjugate(self, u):
        indices = [i for g in self.groups for i in g]
        if len(set(indices)) < len(indices):
            raise UnsupportedPenaltyError(
                "support function of overlapping group balls is not "
                "separable; use the variational additive gap"
            )
        if len(indices) < self.dim[0]:
            missing = sorted(set(range(self.dim[0])) - set(indices))
            raise UnsupportedPenaltyError(
                f"indices {missing} lie in no group; list each index once"
            )
        return sum(r * norm for norm, r in zip(self._group_norms(u), self.radii))


# Margin for the nuclear conjugate's operator-norm test: a dual scaled exactly
# onto the ball can come back from the SVD a rounding error above lam.
_OPNORM_MARGIN = 1e-8


@dataclass
class Nuclear(_Penalty):
    """g(Z) = lam * (sum of singular values of Z) on p1 x p2 matrices; its
    conjugate is the indicator of the operator-norm ball of radius lam
    (tested on the SVD norm, with a rounding margin)."""

    lam: float
    shape: tuple

    axes = (-2, -1)

    def __post_init__(self):
        self.lam = _case_param(self.lam, "lam")
        self.shape = self.dim = (int(self.shape[0]), int(self.shape[1]))

    def params(self):
        return (self.lam,)

    def value(self, z):
        return self.lam * np.sum(np.linalg.svd(z, compute_uv=False), axis=-1)

    def conjugate(self, u):
        bound = self.lam + _OPNORM_MARGIN * np.maximum(1.0, self.lam)
        return np.where(operator_norm(u) <= bound, 0.0, np.inf)


@dataclass
class Quadratic(_Penalty):
    """g(z) = 0.5 * z^T Q z with Q symmetric positive definite, conjugate
    0.5 * u^T Q^-1 u; a stack of cases may carry one Q per case along Q's
    leading axes."""

    Q: np.ndarray

    def __post_init__(self):
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        if self.Q.shape[-1] != self.Q.shape[-2]:
            raise ValueError("Q must be square")
        if not np.allclose(self.Q, np.swapaxes(self.Q, -1, -2), atol=1e-10):
            raise ValueError("Q must be symmetric")
        try:
            np.linalg.cholesky(self.Q)
        except np.linalg.LinAlgError:
            raise ValueError("Q must be positive definite") from None
        self.dim = self.Q.shape[-1:]

    def params(self):
        return (self.Q[..., 0, 0],)

    def value(self, z):
        return 0.5 * _dot((z[..., None, :] @ self.Q)[..., 0, :], z)

    def conjugate(self, u):
        return 0.5 * _dot(u, np.linalg.solve(self.Q, u[..., None])[..., 0])


@dataclass
class Sum(_Penalty):
    """g(z) = sum_j g_j(z) over penalties sharing one domain."""

    parts: tuple

    def __post_init__(self):
        self.parts = tuple(self.parts)
        if not self.parts:
            raise ValueError("Sum needs at least one part")
        self.dim = next((p.dim for p in self.parts if p.dim is not None), None)

    def params(self):
        return tuple(x for part in self.parts for x in part.params())

    def value(self, z):
        return sum(part.value(z) for part in self.parts)

    def conjugate(self, u):
        raise UnsupportedPenaltyError(
            "conjugate of a Sum is an infimal convolution; "
            "use variational_additive_gap"
        )


# Tolerance of the halfspace's membership and normal-cone tests.
_HALFSPACE_TOL = 1e-10


@dataclass
class Halfspace(_Penalty):
    """Indicator of the set {z : a^T z <= b}; used as a constraint in
    Bregman projections.

    a may carry one normal per case along its leading axes, and b one
    offset per case.  The conjugate (support function) is nu * b when u is
    a multiple nu >= 0 of a, and +inf off that normal cone.
    """

    a: np.ndarray
    b: float

    def __post_init__(self):
        self.a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = self.b
        self.b = float(b) if np.ndim(b) == 0 else np.asarray(b, dtype=float)
        self.dim = self.a.shape[-1:]

    def params(self):
        return (self.a[..., 0], self.b)

    def value(self, z):
        return np.where(_dot(self.a, z) <= self.b + _HALFSPACE_TOL, 0.0, np.inf)

    def conjugate(self, u):
        a, tol = self.a, _HALFSPACE_TOL
        denom = _dot(a, a)
        with np.errstate(divide="ignore", invalid="ignore"):
            nu = _dot(u, a) / denom
            scale = np.maximum(1.0, np.max(np.abs(u), axis=-1, initial=0.0))
            residual = np.max(np.abs(u - _per_entry(nu) * a), axis=-1, initial=0.0)
            off_cone = (nu < -tol) | (residual > tol * scale)
            out = np.where(
                (denom == 0.0) | off_cone, np.inf, np.maximum(nu, 0.0) * self.b
            )
        return np.where(np.any(u != 0.0, axis=-1), out, 0.0)


def _check_shape(spec, z):
    """z as an array of cases: trailing axes in the spec's domain, leading
    axes matching the spec's per-case parameters."""
    if not isinstance(spec, _Penalty):
        raise UnsupportedPenaltyError(f"unknown penalty {type(spec).__name__}")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    split = z.ndim - len(spec.axes)
    if spec.dim is not None and z.shape[split:] != spec.dim:
        raise DimensionError(f"expected a point of shape {spec.dim}, got {z.shape}")
    _check_cases(z.shape[:split], *spec.params())
    return z


def operator_norm(M):
    """Largest singular value of M, or of each matrix of a stack (the last
    two axes); 0.0 for an empty matrix."""
    M = np.asarray(M, dtype=float)
    if 0 in M.shape[-2:]:
        return _result(np.zeros(M.shape[:-2]))
    return _result(np.linalg.svd(M, compute_uv=False)[..., 0])


def penalty_value(spec, z):
    """Evaluate g(z); +inf for indicator penalties outside their set."""
    z = _check_shape(spec, z)
    return _result(spec.value(z))


def conjugate_value(spec, u):
    """Fenchel conjugate g*(u) = sup_w { u^T w - g(w) }; for a set
    indicator this is the set's support function.  Raises
    UnsupportedPenaltyError for kinds without a closed form."""
    u = _check_shape(spec, u)
    return _result(spec.conjugate(u))
