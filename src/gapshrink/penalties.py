"""Penalty algebra: values, Fenchel conjugates, and support functions.

A penalty is a convex, lower semi-continuous function g.  Set constraints
are encoded as indicator penalties (0 inside, +inf outside), so Euclidean
projections are the special case of proximal mappings with an indicator g.
Extended-real arithmetic uses IEEE +inf; indicator evaluation short-circuits
so 0*inf never arises.
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


def _vector_norm(x, tag):
    x = np.asarray(x, dtype=float)
    if tag == "l1":
        return float(np.sum(np.abs(x)))
    if tag == "l2":
        return float(np.sqrt(np.sum(x * x)))
    if tag == "linf":
        return float(np.max(np.abs(x))) if x.size else 0.0
    raise ValueError(f"unknown norm tag {tag!r}")


@dataclass
class L1:
    """g(z) = lam * ||z||_1."""

    lam: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")


@dataclass
class GeneralizedL1:
    """g(z) = lam * ||D z||_1 for a d x p contrast matrix D."""

    D: np.ndarray
    lam: float

    def __post_init__(self):
        self.D = np.atleast_2d(np.asarray(self.D, dtype=float))
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
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
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")


@dataclass
class GroupL2:
    """Indicator of the intersection of per-group l2 balls.

    groups is a tuple of index tuples; radii matches it elementwise.  Only
    partitions (disjoint groups) admit a closed-form support function; for
    overlapping covers use the variational additive gap instead.
    """

    groups: tuple
    radii: tuple

    def __post_init__(self):
        self.groups = tuple(tuple(int(i) for i in g) for g in self.groups)
        self.radii = tuple(float(r) for r in self.radii)
        if len(self.groups) != len(self.radii):
            raise ValueError("groups and radii length mismatch")
        if any(r < 0 for r in self.radii):
            raise ValueError("radii must be nonnegative")

    def is_partition(self, dim):
        seen = [i for g in self.groups for i in g]
        return sorted(seen) == list(range(dim))


@dataclass
class Nuclear:
    """g(Z) = lam * (sum of singular values of Z) on p1 x p2 matrices."""

    lam: float
    shape: tuple

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        self.shape = (int(self.shape[0]), int(self.shape[1]))


@dataclass
class Quadratic:
    """g(z) = 0.5 * z^T Q z with Q symmetric positive definite."""

    Q: np.ndarray

    def __post_init__(self):
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        if self.Q.shape[0] != self.Q.shape[1]:
            raise ValueError("Q must be square")
        if not np.allclose(self.Q, self.Q.T, atol=1e-10):
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
    """The set {z : a^T z <= b}; used as a constraint in Bregman projections."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float).ravel()
        self.b = float(self.b)


def domain_dim(spec):
    """Domain dimension if the spec pins one down, else None."""
    if isinstance(spec, GeneralizedL1):
        return spec.D.shape[1]
    if isinstance(spec, Quadratic):
        return spec.Q.shape[0]
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


def _check_shape(spec, z):
    z = np.asarray(z, dtype=float)
    dim = domain_dim(spec)
    if isinstance(spec, Nuclear):
        if z.shape != spec.shape:
            raise DimensionError(f"expected shape {spec.shape}, got {z.shape}")
        return z
    z = z.ravel()
    if dim is not None and z.size != np.prod(np.atleast_1d(dim)):
        raise DimensionError(f"expected dimension {dim}, got {z.size}")
    return z


def operator_norm(M):
    """Largest singular value of M; 0.0 for an empty matrix."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def penalty_value(spec, z):
    """Evaluate g(z); +inf for indicator penalties outside their set."""
    z = _check_shape(spec, z)
    if isinstance(spec, L1):
        return spec.lam * float(np.sum(np.abs(z)))
    if isinstance(spec, GeneralizedL1):
        return spec.lam * float(np.sum(np.abs(spec.D @ z)))
    if isinstance(spec, NormBall):
        return 0.0 if _vector_norm(z, spec.norm) <= spec.radius + 1e-12 else np.inf
    if isinstance(spec, GroupL2):
        for g, r in zip(spec.groups, spec.radii):
            if np.sqrt(np.sum(z[list(g)] ** 2)) > r + 1e-12:
                return np.inf
        return 0.0
    if isinstance(spec, Nuclear):
        return spec.lam * float(np.sum(np.linalg.svd(z, compute_uv=False)))
    if isinstance(spec, Quadratic):
        return 0.5 * float(z @ spec.Q @ z)
    if isinstance(spec, Sum):
        total = 0.0
        for part in spec.parts:
            v = penalty_value(part, z)
            if np.isinf(v):
                return np.inf
            total += v
        return total
    raise UnsupportedPenaltyError(f"unknown penalty {type(spec).__name__}")


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
    u = _check_shape(spec, u)
    if isinstance(spec, L1):
        return 0.0 if _vector_norm(u, "linf") <= spec.lam else np.inf
    if isinstance(spec, NormBall):
        return spec.radius * _vector_norm(u, _DUAL_NORM[spec.norm])
    if isinstance(spec, GroupL2):
        return support_function(spec, u)
    if isinstance(spec, Quadratic):
        return 0.5 * float(u @ np.linalg.solve(spec.Q, u))
    if isinstance(spec, Nuclear):
        op = operator_norm(u)
        bound = spec.lam + _OPNORM_MARGIN * max(1.0, spec.lam)
        return 0.0 if op <= bound else np.inf
    if isinstance(spec, Sum):
        raise UnsupportedPenaltyError(
            "conjugate of a Sum is an infimal convolution; "
            "use variational_additive_gap"
        )
    raise UnsupportedPenaltyError(
        f"no tractable conjugate for {type(spec).__name__}"
    )


def support_function(ball, u):
    """Support function sigma_C(u) = sup_{w in C} u^T w of a ball indicator.

    NormBall gives radius times the dual norm of u.  GroupL2 with disjoint
    groups gives the sum of per-group radius * ||u_group||_2 terms.
    """
    if isinstance(ball, NormBall):
        u = _check_shape(ball, u)
        return ball.radius * _vector_norm(u, _DUAL_NORM[ball.norm])
    if isinstance(ball, GroupL2):
        u = np.asarray(u, dtype=float).ravel()
        if not ball.is_partition(u.size):
            raise UnsupportedPenaltyError(
                "support function of overlapping group balls is not "
                "separable; use the variational additive gap"
            )
        total = 0.0
        for g, r in zip(ball.groups, ball.radii):
            total += r * float(np.sqrt(np.sum(u[list(g)] ** 2)))
        return total
    raise UnsupportedPenaltyError("support_function requires a ball indicator")


def halfspace_support(hs, u, tol=1e-10):
    """sigma_C(u) for C = {z : a^T z <= b}.

    Finite only when u is a nonnegative multiple of a (the normal cone
    direction); returns +inf otherwise.
    """
    u = np.asarray(u, dtype=float).ravel()
    a = hs.a
    if u.shape != a.shape:
        raise DimensionError("u and halfspace normal differ in shape")
    if not np.any(u):
        return 0.0
    denom = float(a @ a)
    if denom == 0.0:
        return np.inf
    nu = float(u @ a) / denom
    scale = max(1.0, float(np.max(np.abs(u))))
    if nu < -tol or np.max(np.abs(u - nu * a)) > tol * scale:
        return np.inf
    return max(nu, 0.0) * hs.b
