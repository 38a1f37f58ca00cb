import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gapshrink.errors import (
    ContractViolationError,
    DimensionError,
    UnsupportedPenaltyError,
)
from gapshrink.gaps import (
    SimplexPoint,
    fenchel_young_gap,
    generalized_l1_duality_gap,
    generalized_l1_gap,
    kl_gap,
    l1_gap,
    proximal_duality_gap,
    variational_additive_gap,
    variational_nuclear_gap,
)
from gapshrink.oracles import kl_project, prox_fused, soft_threshold, svt
from gapshrink.penalties import GroupL2, Halfspace, L1, NormBall, Nuclear, Quadratic

finite = st.floats(-5, 5, allow_nan=False)


class TestFenchelYoung:
    def test_optimal_pair(self):
        assert fenchel_young_gap(L1(2.0), [1.0, 0.0], [2.0, 0.0]) == 0.0

    def test_generic_pair(self):
        assert fenchel_young_gap(L1(2.0), [1.0, -1.0], [1.0, 2.0]) == pytest.approx(5.0)

    def test_infeasible_dual(self):
        assert fenchel_young_gap(L1(2.0), [1.0, 0.0], [3.0, 0.0]) == np.inf

    @given(st.lists(finite, min_size=1, max_size=6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_for_feasible_duals(self, theta, data):
        lam = data.draw(st.floats(0.01, 3.0))
        u = [data.draw(st.floats(-lam, lam)) for _ in theta]
        gap = fenchel_young_gap(L1(lam), theta, u)
        assert gap >= -1e-10


class TestL1Gap:
    def test_spec_values(self):
        assert l1_gap(1.0, [2.0, 0.0], [1.0, 0.3]) == pytest.approx(0.0)
        assert l1_gap(1.0, [2.0, -1.0], [0.5, -0.5]) == pytest.approx(1.5)
        assert l1_gap(1.0, [1.0, 0.0], [1.5, 0.0]) == np.inf

    def test_sign_violation(self):
        assert l1_gap(1.0, [1.0], [-0.5]) == np.inf
        # zero coordinate accepts any feasible dual
        assert np.isfinite(l1_gap(1.0, [0.0], [-0.5]))

    @given(st.lists(finite, min_size=1, max_size=6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_fenchel_young_under_sign_convention(self, theta, data):
        lam = data.draw(st.floats(0.01, 3.0))
        u = [
            np.sign(t) * data.draw(st.floats(0.0, lam)) if t != 0
            else data.draw(st.floats(-lam, lam))
            for t in theta
        ]
        a = l1_gap(lam, theta, u)
        b = fenchel_young_gap(L1(lam), theta, u)
        assert a == pytest.approx(b, abs=1e-12)


class TestGeneralizedL1Gap:
    D = np.array([[1.0, -1.0]])

    def test_fused_optimum(self):
        # prox of beta=(1,0) is (0.5,0.5); dual certificate 0.5 closes the gap
        res = prox_fused(np.array([1.0, 0.0]), self.D, 1.0, tol=1e-12)
        np.testing.assert_allclose(res.solution, [0.5, 0.5], atol=1e-9)
        assert generalized_l1_gap(self.D, 1.0, [0.5, 0.5], [0.5]) == pytest.approx(0.0)

    def test_unit_contrast(self):
        assert generalized_l1_gap(self.D, 1.0, [1.0, 0.0], [0.0]) == pytest.approx(1.0)

    def test_infeasible(self):
        assert generalized_l1_gap(self.D, 1.0, [1.0, 0.0], [2.0]) == np.inf

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            generalized_l1_gap(self.D, 1.0, [1.0, 0.0, 0.0], [0.0])


class TestKLGap:
    # the simplex lies in the unit l1 ball, whose support term is 0 at u = 0
    simplex_ball = NormBall("l1", 1.0)

    def test_zero_at_match(self):
        gap = kl_gap([0.5, 0.5], [0.5, 0.5], [0.0, 0.0], self.simplex_ball)
        assert gap == pytest.approx(0.0)

    def test_plain_kl(self):
        val = kl_gap([0.8, 0.2], [0.5, 0.5], [0.0, 0.0], self.simplex_ball)
        assert val == pytest.approx(0.22314, abs=1e-5)

    def test_zero_beta_entry_rejected(self):
        with pytest.raises(ValueError):
            kl_gap([1.0, 0.0], [0.5, 0.5], [0.0, 0.0], self.simplex_ball)

    def test_outside_halfspace_is_inf(self):
        hs = Halfspace([1.0, 0.0], 0.3)
        assert kl_gap([0.5, 0.5], [0.5, 0.5], [0.0, 0.0], hs) == np.inf

    beta = [0.5, 0.3, 0.2]
    z = [0.2, 0.3, 0.5]
    u = [0.3, -0.4, 0.1]

    def _kl_plus_lse(self):
        kl = 0.2 * np.log(0.2 / 0.5) + 0.5 * np.log(0.5 / 0.2)
        lse = np.log(0.5 * np.exp(-0.3) + 0.3 * np.exp(0.4) + 0.2 * np.exp(-0.1))
        return kl + lse

    def test_norm_ball_constraint(self):
        # sigma = radius * ||u||_2 = 1.0 * sqrt(0.26); ||z||_2 = sqrt(0.38) < 1
        gap = kl_gap(self.beta, self.z, self.u, NormBall("l2", 1.0))
        assert gap == pytest.approx(self._kl_plus_lse() + np.sqrt(0.26), rel=1e-12)
        assert kl_gap(self.beta, self.z, self.u, NormBall("l2", 0.6)) == np.inf

    def test_group_l2_constraint(self):
        # sigma = 0.5 * ||(0.3, -0.4)||_2 + 2.0 * |0.1| = 0.45
        ball = GroupL2(((0, 1), (2,)), (0.5, 2.0))
        gap = kl_gap(self.beta, self.z, self.u, ball)
        assert gap == pytest.approx(self._kl_plus_lse() + 0.45, rel=1e-12)
        # ||(0.5, 0.4)||_2 > 0.5: z leaves the first group's ball
        assert kl_gap(self.beta, [0.5, 0.4, 0.1], self.u, ball) == np.inf

    def test_non_set_constraint_rejected(self):
        with pytest.raises(UnsupportedPenaltyError):
            kl_gap(self.beta, self.z, self.u, L1(1.0))


class TestVariationalAdditive:
    b1 = NormBall("l1", 1.0)
    binf = NormBall("linf", 1.0)

    def test_boundary_zero(self):
        gap = variational_additive_gap([self.b1], [1.0, 0.0], [[1.0, 0.0]], [2.0, 0.0])
        assert gap == pytest.approx(0.0)

    def test_two_balls(self):
        gap = variational_additive_gap(
            [self.b1, self.binf], [1.0, 0.0], [[1.0, 0.0], [1.0, 1.0]], [3.0, 1.0]
        )
        assert gap == pytest.approx(1.0)

    def test_outside_set(self):
        gap = variational_additive_gap([self.b1], [2.0, 0.0], [[1.0, 0.0]], [3.0, 0.0])
        assert gap == np.inf

    def test_consistency_enforced(self):
        with pytest.raises(ContractViolationError):
            variational_additive_gap([self.b1], [1.0, 0.0], [[1.0, 0.0]], [5.0, 0.0])

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_dominates_exact_conjugate_of_sum(self, data):
        # splitting the dual can only enlarge the conjugate term; check
        # against sums whose exact conjugate is known in closed form
        p = data.draw(st.integers(2, 4))
        z = np.array([data.draw(st.floats(-0.4, 0.4)) for _ in range(p)])
        v1 = np.array([data.draw(finite) for _ in range(p)])
        v2 = np.array([data.draw(finite) for _ in range(p)])
        beta = z + v1 + v2
        u = v1 + v2

        # two l1 terms add into one
        a, b = data.draw(st.floats(0.1, 2)), data.draw(st.floats(0.1, 2))
        big = variational_additive_gap([L1(a), L1(b)], z, [v1, v2], beta)
        small = fenchel_young_gap(L1(a + b), z, u)
        assert big >= small - 1e-9
        assert small >= -1e-10

        # l1 plus half squared norm: conjugate is the Moreau form
        lam = data.draw(st.floats(0.1, 2))
        big2 = variational_additive_gap(
            [L1(lam), Quadratic(np.eye(p))], z, [v1, v2], beta
        )
        soft = np.sign(u) * np.maximum(np.abs(u) - lam, 0.0)
        exact2 = (
            0.5 * float(soft @ soft)
            + lam * np.sum(np.abs(z))
            + 0.5 * float(z @ z)
            - float(u @ z)
        )
        assert big2 >= exact2 - 1e-9
        assert exact2 >= -1e-10


class TestVariationalNuclear:
    def test_balanced_rank_one_optimum(self):
        s2 = np.sqrt(2.0)
        A = np.array([[s2], [0.0]])
        B = np.array([[s2], [0.0]])
        V1 = np.zeros((2, 2))
        V1[0, 0] = 1.0
        gap = variational_nuclear_gap(A, B, (V1, np.zeros((2, 2))), 1.0, 0.0)
        assert gap == pytest.approx(0.0)

    def test_unbalanced_factorization(self):
        A = np.array([[2.0], [0.0]])
        B = np.array([[1.0], [0.0]])
        V1 = np.zeros((2, 2))
        V1[0, 0] = 1.0
        gap = variational_nuclear_gap(A, B, (V1, np.zeros((2, 2))), 1.0, 0.0)
        assert gap == pytest.approx(0.5)

    def test_sparse_side(self):
        s2 = np.sqrt(2.0)
        A = np.array([[s2], [0.0]])
        B = np.array([[s2], [0.0]])
        V2 = np.zeros((2, 2))
        V2[0, 0] = 1.0
        gap = variational_nuclear_gap(A, B, (np.zeros((2, 2)), V2), 0.0, 1.0)
        assert gap == pytest.approx(0.0)

    def test_rank_mismatch(self):
        V = np.zeros((2, 2))
        with pytest.raises(DimensionError):
            variational_nuclear_gap(np.ones((2, 2)), np.ones((2, 1)), (V, V), 1, 1)

    @pytest.mark.parametrize("rows", [2, 3])
    def test_summed_dual_rejected(self, rows):
        # one matrix V1 + V2 in place of the pair; two rows would unpack
        # into two vectors
        A = B = np.ones((rows, 1))
        with pytest.raises(DimensionError, match="dual pair"):
            variational_nuclear_gap(A, B, np.zeros((rows, rows)), 1, 1)

    def test_pair_shapes_must_agree(self):
        A = B = np.ones((2, 1))
        with pytest.raises(DimensionError, match="dual pair"):
            variational_nuclear_gap(A, B, (np.zeros((2, 2)), np.zeros((2, 3))), 1, 1)

    def test_v2_outside_box_is_inf(self):
        A = B = np.array([[1.0], [0.0]])
        V2 = np.zeros((2, 2))
        V2[1, 0] = 0.5 + 1e-9
        assert variational_nuclear_gap(A, B, (np.zeros((2, 2)), V2), 1.0, 0.5) == np.inf
        V2[1, 0] = 0.5
        assert np.isfinite(variational_nuclear_gap(A, B, (np.zeros((2, 2)), V2), 1.0, 0.5))

    def test_v1_outside_operator_ball_is_inf(self):
        # V1 = 2 I has operator norm 2: outside the lam1 = 1 ball, inside
        # lam1 = 2
        A = B = np.array([[1.0], [0.0]])
        V1 = 2.0 * np.eye(2)
        V2 = np.zeros((2, 2))
        assert variational_nuclear_gap(A, B, (V1, V2), 1.0, 0.0) == np.inf
        assert np.isfinite(variational_nuclear_gap(A, B, (V1, V2), 2.0, 0.0))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_balanced_factorization_meets_nuclear_norm(self, data):
        # A = U sqrt(S), B = V sqrt(S) turns the ridge term into the norm
        p1, p2 = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 4))
        M = np.array(
            [[data.draw(finite) for _ in range(p2)] for _ in range(p1)]
        )
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        A = U * np.sqrt(s)
        B = Vt.T * np.sqrt(s)
        ridge = 0.5 * (np.sum(A * A) + np.sum(B * B))
        assert ridge == pytest.approx(np.sum(s), abs=1e-8)
        np.testing.assert_allclose(A @ B.T, M, atol=1e-8)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_dominates_exact_gap(self, data):
        p1, p2, r = 3, 3, 2
        A = np.array([[data.draw(finite) for _ in range(r)] for _ in range(p1)])
        B = np.array([[data.draw(finite) for _ in range(r)] for _ in range(p2)])
        lam1, lam2 = data.draw(st.floats(0.1, 2)), data.draw(st.floats(0.1, 2))
        V1 = np.array([[data.draw(finite) for _ in range(p2)] for _ in range(p1)])
        op = np.linalg.svd(V1, compute_uv=False)[0]
        if op > 0:
            V1 *= lam1 / op * data.draw(st.floats(0.1, 1.0))
        V2 = np.array(
            [[data.draw(st.floats(-1, 1)) for _ in range(p2)] for _ in range(p1)]
        ) * lam2
        theta = A @ B.T
        variational = variational_nuclear_gap(A, B, (V1, V2), lam1, lam2)
        exact = (
            lam1 * np.sum(np.linalg.svd(theta, compute_uv=False))
            + lam2 * np.sum(np.abs(theta))
            - np.sum((V1 + V2) * theta)
        )
        assert variational >= exact - 1e-8
        assert exact >= -1e-8


class TestZeroGapAtOracles:
    def test_soft_threshold_closes_gap(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            beta = rng.normal(0, 2, 5)
            lam = rng.uniform(0.2, 2)
            zhat = soft_threshold(beta, lam)
            u = np.clip(beta - zhat, -lam, lam)
            assert l1_gap(lam, zhat, u) <= 1e-8

    def test_svt_closes_gap(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            M = rng.normal(0, 1.5, (4, 3))
            lam = rng.uniform(0.2, 2)
            zhat = svt(M, lam)
            gap = fenchel_young_gap(Nuclear(lam, (4, 3)), zhat, M - zhat)
            assert gap <= 1e-8

    def test_kl_projection_closes_gap(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            beta = rng.dirichlet(np.full(4, 2.0))
            a = rng.normal(0, 1, 4)
            b = float(np.min(a)) + 0.3 * (float(a @ beta) - float(np.min(a)))
            zhat = kl_project(beta, a, b, tol=1e-14).z
            # recover the multiplier from the tilt and certify
            j = int(np.argmax(np.abs(a - a.mean())))
            with np.errstate(divide="ignore"):
                logr = np.log(zhat) - np.log(beta)
            nu = -(logr[j] - logr.mean()) / (a[j] - a.mean())
            nu = max(nu, 0.0)
            gap = kl_gap(beta, zhat, nu * a, Halfspace(a, b))
            assert gap <= 1e-6


class TestTheoremBounds:
    def test_distance_bound_l1(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            beta = rng.normal(0, 2, 6)
            lam = rng.uniform(0.2, 2)
            zhat = soft_threshold(beta, lam)
            z = zhat + rng.normal(0, 0.4, 6)
            u = np.clip(beta - zhat + rng.normal(0, 0.3, 6), -lam, lam)
            gap = proximal_duality_gap(L1(lam), z, u, beta)
            assert gap >= 0.0
            assert np.linalg.norm(z - zhat) <= np.sqrt(2.0 * gap) + 1e-8

    def test_kl_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            beta = rng.dirichlet(np.full(4, 2.0))
            a = rng.normal(0, 1, 4)
            b = float(np.min(a)) + 0.4 * (float(a @ beta) - float(np.min(a)))
            zhat = kl_project(beta, a, b, tol=1e-14).z
            t = rng.uniform()
            vertex = np.zeros(4)
            vertex[int(np.argmin(a))] = 1.0
            z = t * zhat + (1 - t) * vertex
            nu = rng.uniform(0, 3)
            gap = kl_gap(beta, z, nu * a, Halfspace(a, b))
            mask = z > 0
            kl = float(np.sum(z[mask] * np.log(z[mask] / zhat[mask])))
            assert kl <= gap + 1e-8


N_STACK = 50
CHAIN4 = np.diff(np.eye(4), axis=0) * -1.0


def _scaled_duals(rng, n, lam, shape):
    """Matrices with operator norm lam times a 0.5-1.5 factor: about half
    lie outside the nuclear conjugate's domain."""
    u = rng.normal(0, 1, (n,) + shape)
    top = np.linalg.svd(u, compute_uv=False)[:, 0]
    return u * (lam * rng.uniform(0.5, 1.5, n) / top)[:, None, None]


def _kl_cases(rng, n):
    beta = rng.dirichlet(np.ones(4), n)
    z = rng.dirichlet(np.ones(4), n)
    a = rng.normal(0, 1, (n, 4))
    # about a fifth of the points outside the halfspace, and a fifth of
    # the duals off the normal cone
    b = np.sum(a * z, axis=-1) + rng.uniform(-0.3, 1.0, n)
    u = rng.uniform(0, 2, n)[:, None] * a
    u[rng.uniform(size=n) < 0.2] += rng.normal(0, 0.1, 4)
    return beta, z, u, a, b


# Each gap kind the certification suites evaluate, as (gap of a case or a
# stack, draw of N_STACK cases along the leading axis).  The draws include
# infeasible cases.
STACK_KINDS = {
    "l1": (
        lambda lam, theta, u: fenchel_young_gap(L1(lam), theta, u),
        lambda rng, n: (
            lam := rng.uniform(0.2, 2.5, n),
            rng.normal(0, 2, (n, 4)),
            rng.uniform(-1.2, 1.2, (n, 4)) * lam[:, None],
        ),
    ),
    "l1_gap": (
        l1_gap,
        lambda rng, n: (
            lam := rng.uniform(0.2, 2.5, n),
            theta := rng.normal(0, 2, (n, 4)) * (rng.uniform(size=(n, 4)) < 0.7),
            np.sign(theta + 1e-3) * rng.uniform(-0.1, 1.05, (n, 4)) * lam[:, None],
        ),
    ),
    "proximal": (
        lambda lam, z, u, beta: proximal_duality_gap(L1(lam), z, u, beta),
        lambda rng, n: (
            lam := rng.uniform(0.2, 2.5, n),
            rng.normal(0, 2, (n, 4)),
            rng.uniform(-1.1, 1.1, (n, 4)) * lam[:, None],
            rng.normal(0, 2, (n, 4)),
        ),
    ),
    "gen_l1": (
        lambda lam, z, u, beta: generalized_l1_duality_gap(CHAIN4, lam, z, u, beta),
        lambda rng, n: (
            lam := rng.uniform(0.2, 2.5, n),
            rng.normal(0, 2, (n, 4)),
            rng.uniform(-1.1, 1.1, (n, 3)) * lam[:, None],
            rng.normal(0, 2, (n, 4)),
        ),
    ),
    "gen_l1_gap": (
        lambda lam, theta, u: generalized_l1_gap(CHAIN4, lam, theta, u),
        lambda rng, n: (
            lam := rng.uniform(0.2, 2.5, n),
            theta := rng.normal(0, 2, (n, 4)),
            np.sign(theta @ CHAIN4.T) * rng.uniform(-0.1, 1.05, (n, 3)) * lam[:, None],
        ),
    ),
    **{
        f"ball_{tag}": (
            lambda r, theta, u, tag=tag: fenchel_young_gap(NormBall(tag, r), theta, u),
            lambda rng, n: (
                rng.uniform(0.5, 2.5, n),
                rng.normal(0, 0.6, (n, 4)),
                rng.normal(0, 2, (n, 4)),
            ),
        )
        for tag in ("l1", "l2", "linf")
    },
    "group": (
        lambda r1, r2, theta, u: fenchel_young_gap(
            GroupL2(((0, 1), (2, 3)), (r1, r2)), theta, u
        ),
        lambda rng, n: (
            rng.uniform(0.5, 2.5, n),
            rng.uniform(0.5, 2.5, n),
            rng.normal(0, 1, (n, 4)),
            rng.normal(0, 2, (n, 4)),
        ),
    ),
    "quad": (
        lambda Q, theta, u: fenchel_young_gap(Quadratic(Q), theta, u),
        lambda rng, n: (
            (M := rng.normal(0, 1, (n, 4, 4))) @ np.swapaxes(M, -1, -2)
            + 0.1 * np.eye(4),
            rng.normal(0, 2, (n, 4)),
            rng.normal(0, 2, (n, 4)),
        ),
    ),
    "nuclear": (
        lambda lam, theta, u: fenchel_young_gap(Nuclear(lam, (3, 2)), theta, u),
        lambda rng, n: (
            lam := rng.uniform(0.2, 2.5, n),
            rng.normal(0, 1, (n, 3, 2)),
            _scaled_duals(rng, n, lam, (3, 2)),
        ),
    ),
    "sum": (
        lambda r1, r2, theta, v1, v2: variational_additive_gap(
            [NormBall("l1", r1), NormBall("linf", r2)],
            theta,
            [v1, v2],
            theta + v1 + v2,
        ),
        lambda rng, n: (
            rng.uniform(0.5, 2.5, n),
            rng.uniform(0.2, 1.0, n),
            rng.normal(0, 0.3, (n, 4)),
            rng.normal(0, 1, (n, 4)),
            rng.normal(0, 1, (n, 4)),
        ),
    ),
    "kl": (
        lambda beta, z, u, a, b: kl_gap(beta, z, u, Halfspace(a, b)),
        _kl_cases,
    ),
}


class TestStacks:
    """A stack of cases gives what each case gives alone."""

    @pytest.mark.parametrize("kind", sorted(STACK_KINDS))
    def test_stack_matches_single_cases(self, kind):
        gap, draw = STACK_KINDS[kind]
        args = draw(np.random.default_rng(sorted(STACK_KINDS).index(kind)), N_STACK)
        stacked = gap(*args)
        single = [gap(*(x[i] for x in args)) for i in range(N_STACK)]
        assert isinstance(stacked, np.ndarray) and stacked.shape == (N_STACK,)
        assert all(type(g) is float for g in single)
        single = np.array(single)
        finite = np.isfinite(single)
        np.testing.assert_array_equal(np.isfinite(stacked), finite)
        assert 0 < finite.sum() < N_STACK or kind == "quad"
        np.testing.assert_allclose(stacked[finite], single[finite], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", sorted(STACK_KINDS))
    def test_parameter_one_case_short_rejected(self, kind):
        gap, draw = STACK_KINDS[kind]
        args = list(draw(np.random.default_rng(0), N_STACK))
        args[0] = args[0][1:]
        with pytest.raises(DimensionError):
            gap(*args)

    def test_one_case_off_the_splitting_identity_rejected(self):
        gap, draw = STACK_KINDS["sum"]
        r1, r2, theta, v1, v2 = draw(np.random.default_rng(1), N_STACK)
        beta = theta + v1 + v2
        beta[17, 2] += 1e-6
        with pytest.raises(ContractViolationError):
            variational_additive_gap(
                [NormBall("l1", r1), NormBall("linf", r2)], theta, [v1, v2], beta
            )

    def test_one_case_off_the_simplex_rejected(self):
        beta, z, u, a, b = _kl_cases(np.random.default_rng(2), N_STACK)
        z[5] *= 1.01
        with pytest.raises(ValueError):
            kl_gap(beta, z, u, Halfspace(a, b))


class TestContainers:
    def test_simplex_validation(self):
        SimplexPoint([0.5, 0.5])
        with pytest.raises(ValueError):
            SimplexPoint([0.6, 0.6])
        with pytest.raises(ValueError):
            SimplexPoint([-0.1, 1.1])
