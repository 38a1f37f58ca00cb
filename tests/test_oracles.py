import numpy as np
import pytest
from scipy.optimize import brentq, minimize

from gapshrink import oracles
from gapshrink.errors import (
    ConvergenceError,
    DimensionError,
    InfeasibleError,
    UnsupportedPenaltyError,
)
from gapshrink.gaps import generalized_l1_gap
from gapshrink.oracles import (
    brute_force_prox,
    kl_project,
    project_l1_ball,
    prox_fused,
    soft_threshold,
    svt,
)
from gapshrink.penalties import GeneralizedL1, L1, NormBall


# three nodes in a cycle: D D' is singular, so the ADMM runs without the
# exact finish
CYCLE3 = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [-1.0, 0.0, 1.0]])


def chain(p):
    """Differences of neighbours on a p-node chain (full row rank)."""
    return np.diff(np.eye(p), axis=0) * -1.0


def assert_subgradient_optimal(beta, D, lam, z, dual):
    """beta - z must lie in lam * D' @ subgradient(||Dz||_1): active rows
    pin the multiplier at lam * sign(Dz); fused rows admit any value in
    [-lam, lam], so reconstruct one and check it exists."""
    d = D @ z
    active = np.abs(d) > 1e-6
    assert np.max(np.abs(dual)) <= lam + 1e-12
    np.testing.assert_allclose(dual[active], lam * np.sign(d[active]), atol=1e-6)
    rhs = beta - z - D[active].T @ dual[active]
    if np.any(~active):
        u_in, *_ = np.linalg.lstsq(D[~active].T, rhs, rcond=None)
        assert np.max(np.abs(u_in)) <= lam + 1e-6
        rhs = rhs - D[~active].T @ u_in
    assert np.max(np.abs(rhs)) <= 1e-6


class TestSoftThreshold:
    def test_basic(self):
        np.testing.assert_allclose(soft_threshold([3.0, -3.0], 1.0), [2.0, -2.0])
        np.testing.assert_allclose(soft_threshold([0.5, -0.2], 1.0), [0.0, 0.0])

    def test_identity_at_zero(self):
        x = np.array([1.0, -2.0, 0.3])
        np.testing.assert_allclose(soft_threshold(x, 0.0), x)


class TestNanParameters:
    # NaN passed the parameter checks: the first two returned NaN, and a
    # NaN tol ran the ADMM's whole iteration budget before raising
    def test_soft_threshold_and_l1_ball(self):
        beta = np.array([1.0, -2.0])
        with pytest.raises(ValueError, match="lam"):
            soft_threshold(beta, np.nan)
        for r in (np.nan, np.array([1.0, np.nan])):
            with pytest.raises(ValueError, match="radius"):
                project_l1_ball(np.stack([beta, beta]), r)

    def test_prox_fused_tol(self):
        with pytest.raises(ValueError, match="tol"):
            prox_fused(np.array([1.0, 0.0]), np.array([[1.0, -1.0]]), 1.0, tol=np.nan)

    def test_kl_project(self):
        # each returned as if the constraint were inactive
        for beta, a, b, field in (
            ([0.5, np.nan], [1.0, 2.0], 1.2, "beta"),
            ([0.5, 0.5], [1.0, 2.0], np.nan, "bound"),
            ([0.5, 0.5], [1.0, np.nan], 1.2, "vector"),
            ([[0.5, 0.5]] * 2, [[1.0, 2.0]] * 2, [1.2, np.nan], "bound"),
        ):
            with pytest.raises(ValueError, match=field):
                kl_project(beta, a, b)
        # an infinite bound still means an inactive or an empty constraint
        np.testing.assert_array_equal(kl_project([0.5, 0.5], [1.0, 2.0], np.inf).z, [0.5, 0.5])
        with pytest.raises(InfeasibleError):
            kl_project([0.5, 0.5], [1.0, 2.0], -np.inf)


class TestProjectL1Ball:
    def test_known_projections(self):
        np.testing.assert_allclose(project_l1_ball(np.array([3.0, 1.0]), 1.0), [1.0, 0.0])
        np.testing.assert_allclose(project_l1_ball(np.array([-3.0, 1.0]), 2.0), [-2.0, 0.0])

    def test_interior_unchanged(self):
        x = np.array([0.2, 0.1])
        np.testing.assert_allclose(project_l1_ball(x, 1.0), x)

    def test_agrees_with_grid_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            beta = rng.normal(0, 1.5, 2)
            r = rng.uniform(0.3, 1.5)
            ref = brute_force_prox(beta, NormBall("l1", r), 601)
            step = 4 * np.max(np.abs(beta)) / 600
            assert np.max(np.abs(project_l1_ball(beta, r) - ref)) <= 2 * step

    def test_result_on_ball(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            beta = rng.normal(0, 3, 8)
            r = rng.uniform(0.1, 2)
            z = project_l1_ball(beta, r)
            assert np.sum(np.abs(z)) <= r + 1e-10


class TestProxFused:
    D = np.array([[1.0, -1.0]])

    def test_pair_fuses_to_mean(self):
        res = prox_fused(np.array([1.0, 0.0]), self.D, 1.0, tol=1e-10)
        np.testing.assert_allclose(res.solution, [0.5, 0.5], atol=1e-8)
        assert res.residual <= 1e-10

    def test_zero_penalty_is_identity(self):
        beta = np.array([1.0, 0.0])
        res = prox_fused(beta, self.D, 0.0)
        np.testing.assert_allclose(res.solution, beta)

    def test_large_penalty_still_mean(self):
        res = prox_fused(np.array([1.0, 0.0]), self.D, 10.0, tol=1e-10)
        np.testing.assert_allclose(res.solution, [0.5, 0.5], atol=1e-8)

    def test_agrees_with_grid_oracle(self):
        # 2- and 3-node chains; the 3-D grid is coarser to bound its cost
        chain3 = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        rng = np.random.default_rng(2)
        for D, grid in ((self.D, 601), (chain3, 101)):
            for _ in range(10):
                beta = rng.normal(0, 1.5, D.shape[1])
                lam = rng.uniform(0.1, 1.5)
                spec = GeneralizedL1(D, lam)
                ref = brute_force_prox(beta, spec, grid)
                res = prox_fused(beta, D, lam, tol=1e-10)
                step = 4 * np.max(np.abs(beta)) / (grid - 1)
                assert np.max(np.abs(res.solution - ref)) <= 2 * step

    def test_subgradient_optimality(self):
        rng = np.random.default_rng(3)
        D = chain(5)
        for _ in range(20):
            beta = rng.normal(0, 2, 5)
            lam = rng.uniform(0.2, 1.5)
            res = prox_fused(beta, D, lam, tol=1e-10)
            assert_subgradient_optimal(beta, D, lam, res.solution, res.dual)

    def test_gap_certificate_within_contract(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            beta = rng.normal(0, 2, 6)
            D = chain(6)
            lam = rng.uniform(0.2, 1.5)
            tol = 1e-8
            res = prox_fused(beta, D, lam, tol=tol)
            gap = generalized_l1_gap(D, lam, res.solution, res.dual)
            assert gap <= 10 * tol

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(oracles, "_ADMM_MAX_ITER", 3)
        with pytest.raises(ConvergenceError) as err:
            prox_fused(np.array([5.0, -5.0, 0.0]), CYCLE3, 1.0, tol=1e-14)
        assert err.value.residual is not None

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            prox_fused(np.array([1.0, 0.0]), self.D, -0.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            prox_fused(np.array([1.0, 0.0, 2.0]), self.D, 1.0)


class TestExactFinish:
    """With D of full row rank, the ADMM finishes from its sign pattern."""

    def test_pair_finishes_at_first_iteration(self):
        res = prox_fused([5.0, -5.0], [[1.0, -1.0]], 1.0, tol=1e-14)
        assert res.iterations == 1
        np.testing.assert_array_equal(res.solution, [4.0, -4.0])
        np.testing.assert_array_equal(res.dual, [1.0])

    def test_chains_agree_with_tight_solves(self):
        # a zero row adds nothing to the penalty but makes D D' singular,
        # so the same problem also runs as plain ADMM
        rng = np.random.default_rng(20)
        for p in range(2, 9):
            D = chain(p)
            beta = rng.normal(0, 2, (30, p))
            lam = rng.uniform(0.1, 2.0, 30)
            res = prox_fused(beta, D, lam)
            single = [prox_fused(beta[i], D, lam[i], tol=1e-12).solution
                      for i in range(30)]
            plain = prox_fused(beta, np.vstack([D, np.zeros(p)]), lam, tol=1e-12)
            np.testing.assert_allclose(res.solution, single, rtol=0, atol=1e-10)
            np.testing.assert_allclose(res.solution, plain.solution, rtol=0, atol=1e-10)
            assert np.all(res.iterations < plain.iterations)

    def test_finished_cases_meet_the_contract(self):
        rng = np.random.default_rng(21)
        tol = 1e-8
        for p in range(2, 9):
            D = chain(p)
            beta = rng.normal(0, 2, (20, p))
            lam = rng.uniform(0.2, 1.5, 20)
            res = prox_fused(beta, D, lam, tol=tol)
            # an exact finish leaves only rounding in the fused contrasts
            assert np.all(res.residual <= 1e-12)
            assert np.all(generalized_l1_gap(D, lam, res.solution, res.dual) <= 10 * tol)
            for i in range(20):
                assert_subgradient_optimal(beta[i], D, lam[i], res.solution[i], res.dual[i])

    def test_rank_deficient_graph_meets_the_contract(self):
        # the complete graph on 4 nodes: 6 contrasts of rank 3
        D = np.array([np.eye(4)[i] - np.eye(4)[j]
                      for i in range(4) for j in range(i + 1, 4)])
        rng = np.random.default_rng(22)
        tol = 1e-8
        beta = rng.normal(0, 2, (20, 4))
        lam = rng.uniform(0.2, 1.5, 20)
        res = prox_fused(beta, D, lam, tol=tol)
        assert np.all(res.residual <= tol)
        assert np.all(generalized_l1_gap(D, lam, res.solution, res.dual) <= 10 * tol)
        tight = prox_fused(beta, D, lam, tol=1e-12)
        np.testing.assert_allclose(res.solution, tight.solution, rtol=0, atol=1e-7)


class TestSVT:
    def test_diagonal(self):
        np.testing.assert_allclose(
            svt(np.diag([3.0, 1.0]), 2.0), np.diag([1.0, 0.0]), atol=1e-12
        )

    def test_zero_threshold_identity(self):
        M = np.arange(6.0).reshape(2, 3)
        np.testing.assert_allclose(svt(M, 0.0), M, atol=1e-12)

    def test_matches_direct_minimization(self):
        # free-form search over 3x3 matrices cannot beat the closed form
        rng = np.random.default_rng(5)
        M = rng.normal(0, 1, (3, 3))
        lam = 1.0

        def objective(flat):
            Z = flat.reshape(3, 3)
            return 0.5 * np.sum((M - Z) ** 2) + lam * np.sum(
                np.linalg.svd(Z, compute_uv=False)
            )

        zhat = svt(M, lam)
        best = objective(zhat.ravel())
        for scale in (0.0, 0.3, 1.0):
            start = zhat.ravel() + scale * rng.normal(size=9)
            res = minimize(objective, start, method="Powell",
                           options={"xtol": 1e-10, "ftol": 1e-12, "maxiter": 20000})
            assert best <= res.fun + 1e-7


class TestKLProject:
    def test_inactive_constraint(self):
        z = kl_project([0.5, 0.5], [1.0, 1.0], 1.0)
        np.testing.assert_allclose(z.z, [0.5, 0.5])

    def test_active_constraint_tilts(self):
        z = kl_project([0.8, 0.2], [1.0, 0.0], 0.5)
        np.testing.assert_allclose(z.z, [0.5, 0.5], atol=1e-10)

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            kl_project([0.5, 0.5], [1.0, 1.0], -1.0)

    def test_agrees_with_grid_search(self):
        beta = np.array([0.8, 0.2])
        a = np.array([1.0, 0.0])
        b = 0.5
        z1 = np.linspace(1e-6, b, 4001)
        kl = z1 * np.log(z1 / beta[0]) + (1 - z1) * np.log((1 - z1) / beta[1])
        ref = z1[np.argmin(kl)]
        z = kl_project(beta, a, b)
        assert abs(z.z[0] - ref) <= 2 * (z1[1] - z1[0])

    def test_complementary_slackness(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            beta = rng.dirichlet(np.full(5, 1.5))
            a = rng.normal(0, 1, 5)
            b = float(np.min(a)) + rng.uniform(0.05, 1.2) * (
                float(a @ beta) - float(np.min(a))
            )
            z = kl_project(beta, a, b, tol=1e-12).z
            assert float(a @ z) <= b + 1e-9
            assert np.all(z > 0)

    def test_unreachable_tolerance_ends_at_root(self):
        # at nu ~ 2770, |nu * h| <= 1e-13 needs |h| below float resolution;
        # the search must still stop feasible and at the root of h
        beta = np.array([0.6769707037609278, 0.3230292962390721])
        a = np.array([-0.4927971811494493, -0.49355157317994464])
        b = -0.493396196726554
        z = kl_project(beta, a, b, tol=1e-13).z
        assert float(a @ z) - b <= 1e-12

        def h(nu):
            w = beta * np.exp(-nu * (a - a.min()))
            return float(a @ (w / w.sum())) - b

        root = brentq(h, 0.0, 1e4, xtol=1e-12, rtol=1e-15)
        # z_j / beta_j is proportional to exp(-nu a_j)
        nu = np.log((z[1] / beta[1]) / (z[0] / beta[0])) / (a[0] - a[1])
        assert abs(nu - root) <= 1e-9 * root

    def test_zero_tolerance_stops_on_feasible_side(self):
        # tol = 0 is met only where h is exactly 0; elsewhere the search
        # must stop once its bracket collapses, at the feasible end
        rng = np.random.default_rng(7)
        for _ in range(50):
            beta = rng.dirichlet(np.full(4, 2.0))
            a = rng.normal(0, 1, 4)
            b = float(np.min(a)) + rng.uniform(0.05, 1.0) * (
                float(a @ beta) - float(np.min(a))
            )
            z = kl_project(beta, a, b, tol=0.0).z
            assert float(a @ z) <= b

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(oracles, "_KL_MAX_ITER", 1)
        with pytest.raises(ConvergenceError) as err:
            kl_project([0.8, 0.2], [1.0, 0.0], 0.5)
        assert err.value.residual is not None


class TestBruteForce:
    def test_matches_soft_threshold_1d(self):
        z = brute_force_prox(np.array([3.0]), L1(1.0), 1001)
        step = 12.0 / 1000
        assert abs(z[0] - 2.0) <= step

    def test_fused_2d(self):
        z = brute_force_prox(np.array([1.0, 0.0]), GeneralizedL1([[1.0, -1.0]], 1.0), 801)
        np.testing.assert_allclose(z, [0.5, 0.5], atol=2 * 4.0 / 800)

    def test_l1_ball_2d(self):
        z = brute_force_prox(np.array([3.0, 1.0]), NormBall("l1", 1.0), 801)
        np.testing.assert_allclose(z, [1.0, 0.0], atol=2 * 12.0 / 800)

    def test_dimension_cap(self):
        with pytest.raises(UnsupportedPenaltyError):
            brute_force_prox(np.zeros(4), L1(1.0), 11)


class TestStacks:
    """A stack of cases gives what each case gives alone."""

    N = 50

    @staticmethod
    def agree(stacked, single):
        np.testing.assert_allclose(stacked, np.array(single), rtol=1e-12, atol=1e-15)

    def test_soft_threshold(self):
        rng = np.random.default_rng(10)
        beta = rng.normal(0, 2, (self.N, 5))
        lam = rng.uniform(0.2, 2.0, self.N)
        self.agree(soft_threshold(beta, lam),
                   [soft_threshold(beta[i], lam[i]) for i in range(self.N)])

    def test_project_l1_ball(self):
        rng = np.random.default_rng(11)
        beta = rng.normal(0, 2, (self.N, 5))
        r = rng.uniform(0.5, 12.0, self.N)
        inside = np.sum(np.abs(beta), axis=-1) <= r
        assert 0 < inside.sum() < self.N
        out = project_l1_ball(beta, r)
        self.agree(out, [project_l1_ball(beta[i], r[i]) for i in range(self.N)])
        np.testing.assert_array_equal(out[inside], beta[inside])

    def test_svt(self):
        rng = np.random.default_rng(12)
        M = rng.normal(0, 1.5, (self.N, 4, 3))
        lam = rng.uniform(0.2, 3.0, self.N)
        self.agree(svt(M, lam), [svt(M[i], lam[i]) for i in range(self.N)])

    def test_kl_project(self):
        rng = np.random.default_rng(13)
        beta = rng.dirichlet(np.full(5, 1.5), self.N)
        a = rng.normal(0, 1, (self.N, 5))
        amin = np.min(a, axis=-1)
        b = amin + rng.uniform(0.05, 1.4, self.N) * (np.sum(a * beta, axis=-1) - amin)
        z = kl_project(beta, a, b, tol=1e-13).z
        self.agree(z, [kl_project(beta[i], a[i], b[i], tol=1e-13).z
                       for i in range(self.N)])
        assert np.all(np.sum(a * z, axis=-1) <= b + 1e-12)

    def test_prox_fused(self):
        rng = np.random.default_rng(14)
        D = chain(5)
        beta = rng.normal(0, 2, (self.N, 5))
        lam = rng.uniform(0.1, 1.5, self.N)
        lam[::10] = 0.0
        res = prox_fused(beta, D, lam, tol=1e-10)
        single = [prox_fused(beta[i], D, lam[i], tol=1e-10) for i in range(self.N)]
        assert all(type(r.iterations) is int for r in single)
        np.testing.assert_array_equal(res.iterations, [r.iterations for r in single])
        assert np.all(res.iterations[::10] == 0)
        for field in ("solution", "objective", "residual", "dual"):
            self.agree(getattr(res, field), [getattr(r, field) for r in single])

    def test_parameter_one_case_short_rejected(self):
        rng = np.random.default_rng(15)
        beta = rng.normal(0, 2, (self.N, 3))
        short = rng.uniform(0.5, 1.5, self.N - 1)
        D = np.diff(np.eye(3), axis=0)
        calls = (
            lambda: soft_threshold(beta, short),
            lambda: project_l1_ball(beta, short),
            lambda: svt(beta.reshape(self.N, 3, 1), short),
            lambda: prox_fused(beta, D, short),
            lambda: kl_project(np.full((self.N, 3), 1 / 3), beta, short),
        )
        for call in calls:
            with pytest.raises(DimensionError):
                call()

    def test_one_infeasible_case_raises(self):
        beta = np.full((self.N, 2), 0.5)
        a = np.tile([1.0, 0.0], (self.N, 1))
        b = np.full(self.N, 0.5)
        b[7] = -1.0
        with pytest.raises(InfeasibleError):
            kl_project(beta, a, b)

    def test_one_case_over_budget_raises(self, monkeypatch):
        monkeypatch.setattr(oracles, "_ADMM_MAX_ITER", 3)
        beta = np.array([[1.0, 0.0, 0.0], [5.0, -5.0, 0.0]])
        with pytest.raises(ConvergenceError) as err:
            # the lam = 0 case exits at once; the other needs far more steps
            prox_fused(beta, CYCLE3, [0.0, 1.0], tol=1e-14)
        assert err.value.residual is not None
