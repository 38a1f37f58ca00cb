import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gapshrink.priors import (
    EdgeGraph,
    complete_graph,
    log_gap_prior_fused,
    log_gap_prior_l1,
    log_gap_prior_nuclear_sparse,
    marginal_l1_lower_bound,
    marginal_l1_prior,
    pairwise_diff_penalty,
    pairwise_diff_penalty_median_form,
)
from gapshrink.samplers import HYPERPRIORS
from gapshrink.samplers.base import box_strength_logpdf
from gapshrink.samplers.fused_probit import (
    edge_dual_conditional_logpdf,
    omega_conditional_logpdf,
    rho_conditional_logpdf,
)
from gapshrink.samplers.matrix_smoothing import (
    v1_conditional_logpdf,
    v2_conditional_logpdf,
)


class TestL1Prior:
    def test_origin(self):
        assert log_gap_prior_l1([0.0], [0.0], 1.0, 1.0) == pytest.approx(0.0)

    def test_gap_vanishes_at_escaped_dual(self):
        # |u| = lam kills the gap term; only the kernel at theta + u remains
        val = log_gap_prior_l1([2.0], [1.0], 1.0, 1.0)
        assert val == pytest.approx(-np.log(10.0))

    def test_infeasible(self):
        assert log_gap_prior_l1([1.0], [2.0], 1.0, 1.0) == -np.inf
        assert log_gap_prior_l1([1.0], [-0.5], 1.0, 1.0) == -np.inf

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_monotone_local_escape(self, data):
        """For alpha |theta| >= 1 the density increases as the matching
        dual climbs toward the box edge, freeing the coordinate."""
        alpha = data.draw(st.floats(1.0, 2000.0))
        lam = data.draw(st.floats(0.1, 2.0))
        theta = data.draw(st.floats(0.01, 4.0))
        assume(alpha * theta >= 1.0)
        us = np.linspace(0.0, lam, 20)
        vals = [log_gap_prior_l1([theta], [u], lam, alpha) for u in us]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_finite_exactly_on_feasible_region(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            theta = rng.normal(0, 2, 3)
            u = rng.normal(0, 1, 3)
            val = log_gap_prior_l1(theta, u, 1.0, 1.0)
            feasible = np.max(np.abs(u)) <= 1.0 and np.all(
                (theta == 0) | (u * theta >= 0)
            )
            assert np.isfinite(val) == feasible


class TestFusedPrior:
    def test_constant_rows_have_zero_gap(self):
        graph = complete_graph([[0, 1, 2]])
        theta = np.ones((3, 2)) * 0.7
        v = np.zeros((graph.n_edges, 2))
        got = log_gap_prior_fused(theta, v, graph, 1.0, 0.5, 1.0)
        # gap term zero, so only the kernel of theta remains
        assert got == pytest.approx(-np.sum(theta**2) / 200.0)

    def test_single_edge_arithmetic(self):
        # one cross edge of weight omega = 0.5: gap 0.5 |1 - 0| - 0.5 * 0.5,
        # anchor theta + B^T (0.5 v) = (1.25, -0.25)
        graph = EdgeGraph(2, [(0, 1)], [True])
        theta = np.array([[1.0], [0.0]])
        v = np.full((1, 1), 0.5)
        got = log_gap_prior_fused(theta, v, graph, 1.0, 0.5, 1.0)
        assert got == pytest.approx(-0.25 - (1.25**2 + 0.25**2) / 200.0)

    def test_dual_outside_box(self):
        graph = complete_graph([[0, 1]])
        theta = np.zeros((2, 1))
        v = np.full((1, 1), 2.0)
        assert log_gap_prior_fused(theta, v, graph, 1.0, 0.5, 1.0) == -np.inf

    def test_weights(self):
        graph = complete_graph([[0, 1], [2]])
        np.testing.assert_array_equal(graph.cross, [False, True, True])
        np.testing.assert_array_equal(graph.weights(0.3), [1.0, 0.3, 0.3])

    def test_complete_graph_edge_order(self):
        # every pair j < k once, in row-major order; groups need not be
        # contiguous or lists
        graph = complete_graph([(0, 2), [1, 3]])
        pairs = [(j, k) for j in range(4) for k in range(j + 1, 4)]
        np.testing.assert_array_equal(graph.edges, pairs)
        np.testing.assert_array_equal(
            graph.cross, [True, False, True, True, False, True]
        )

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            EdgeGraph(2, [(0, 5)], [False])

    def test_misaligned_cross_rejected(self):
        with pytest.raises(ValueError):
            EdgeGraph(3, [(0, 1), (1, 2)], [False])


class TestNuclearSparsePrior:
    def test_all_zero(self):
        A = np.zeros((2, 1))
        B = np.zeros((2, 1))
        V = np.zeros((2, 2))
        assert log_gap_prior_nuclear_sparse(A, B, V, V, 1.0, 1.0) == pytest.approx(0.0)

    def test_balanced_optimum_gap_free(self):
        s2 = np.sqrt(2.0)
        A = np.array([[s2], [0.0]])
        B = np.array([[s2], [0.0]])
        V1 = np.zeros((2, 2))
        V1[0, 0] = 1.0
        got = log_gap_prior_nuclear_sparse(A, B, V1, np.zeros((2, 2)), 1.0, 1.0)
        theta = A @ B.T
        # lam2 ||theta||_1 survives: entries (2,0,0,0) with lam2=1 give 2
        expected = -2.0 - np.sum((theta + V1) ** 2) / 200.0
        assert got == pytest.approx(expected)

    def test_v2_outside_box(self):
        A = np.zeros((2, 1))
        B = np.zeros((2, 1))
        V2 = np.full((2, 2), 1.5)
        got = log_gap_prior_nuclear_sparse(
            A, B, np.zeros((2, 2)), V2, 1.0, 1.0
        )
        assert got == -np.inf


class TestMarginalPrior:
    def test_value_at_origin(self):
        # gap factor is identically 1 at theta = 0, leaving the Cauchy mass
        assert marginal_l1_prior(0.0, 1.0, 1.0) == pytest.approx(np.pi / 2, rel=1e-8)

    def test_import_leaves_quadrature_stack_unloaded(self, fresh_python):
        # scipy.integrate (with scipy.optimize and scipy.sparse) loads only
        # when the quadrature marginal is first called
        code = (
            "import math, sys, gapshrink.priors\n"
            "heavy = ('scipy.integrate', 'scipy.optimize', 'scipy.sparse')\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
            "v = gapshrink.priors.marginal_l1_prior(0, 1, 1)\n"
            "print(abs(v - math.pi / 2) <= 1e-8 * math.pi / 2)\n"
        )
        assert fresh_python(code)[:2] == ["[]", "True"]

    def test_tail_lower_bound(self):
        for theta in (5.0, 10.0, 20.0, 40.0):
            assert marginal_l1_prior(theta, 1.0, 1.0) >= marginal_l1_lower_bound(
                theta, 1.0, 1.0
            )

    def test_cubic_power_law_tail(self):
        v20 = marginal_l1_prior(20.0, 1.0, 1.0)
        v40 = marginal_l1_prior(40.0, 1.0, 1.0)
        slope = (np.log(v40) - np.log(v20)) / (np.log(40.0) - np.log(20.0))
        assert slope >= -3.5
        # and the ratio tracks the |theta|^-3 law within a factor of two
        assert 0.5 * 8.0 <= v20 / v40 <= 2.0 * 8.0


class TestOrderStatisticsIdentity:
    @given(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=8),
        st.floats(0.01, 5.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_median_form_matches_double_sum(self, values, rho):
        direct = pairwise_diff_penalty(values, rho)
        median = pairwise_diff_penalty_median_form(values, rho)
        scale = max(1.0, abs(direct))
        assert abs(direct - median) <= 1e-10 * scale

    def test_exact_small_case(self):
        vals = [3.0, -1.0, 2.0]
        # pairs: |3-(-1)| + |3-2| + |-1-2| = 4 + 1 + 3
        assert pairwise_diff_penalty(vals) == pytest.approx(8.0)
        assert pairwise_diff_penalty_median_form(vals) == pytest.approx(8.0)


class TestSpecValidation:
    """The parameter checks of the three reference densities."""

    theta = np.zeros((2, 1))

    def test_alpha_positive(self):
        graph = complete_graph([[0, 1]])
        A, V = np.zeros((2, 1)), np.zeros((2, 2))
        for alpha in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                log_gap_prior_l1([0.0], [0.0], 1.0, alpha)
            with pytest.raises(ValueError):
                log_gap_prior_nuclear_sparse(A, A, V, V, 1.0, alpha)
            with pytest.raises(ValueError):
                log_gap_prior_fused(
                    self.theta, np.zeros((1, 1)), graph, 1.0, 0.5, alpha
                )

    def test_strengths_nonnegative(self):
        graph = complete_graph([[0, 1]])
        A, V = np.zeros((2, 1)), np.zeros((2, 2))
        with pytest.raises(ValueError):
            log_gap_prior_l1([0.0], [0.0], -0.1, 1.0)
        with pytest.raises(ValueError):
            log_gap_prior_nuclear_sparse(A, A, V, V, -0.1, 1.0)
        with pytest.raises(ValueError):
            log_gap_prior_fused(self.theta, np.zeros((1, 1)), graph, -0.1, 0.5, 1.0)
        # a zero strength is allowed: the box pins the dual at zero
        assert log_gap_prior_l1([0.0], [0.0], 0.0, 1.0) == 0.0

    def test_omega_in_unit_interval(self):
        graph = complete_graph([[0], [1]])
        for omega in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                log_gap_prior_fused(
                    self.theta, np.zeros((1, 1)), graph, 1.0, omega, 1.0
                )


def log_inverse_gamma(x, key):
    a, b = HYPERPRIORS[key]
    return -(a + 1.0) * np.log(x) - b / x


def log_beta(x, key):
    a, b = HYPERPRIORS[key]
    return (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x)


class TestSamplerConditionalsMatchJoint:
    """Each conditional a sampler draws from is its model's joint density
    (reference prior plus HYPERPRIORS log prior) up to a constant: on a
    frozen state, the conditional's differences between three points equal
    the joint's."""

    def assert_same_differences(self, conditional, joint, points):
        c = np.array([conditional(x) for x in points])
        j = np.array([joint(x) for x in points])
        assert np.all(np.isfinite(c)) and np.all(np.isfinite(j))
        np.testing.assert_allclose(c[1:] - c[0], j[1:] - j[0], rtol=0.0, atol=1e-12)

    def l1_state(self):
        rng = np.random.default_rng(1)
        theta = rng.normal(0.0, 1.0, 5)
        u = np.sign(theta) * rng.uniform(0.0, 0.6, 5)
        return theta, u

    def matrix_state(self):
        rng = np.random.default_rng(2)
        A = rng.normal(0.0, 1.0, (3, 2))
        B = rng.normal(0.0, 1.0, (4, 2))
        V1 = rng.normal(0.0, 0.3, (3, 4))
        V2 = rng.uniform(-0.5, 0.5, (3, 4))
        return A, B, V1, V2

    def fused_state(self):
        rng = np.random.default_rng(3)
        graph = complete_graph([[0, 1], [2, 3]])
        theta = rng.normal(0.0, 1.0, (4, 2))
        v_unit = rng.uniform(-1.0, 1.0, (graph.n_edges, 2))
        return graph, theta, v_unit

    def test_lam_against_l1_prior(self):
        theta, u = self.l1_state()
        alpha = 3.0
        abs_sum, dual_max = float(np.sum(np.abs(theta))), float(np.max(np.abs(u)))
        self.assert_same_differences(
            lambda lam: box_strength_logpdf(lam, abs_sum, dual_max, alpha),
            lambda lam: log_gap_prior_l1(theta, u, lam, alpha)
            + log_inverse_gamma(lam, "lam"),
            [0.7, 1.1, 2.5],
        )

    def test_lam2_against_nuclear_sparse_prior(self):
        A, B, V1, V2 = self.matrix_state()
        alpha = 2.0
        abs_sum = float(np.sum(np.abs(A @ B.T)))
        dual_max = float(np.max(np.abs(V2)))
        self.assert_same_differences(
            lambda lam2: box_strength_logpdf(lam2, abs_sum, dual_max, alpha),
            lambda lam2: log_gap_prior_nuclear_sparse(A, B, V1, V2, lam2, alpha)
            + log_inverse_gamma(lam2, "lam"),
            [0.6, 0.9, 1.7],
        )

    def test_v2_against_nuclear_sparse_prior(self):
        A, B, V1, V2 = self.matrix_state()
        alpha, lam2, (i, j) = 2.0, 0.8, (1, 2)
        theta = A @ B.T

        def joint(x):
            V = V2.copy()
            V[i, j] = x
            return log_gap_prior_nuclear_sparse(A, B, V1, V, lam2, alpha)

        self.assert_same_differences(
            lambda x: v2_conditional_logpdf(x, theta[i, j], V1[i, j], lam2, alpha),
            joint, [-0.7, 0.1, 0.5],
        )

    def test_v1_against_nuclear_sparse_prior(self):
        A, B, V1, V2 = self.matrix_state()
        alpha, lam2, (i, j) = 2.0, 0.8, (2, 0)
        theta = A @ B.T
        coupling = alpha * 0.5 * (float(np.sum(A * A)) + float(np.sum(B * B)))
        r2_rest = float(np.sum(V1 * V1)) - V1[i, j] ** 2

        def joint(x):
            V = V1.copy()
            V[i, j] = x
            return log_gap_prior_nuclear_sparse(A, B, V, V2, lam2, alpha)

        self.assert_same_differences(
            lambda x: v1_conditional_logpdf(
                x, theta[i, j], theta[i, j] + V2[i, j], coupling, r2_rest, alpha
            ),
            joint, [-0.4, 0.0, 0.9],
        )

    def test_edge_dual_against_fused_prior(self):
        graph, theta, v_unit = self.fused_state()
        rho, omega, alpha, (e, k) = 0.7, 0.4, 2.0, (1, 1)
        v = rho * v_unit
        w = graph.weights(omega)
        B = graph.incidence()
        anchor = theta + B.T @ (w[:, None] * v)
        j1, j2 = graph.edges[e]
        old = w[e] * v[e, k]
        d_ek = (B @ theta)[e, k]

        def joint(x):
            vx = v.copy()
            vx[e, k] = x
            return log_gap_prior_fused(theta, vx, graph, rho, omega, alpha)

        self.assert_same_differences(
            lambda x: edge_dual_conditional_logpdf(
                x, d_ek, anchor[j1, k] - old, anchor[j2, k] + old, w[e], rho,
                alpha,
            ),
            joint, [-0.6, 0.2, 0.65],
        )

    def test_rho_against_fused_prior(self):
        graph, theta, v_unit = self.fused_state()
        omega, alpha = 0.4, 2.0
        w = graph.weights(omega)[:, None]
        B = graph.incidence()
        d = B @ theta
        sum_w_absdiff = float(np.sum(w * np.abs(d)))
        sum_w_vunit_d = float(np.sum(w * v_unit * d))
        q_unit = B.T @ (w * v_unit)
        self.assert_same_differences(
            lambda rho: rho_conditional_logpdf(
                rho, sum_w_absdiff, sum_w_vunit_d, theta, q_unit, alpha
            ),
            lambda rho: log_gap_prior_fused(
                theta, rho * v_unit, graph, rho, omega, alpha
            ) + log_inverse_gamma(rho, "rho"),
            [0.3, 0.8, 1.9],
        )

    def test_omega_against_fused_prior(self):
        graph, theta, v_unit = self.fused_state()
        rho, alpha = 0.7, 2.0
        v = rho * v_unit
        cross = graph.cross
        B = graph.incidence()
        d = B @ theta
        self.assert_same_differences(
            lambda omega: omega_conditional_logpdf(
                omega, rho, float(np.sum(np.abs(d[cross]))),
                float(np.sum(v[cross] * d[cross])), theta,
                B.T @ (~cross[:, None] * v), B.T @ (cross[:, None] * v), alpha,
            ),
            lambda omega: log_gap_prior_fused(theta, v, graph, rho, omega, alpha)
            + log_beta(omega, "omega_cross"),
            [0.15, 0.5, 0.85],
        )
