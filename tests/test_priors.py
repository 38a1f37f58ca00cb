import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import gapshrink
from gapshrink.priors import (
    BaseKernel,
    EdgeGraph,
    GapPriorSpec,
    complete_graph,
    log_gap_prior_fused,
    log_gap_prior_l1,
    log_gap_prior_nuclear_sparse,
    marginal_l1_lower_bound,
    marginal_l1_prior,
    pairwise_diff_penalty,
    pairwise_diff_penalty_median_form,
)


def l1_spec(alpha=1.0, lam=1.0):
    return GapPriorSpec(alpha=alpha, kernel=BaseKernel.cauchy(), hyper={"lam": lam})


class TestL1Prior:
    def test_origin(self):
        assert log_gap_prior_l1([0.0], [0.0], l1_spec()) == pytest.approx(0.0)

    def test_gap_vanishes_at_escaped_dual(self):
        # |u| = lam kills the gap term; only the kernel at theta + u remains
        val = log_gap_prior_l1([2.0], [1.0], l1_spec())
        assert val == pytest.approx(-np.log(10.0))

    def test_infeasible(self):
        assert log_gap_prior_l1([1.0], [2.0], l1_spec()) == -np.inf
        assert log_gap_prior_l1([1.0], [-0.5], l1_spec()) == -np.inf

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_monotone_local_escape(self, data):
        """For alpha |theta| >= 1 the density increases as the matching
        dual climbs toward the box edge, freeing the coordinate."""
        alpha = data.draw(st.floats(1.0, 2000.0))
        lam = data.draw(st.floats(0.1, 2.0))
        theta = data.draw(st.floats(0.01, 4.0))
        assume(alpha * theta >= 1.0)
        spec = l1_spec(alpha=alpha, lam=lam)
        us = np.linspace(0.0, lam, 20)
        vals = [log_gap_prior_l1([theta], [u], spec) for u in us]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_finite_exactly_on_feasible_region(self):
        spec = l1_spec()
        rng = np.random.default_rng(0)
        for _ in range(200):
            theta = rng.normal(0, 2, 3)
            u = rng.normal(0, 1, 3)
            val = log_gap_prior_l1(theta, u, spec)
            feasible = np.max(np.abs(u)) <= 1.0 and np.all(
                (theta == 0) | (u * theta >= 0)
            )
            assert np.isfinite(val) == feasible


class TestFusedPrior:
    def test_constant_rows_have_zero_gap(self):
        graph = complete_graph([[0, 1, 2]])
        spec = GapPriorSpec(
            alpha=1.0, kernel=BaseKernel.gaussian(10.0), hyper={"rho": 1.0}
        )
        theta = np.ones((3, 2)) * 0.7
        v = np.zeros((graph.n_edges, 2))
        got = log_gap_prior_fused(theta, v, graph, spec)
        # gap term zero, so only the kernel of theta remains
        assert got == pytest.approx(-np.sum(theta**2) / 200.0)

    def test_single_edge_arithmetic(self):
        graph = EdgeGraph(2, [(0, 1)], [1.0], [False])
        spec = GapPriorSpec(
            alpha=1.0, kernel=BaseKernel.cauchy(), hyper={"rho": 1.0}
        )
        theta = np.array([[1.0], [0.0]])
        v = np.zeros((1, 1))
        got = log_gap_prior_fused(theta, v, graph, spec)
        assert got == pytest.approx(-1.0 - np.log(2.0))

    def test_dual_outside_box(self):
        graph = complete_graph([[0, 1]])
        spec = GapPriorSpec(
            alpha=1.0, kernel=BaseKernel.gaussian(10.0), hyper={"rho": 1.0}
        )
        theta = np.zeros((2, 1))
        v = np.full((1, 1), 2.0)
        assert log_gap_prior_fused(theta, v, graph, spec) == -np.inf

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            EdgeGraph(2, [(0, 5)], [1.0], [False])


class TestNuclearSparsePrior:
    spec = GapPriorSpec(
        alpha=1.0, kernel=BaseKernel.gaussian(10.0), hyper={"lam2": 1.0}
    )

    def test_all_zero(self):
        A = np.zeros((2, 1))
        B = np.zeros((2, 1))
        V = np.zeros((2, 2))
        assert log_gap_prior_nuclear_sparse(A, B, V, V, self.spec) == pytest.approx(0.0)

    def test_balanced_optimum_gap_free(self):
        s2 = np.sqrt(2.0)
        A = np.array([[s2], [0.0]])
        B = np.array([[s2], [0.0]])
        V1 = np.zeros((2, 2))
        V1[0, 0] = 1.0
        got = log_gap_prior_nuclear_sparse(A, B, V1, np.zeros((2, 2)), self.spec)
        theta = A @ B.T
        # lam2 ||theta||_1 survives: entries (2,0,0,0) with lam2=1 give 2
        expected = -2.0 - np.sum((theta + V1) ** 2) / 200.0
        assert got == pytest.approx(expected)

    def test_v2_outside_box(self):
        A = np.zeros((2, 1))
        B = np.zeros((2, 1))
        V2 = np.full((2, 2), 1.5)
        got = log_gap_prior_nuclear_sparse(A, B, np.zeros((2, 2)), V2, self.spec)
        assert got == -np.inf


class TestMarginalPrior:
    def test_value_at_origin(self):
        # gap factor is identically 1 at theta = 0, leaving the Cauchy mass
        assert marginal_l1_prior(0.0, 1.0, 1.0) == pytest.approx(np.pi / 2, rel=1e-8)

    def test_import_leaves_quadrature_stack_unloaded(self):
        # scipy.integrate (with scipy.optimize and scipy.sparse) loads only
        # when the quadrature marginal is first called
        code = (
            "import math, sys, gapshrink\n"
            "heavy = ('scipy.integrate', 'scipy.optimize', 'scipy.sparse')\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
            "v = gapshrink.marginal_l1_prior(0, 1, 1)\n"
            "print(abs(v - math.pi / 2) <= 1e-8 * math.pi / 2)\n"
        )
        src = str(Path(gapshrink.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        assert out.stdout.split("\n")[:2] == ["[]", "True"]

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
    def test_alpha_positive(self):
        with pytest.raises(ValueError):
            GapPriorSpec(alpha=0.0, kernel=BaseKernel.cauchy())

    def test_omega_in_unit_interval(self):
        with pytest.raises(ValueError):
            GapPriorSpec(
                alpha=1.0, kernel=BaseKernel.cauchy(), hyper={"omega_cross": 1.5}
            )

    def test_kernel_kinds(self):
        with pytest.raises(ValueError):
            BaseKernel("laplace")
        with pytest.raises(ValueError):
            BaseKernel.gaussian(-1.0)
