"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The two experiment reproductions run at full scale and dominate
the suite's runtime (a few minutes together).
"""

import time

import numpy as np
import pytest
from scipy.stats import ks_2samp

from gapshrink.certify import (
    check_gap_nonnegativity,
    check_theorem1,
    check_theorem2,
    check_zero_gap,
    run_gap_check,
)
from gapshrink.datasets import gen_sparse_regression
from gapshrink.diagnostics import acf, ess
from gapshrink.experiments import ExperimentConfig, load_thresholds, run_experiment
from gapshrink.priors import (
    complete_graph,
    marginal_l1_lower_bound,
    marginal_l1_prior,
    pairwise_diff_penalty,
    pairwise_diff_penalty_median_form,
)
from gapshrink.rng import slice_sample_1d, stream
from gapshrink.samplers import SamplerConfig, gibbs_sparse_regression
from gapshrink.samplers.base import box_strength_logpdf, box_strength_step
from gapshrink.samplers.comparators import lasso_lam_logpdf, lasso_lam_step
from gapshrink.samplers.fused_probit import (
    edge_classes,
    edge_dual_block_draw,
    edge_dual_conditional_logpdf,
    omega_conditional_logpdf,
    omega_conditional_step,
    rho_conditional_logpdf,
    rho_conditional_step,
)
from gapshrink.samplers.matrix_smoothing import (
    v1_block_draw,
    v1_conditional_logpdf,
    v2_block_draw,
    v2_conditional_logpdf,
)
from gapshrink.samplers.sparse_regression import (
    dual_block_draw,
    dual_conditional_logpdf,
)

THRESHOLDS = load_thresholds()


def report(num, passed, detail):
    print(f"criterion {num}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {num} failed: {detail}"


class TestCriterion1GapNonnegativity:
    def test_randomized_weak_duality(self):
        t0 = time.perf_counter()
        res = check_gap_nonnegativity(seed=0)
        elapsed = time.perf_counter() - t0
        ok = res["min_gap"] >= THRESHOLDS["gap_check"]["min_gap"] and elapsed < 5.0
        report(1, ok, f"min gap {res['min_gap']:.3e} over 1e4 cases in {elapsed:.1f}s")


class TestCriterion2Theorem1:
    def test_distance_bound_certification(self):
        t0 = time.perf_counter()
        res = check_theorem1(seed=0)
        elapsed = time.perf_counter() - t0
        ok = (
            res["worst_violation"] <= THRESHOLDS["gap_check"]["theorem1_slack"]
            and elapsed < 30.0
        )
        report(2, ok, f"worst violation {res['worst_violation']:.3e} in {elapsed:.1f}s")


class TestCriterion3Theorem2:
    def test_kl_bound_certification(self):
        t0 = time.perf_counter()
        res = check_theorem2(seed=0)
        elapsed = time.perf_counter() - t0
        ok = (
            res["worst_violation"] <= THRESHOLDS["gap_check"]["theorem2_slack"]
            and elapsed < 10.0
        )
        report(3, ok, f"worst violation {res['worst_violation']:.3e} in {elapsed:.1f}s")


class TestCriterion4ZeroGap:
    def test_oracle_optima_certify_themselves(self):
        res = check_zero_gap(seed=0)
        admm_tol = res["admm_tol"]
        assert (res["cases"], admm_tol) == (1000, 1e-8)
        g = THRESHOLDS["gap_check"]
        ok = (
            res["worst_closed_form"] <= g["zero_gap_closed_form"]
            and res["worst_admm"] <= g["zero_gap_admm_tol_multiple"] * admm_tol
        )
        report(
            4,
            ok,
            f"closed-form {res['worst_closed_form']:.2e}, "
            f"ADMM {res['worst_admm']:.2e} (cap {10 * admm_tol:.0e})",
        )


class TestGapCheckSeedScan:
    def test_full_gap_check_on_fifty_seeds(self):
        # every gap-check seed redraws all four suites, so a rare case that
        # raises or breaks a bound shows up as the seeds run on
        limits = THRESHOLDS["gap_check"]
        cases = {"nonnegativity": 10_000, "theorem1": 1000, "theorem2": 1000,
                 "zero_gap": 1000}
        kinds = {"l1", "gen_l1", "ball", "group", "quad", "nuclear", "sum", "kl"}
        for seed in range(50):
            res = run_gap_check(limits, seed)
            assert res["passed"], f"seed {seed}: {res}"
            assert {k: res[k]["cases"] for k in cases} == cases, f"seed {seed}"
            per_kind = res["nonnegativity"]["per_kind"]
            assert set(per_kind) == kinds, f"seed {seed}: {sorted(per_kind)}"
            assert min(per_kind.values()) >= limits["min_gap"], f"seed {seed}: {per_kind}"


@pytest.fixture(scope="module")
def exp1_report(tmp_path_factory):
    cfg = ExperimentConfig(
        experiment="exp1",
        replications=5,
        sampler=SamplerConfig(warmup=1000, retain=1000, seed=0, alpha=1000.0),
        data_seed=2024,
        out_dir=str(tmp_path_factory.mktemp("exp1")),
    )
    # serial run: a fork pool of workers whose BLAS each starts one thread
    # per core oversubscribes the cores; serial and pool runs write the
    # same bytes
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("GAPSHRINK_THREADS", "1")
        t0 = time.perf_counter()
        rep = run_experiment(cfg)
        elapsed = time.perf_counter() - t0
    return rep, elapsed


@pytest.mark.slow
class TestCriterion5SparseRegressionReproduction:
    def test_paper_scale_recovery(self, exp1_report):
        rep, elapsed = exp1_report
        lim = THRESHOLDS["exp1"]
        per_rep_ok = []
        details = []
        for m in rep.replications:
            g = m["gap_shrinkage"]
            ok = (
                g["nonzero_max_abs_error"] <= lim["nonzero_abs_error_max"]
                and g["zero_ok_fraction"] >= lim["zero_fraction_min"]
                and g["median_acf_at_lag"] < lim["acf_max"]
                and g["dual_feasible_all"]
            )
            per_rep_ok.append(ok)
            details.append(
                f"rep{m['rep']}: err {g['nonzero_max_abs_error']:.2f}, "
                f"zeros {g['zero_ok_fraction']:.3f}, acf10 {g['median_acf_at_lag']:.3f}"
            )
        worse = [
            m["bayesian_lasso"]["rmse_nonzero"] > m["gap_shrinkage"]["rmse_nonzero"]
            for m in rep.replications
        ]
        frac = np.mean(worse)
        ok = (
            all(per_rep_ok)
            and frac >= lim["lasso_worse_rmse_min_fraction"]
            and elapsed <= 900.0
        )
        report(
            5,
            ok,
            "; ".join(details)
            + f"; lasso worse in {frac:.0%} of reps; {elapsed:.0f}s total",
        )

    def test_posterior_gap_concentration(self, exp1_report):
        # the shrinkage strength concentrates the retained-draw gap: at the
        # paper strength the mean gap must sit below 5% of the weak-prior run
        rep, _ = exp1_report
        strong = rep.replications[0]["gap_shrinkage"]["mean_gap"]
        X, y, _ = gen_sparse_regression(2024)
        weak_cfg = SamplerConfig(warmup=1000, retain=1000, seed=0, alpha=1.0)
        weak = gibbs_sparse_regression(X, y, weak_cfg)
        u = weak.columns("u_")
        th = weak.columns("theta_")
        lam = weak.column("lam")
        weak_gap = float(
            np.mean(np.sum((lam[:, None] - np.abs(u)) * np.abs(th), axis=1))
        )
        ok = strong < 0.05 * weak_gap
        print(
            f"criterion 5 (gap concentration): {'PASS' if ok else 'FAIL'} — "
            f"alpha=1000 mean gap {strong:.4f} vs alpha=1 {weak_gap:.2f}"
        )
        assert ok


@pytest.mark.slow
class TestCriterion6MatrixReproduction:
    def test_paper_scale_matrix_smoothing(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="exp2",
            replications=1,
            sampler=SamplerConfig(warmup=3000, retain=3000, seed=0, alpha=1000.0),
            data_seed=2024,
            out_dir=str(tmp_path),
        )
        t0 = time.perf_counter()
        rep = run_experiment(cfg)
        elapsed = time.perf_counter() - t0
        m = rep.replications[0]
        lim = THRESHOLDS["exp2"]
        lo, hi = lim["sigma2_range"]
        ok = (
            lo <= m["sigma2_mean"] <= hi
            and max(m["top_sv_rel_error"]) <= lim["top_sv_rel_tol"]
            and m["tail_sv_max"] < lim["tail_sv_max"]
            and m["dual_feasible_all"]
            and abs(m["theta0_fro"] - 12.85) <= 0.01
            and elapsed <= 600.0
        )
        sv = ", ".join(f"{v:.2f}" for v in m["sv_means"][:4])
        report(
            6,
            ok,
            f"sigma2 {m['sigma2_mean']:.4f}, sv ({sv}), "
            f"tail max {m['tail_sv_max']:.3f}, {elapsed:.0f}s",
        )


class TestCriterion7TailLemma:
    def test_quadrature_dominates_bound_with_power_tail(self):
        points = (5.0, 10.0, 20.0, 40.0)
        vals = {t: marginal_l1_prior(t, 1.0, 1.0) for t in points}
        bounds_ok = all(
            vals[t] >= marginal_l1_lower_bound(t, 1.0, 1.0) for t in points
        )
        slope = (np.log(vals[40.0]) - np.log(vals[20.0])) / (
            np.log(40.0) - np.log(20.0)
        )
        ok = bounds_ok and slope >= -3.5
        report(7, ok, f"bounds hold at {points}, log-log slope {slope:.3f}")


class TestCriterion8OrderStatisticsIdentity:
    def test_median_form_exact(self):
        rng = stream(123)
        worst = 0.0
        for i in range(1000):
            m = int(rng.integers(2, 9))
            vals = rng.normal(0, 3, m)
            rho = float(rng.uniform(0.1, 4))
            a = pairwise_diff_penalty(vals, rho)
            b = pairwise_diff_penalty_median_form(vals, rho)
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
        ok = worst <= 1e-10
        report(8, ok, f"worst relative deviation {worst:.2e} over 1000 draws")


def _step_chain(step, x0, rng, n=2000, warmup=200, thin=5):
    """Thinned draws of a scalar Markov move step(x, rng) -> x."""
    x = x0
    out = np.empty(n)
    for i in range(warmup):
        x = step(x, rng)
    for i in range(n * thin):
        x = step(x, rng)
        if i % thin == thin - 1:
            out[i // thin] = x
    return out


def _slice_chain(logpdf, x0, width, rng, n=2000, warmup=200, thin=5,
                 bounds=(-np.inf, np.inf)):
    """Reference chain: plain slice moves on logpdf."""
    return _step_chain(
        lambda x, r: slice_sample_1d(logpdf, x, width, r, bounds=bounds),
        x0, rng, n, warmup, thin,
    )


def _v1_slice_scan(theta, c2, coupling, alpha, width, rng, n=2000,
                   warmup=200, thin=20):
    """Systematic-scan slice chain on the joint nuclear-dual conditional,
    each entry moved under v1_conditional_logpdf given the others."""
    x = np.zeros(theta.size)
    out = np.empty((n, theta.size))
    for sweep in range(warmup + n * thin):
        for j in range(x.size):
            r2_rest = float(np.sum(x * x)) - x[j] * x[j]
            logf = lambda y: v1_conditional_logpdf(
                y, theta[j], c2[j], coupling, max(r2_rest, 0.0), alpha
            )
            x[j] = slice_sample_1d(logf, x[j], width, rng)
        if sweep >= warmup and (sweep - warmup) % thin == thin - 1:
            out[(sweep - warmup) // thin] = x
    return out


def _frozen_fused_state(seed):
    rng = stream(seed, 0, 0, 1)
    graph = complete_graph([[0, 1], [2]])
    theta = rng.normal(0, 1, (3, 2))
    d = graph.incidence() @ theta
    w = graph.weights(0.4)
    v_unit = rng.uniform(-1, 1, (graph.n_edges, 2))
    sum_w_absdiff = float(np.sum(w[:, None] * np.abs(d)))
    sum_w_vunit_d = float(np.sum(w[:, None] * v_unit * d))
    q_unit = graph.incidence().T @ (w[:, None] * v_unit)
    return theta, sum_w_absdiff, sum_w_vunit_d, q_unit


class TestCriterion9ConditionalCorrectness:
    """Each non-conjugate conditional update the samplers run, applied to a
    frozen state (exact block draws on N copies of it, slice moves and the
    nuclear-dual block move as standalone chains), must match a generic
    slice reference on the same density (two-sample KS, 2000 draws each)."""

    N = 2000

    def _ks(self, a, b):
        return ks_2samp(a, b).pvalue

    def test_all_nonconjugate_conditionals(self):
        results = {}

        # regression dual coordinate: exact truncated normal vs slice
        for i, (tj, wj, lam, alpha) in enumerate(
            [(0.8, 1.0, 1.0, 3.0), (-1.5, 0.4, 0.7, 2.0), (0.0, 2.0, 1.2, 5.0)]
        ):
            draws = dual_block_draw(
                np.full(self.N, tj), np.full(self.N, wj), lam, alpha, stream(100 + i)
            )
            logf = lambda x: dual_conditional_logpdf(x, tj, wj, lam, alpha)
            x0 = lam / 2 if tj >= 0 else -lam / 2
            ref = _slice_chain(logf, x0, lam / 3, stream(200 + i), n=self.N)
            results[f"u[{i}]"] = self._ks(draws, ref)

        # matrix sparse dual: exact truncated normal vs slice
        for i, (tij, v1, lam2, alpha) in enumerate(
            [(0.05, 0.1, 1.0, 20.0), (-0.2, 0.0, 0.5, 10.0), (0.0, 0.3, 2.0, 5.0)]
        ):
            draws = v2_block_draw(
                np.full(self.N, tij), np.full(self.N, v1), lam2, alpha, stream(300 + i)
            )
            logf = lambda x: v2_conditional_logpdf(x, tij, v1, lam2, alpha)
            ref = _slice_chain(logf, 0.0, lam2 / 2, stream(400 + i), n=self.N)
            results[f"V2[{i}]"] = self._ks(draws, ref)

        # matrix nuclear dual: the sampler's block move on a 2x3 V1 vs a
        # systematic-scan slice chain on the same joint density, compared
        # per entry and on ||V1||_F
        for i, (tij, c2, coup, alpha) in enumerate(
            [(0.3, 0.2, 5.0, 2.0), (-0.5, 0.1, 20.0, 10.0), (0.0, -0.4, 1.0, 1.0)]
        ):
            rng0 = stream(500 + i, 0, 0, 1)
            theta = tij + 0.2 * rng0.standard_normal((2, 3))
            V2 = c2 - theta + 0.2 * rng0.standard_normal((2, 3))
            rng = stream(500 + i)
            V1 = np.zeros((2, 3))
            draws = np.empty((self.N, 6))
            for k in range(200):
                V1 = v1_block_draw(theta, V1, V2, coup, alpha, rng)
            for k in range(self.N * 10):
                V1 = v1_block_draw(theta, V1, V2, coup, alpha, rng)
                if k % 10 == 9:
                    draws[k // 10] = V1.ravel()
            ref = _v1_slice_scan(
                theta.ravel(), (theta + V2).ravel(), coup, alpha,
                3.0 / (1.0 + coup), stream(600 + i), n=self.N, thin=20,
            )
            for j in range(6):
                results[f"V1[{i}][{j}]"] = self._ks(draws[:, j], ref[:, j])
            results[f"|V1[{i}]|"] = self._ks(
                np.linalg.norm(draws, axis=1), np.linalg.norm(ref, axis=1)
            )

        # box strength (exp1 lam, exp2 lam2): log-scale slice above max|u|
        # vs linear-scale slice
        for i, (abs_sum, dual_max, alpha) in enumerate(
            [(0.5, 0.3, 2.0), (2.0, 0.0, 1.0), (0.2, 1.0, 50.0)]
        ):
            draws = _step_chain(
                lambda x, rng: box_strength_step(x, abs_sum, dual_max, alpha, rng),
                dual_max + 0.5, stream(1600 + i), n=self.N,
            )
            logf = lambda y: box_strength_logpdf(y, abs_sum, dual_max, alpha)
            ref = _slice_chain(
                logf, dual_max + 0.5, 0.5, stream(1700 + i), n=self.N,
                bounds=(max(dual_max, 1e-12), np.inf),
            )
            results[f"lam[{i}]"] = self._ks(draws, ref)

        # Bayesian-lasso rate: log-scale slice vs linear-scale slice
        for i, (tau2_sum, p) in enumerate([(4.0, 5), (0.5, 1), (30.0, 20)]):
            draws = _step_chain(
                lambda x, rng: lasso_lam_step(x, tau2_sum, p, rng),
                1.0, stream(1800 + i), n=self.N,
            )
            logf = lambda y: lasso_lam_logpdf(y, tau2_sum, p)
            ref = _slice_chain(
                logf, 1.0, 0.5, stream(1900 + i), n=self.N, bounds=(1e-12, np.inf)
            )
            results[f"lasso_lam[{i}]"] = self._ks(draws, ref)

        # smoothing strength: log-scale slice vs linear-scale slice
        for i in range(3):
            theta, swd, svd_, q_unit = _frozen_fused_state(700 + i)
            alpha = (2.0, 10.0, 50.0)[i]
            draws = _step_chain(
                lambda x, rng: rho_conditional_step(
                    x, swd, svd_, theta, q_unit, alpha, rng
                ),
                0.5, stream(800 + i), n=self.N,
            )
            logf = lambda y: rho_conditional_logpdf(
                y, swd, svd_, theta, q_unit, alpha
            )
            ref = _slice_chain(
                logf, 0.5, 0.4, stream(900 + i), n=self.N, bounds=(1e-12, np.inf)
            )
            results[f"rho[{i}]"] = self._ks(draws, ref)

        # cross-group weight: sampler slice vs differently-tuned slice
        for i in range(3):
            theta, swd, svd_, q_unit = _frozen_fused_state(1000 + i)
            graph = complete_graph([[0, 1], [2]])
            rng0 = stream(1100 + i, 0, 0, 2)
            v = rng0.uniform(-0.3, 0.3, (graph.n_edges, 2))
            d = graph.incidence() @ theta
            cross = graph.cross
            abs_d_cross = float(np.sum(np.abs(d[cross])))
            vd_cross = float(np.sum(v[cross] * d[cross]))
            q_within = graph.incidence().T @ (np.where(cross, 0.0, 1.0)[:, None] * v)
            q_cross = graph.incidence().T @ (np.where(cross, 1.0, 0.0)[:, None] * v)
            rho = 0.4
            alpha = (3.0, 15.0, 40.0)[i]
            draws = _step_chain(
                lambda x, rng: omega_conditional_step(
                    x, rho, abs_d_cross, vd_cross, theta, q_within, q_cross,
                    alpha, rng,
                ),
                0.5, stream(1200 + i), n=self.N,
            )
            logf = lambda y: omega_conditional_logpdf(
                y, rho, abs_d_cross, vd_cross, theta, q_within, q_cross, alpha
            )
            ref = _slice_chain(
                logf, 0.3, 0.1, stream(1300 + i), n=self.N,
                bounds=(1e-12, 1 - 1e-12),
            )
            results[f"omega[{i}]"] = self._ks(draws, ref)

        # fused edge dual (beyond the required list): exact TN vs slice, the
        # N copies of one entry drawn by one block call
        for i, (dek, a1, a2, we, rho_, alpha) in enumerate(
            [(0.4, 0.1, -0.2, 1.0, 0.6, 4.0), (-0.8, 0.0, 0.3, 0.4, 1.0, 8.0),
             (0.0, 0.5, 0.5, 1.0, 0.3, 2.0)]
        ):
            draws = edge_dual_block_draw(
                np.full(self.N, dek), a1, a2, we, rho_, alpha, stream(1400 + i)
            )
            logf = lambda y: edge_dual_conditional_logpdf(
                y, dek, a1, a2, we, rho_, alpha
            )
            ref = _slice_chain(logf, 0.0, rho_ / 2, stream(1500 + i), n=self.N)
            results[f"v[{i}]"] = self._ks(draws, ref)

        # fused edge duals of one node-disjoint class of a frozen m-node,
        # two-covariate state, as the sampler draws them: N copies of the
        # class block in one call, each entry vs a slice chain on its own
        # conditional given the frozen anchors.  theta at the kernel's scale
        # 10 and small alpha make the anchor term visible next to the gap
        for m, rho_, alpha in [(4, 1.0, 0.01), (5, 2.0, 0.02), (6, 0.3, 2.0)]:
            graph = complete_graph([list(range(m // 2)), list(range(m // 2, m))])
            rng0 = stream(2000 + m, 0, 0, 1)
            theta = rng0.normal(0, 10, (m, 2))
            v = rng0.uniform(-rho_, rho_, (graph.n_edges, 2))
            w = graph.weights(0.4)
            B = graph.incidence()
            anchor = theta + B.T @ (w[:, None] * v)
            c = max(edge_classes(graph.edges, m), key=len)
            j1, j2 = graph.edges[c, 0], graph.edges[c, 1]
            w_c = w[c, None]
            d = (B @ theta)[c]
            a1 = anchor[j1] - w_c * v[c]
            a2 = anchor[j2] + w_c * v[c]
            draws = edge_dual_block_draw(
                np.broadcast_to(d, (self.N,) + d.shape), a1, a2, w_c, rho_,
                alpha, stream(2100 + m),
            )
            for e, k in np.ndindex(d.shape):
                logf = lambda y: edge_dual_conditional_logpdf(
                    y, d[e, k], a1[e, k], a2[e, k], w_c[e, 0], rho_, alpha
                )
                ref = _slice_chain(
                    logf, 0.0, rho_ / 2, stream(2200 + 10 * m + 2 * e + k),
                    n=self.N,
                )
                results[f"v_m{m}[{e},{k}]"] = self._ks(draws[:, e, k], ref)

        worst = min(results.values())
        ok = worst > 0.01
        summary = ", ".join(f"{k} p={v:.3f}" for k, v in results.items())
        report(9, ok, f"KS p-values: {summary}")


class TestCriterion10Diagnostics:
    def test_ess_and_acf_on_ar1(self):
        n = 100_000
        phi = 0.5
        rng = stream(77)
        x = np.empty(n)
        x[0] = rng.standard_normal()
        innov = rng.standard_normal(n) * np.sqrt(1 - phi**2)
        for i in range(1, n):
            x[i] = phi * x[i - 1] + innov[i]
        e = ess(x)
        target = n / 3
        rho = acf(x, 10)
        acf_dev = max(abs(rho[k] - phi**k) for k in range(1, 11))
        ok = abs(e - target) <= 0.15 * target and acf_dev <= 0.03
        report(
            10,
            ok,
            f"ESS {e:.0f} vs n/3 {target:.0f} "
            f"({abs(e - target) / target:.1%} off), max ACF dev {acf_dev:.3f}",
        )
