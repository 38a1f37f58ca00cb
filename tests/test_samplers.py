import dataclasses
import importlib
import pkgutil
import re
import tracemalloc

import numpy as np
import pytest
from scipy.stats import kstest, laplace

import gapshrink.rng
import gapshrink.samplers
from gapshrink.datasets import gen_fused_probit
from gapshrink.errors import NumericError
from gapshrink.priors import complete_graph
from gapshrink.rng import inverse_gaussian, slice_sample_1d, stream, truncated_normal
from gapshrink.samplers import (
    HYPERPRIORS,
    SamplerConfig,
    gibbs_bayesian_lasso,
    gibbs_fused_probit,
    gibbs_gdp,
    gibbs_matrix_smoothing,
    gibbs_sparse_regression,
)
from gapshrink.samplers.base import (
    box_strength_step,
    gaussian_draw,
    inverse_gamma,
    laplace_mixture_precision,
    regression_theta_sampler,
)
from gapshrink.samplers.chain import check_state, run_chain
from gapshrink.samplers.fused_probit import (
    edge_class_layout,
    edge_classes,
    edge_dual_block_draw,
    edge_dual_sweep,
    probit_latent_draw,
)
from gapshrink.samplers.matrix_smoothing import v1_block_draw, v1_conditional_logpdf


def strong_signal_data(seed=7, n=50, p=5, noise=0.01):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    theta = np.array([1.5, -2.0, 0.7, 3.0, -1.2])[:p]
    y = X @ theta + noise * rng.standard_normal(n)
    return X, y, theta


class TestSparseRegression:
    def test_near_ols_on_strong_signal(self):
        X, y, _ = strong_signal_data()
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        cfg = SamplerConfig(warmup=500, retain=500, seed=3, alpha=1000.0)
        out = gibbs_sparse_regression(X, y, cfg)
        post = out.columns("theta_").mean(axis=0)
        assert np.max(np.abs(post - ols)) < 0.05

    def test_null_signal_shrinks_to_zero(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((60, 8))
        cfg = SamplerConfig(warmup=300, retain=300, seed=4, alpha=1000.0)
        out = gibbs_sparse_regression(X, np.zeros(60), cfg)
        assert np.max(np.abs(out.columns("theta_").mean(axis=0))) < 0.1

    def test_every_draw_dual_feasible(self):
        X, y, _ = strong_signal_data()
        cfg = SamplerConfig(warmup=200, retain=200, seed=6, alpha=500.0)
        out = gibbs_sparse_regression(X, y, cfg)
        u = out.columns("u_")
        theta = out.columns("theta_")
        lam = out.column("lam")
        assert np.all(np.max(np.abs(u), axis=1) <= lam + 1e-12)
        assert not np.any((theta != 0) & (u * theta < 0))
        gaps = np.sum((lam[:, None] - np.abs(u)) * np.abs(theta), axis=1)
        assert np.all(np.isfinite(gaps))
        assert np.all(gaps >= -1e-10)


class TestComparators:
    @pytest.mark.parametrize("sampler", [gibbs_bayesian_lasso, gibbs_gdp])
    def test_near_ols_on_strong_signal(self, sampler):
        X, y, _ = strong_signal_data()
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        cfg = SamplerConfig(warmup=500, retain=500, seed=8)
        out = sampler(X, y, cfg)
        post = out.columns("theta_").mean(axis=0)
        assert np.max(np.abs(post - ols)) < 0.05

    @pytest.mark.parametrize("sampler", [gibbs_bayesian_lasso, gibbs_gdp])
    def test_null_signal(self, sampler):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((60, 8))
        cfg = SamplerConfig(warmup=300, retain=300, seed=9)
        out = sampler(X, np.zeros(60), cfg)
        assert np.max(np.abs(out.columns("theta_").mean(axis=0))) < 0.1


@pytest.mark.parametrize(
    "sampler", [gibbs_sparse_regression, gibbs_bayesian_lasso, gibbs_gdp]
)
@pytest.mark.parametrize("length", [1, 49])
def test_regression_samplers_reject_wrong_response_length(sampler, length):
    # a length-1 response would otherwise broadcast into a constant one
    X, y, _ = strong_signal_data()
    with pytest.raises(ValueError, match="y length must match rows of X"):
        sampler(X, y[:length], SamplerConfig(warmup=1, retain=1))


class TestMatrixSmoothing:
    def test_tiny_rank_one_recovery(self):
        rng = np.random.default_rng(5)
        p1, p2, S = 6, 5, 1000
        u = rng.standard_normal(p1)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(p2)
        v /= np.linalg.norm(v)
        theta0 = 3.0 * np.outer(u, v)
        Y = theta0[None] + 0.01 * rng.standard_normal((S, p1, p2))
        cfg = SamplerConfig(warmup=400, retain=400, seed=2, alpha=1000.0, rank=2)
        out = gibbs_matrix_smoothing(Y, cfg)
        A = out.columns("A_").reshape(-1, p1, 2)
        B = out.columns("B_").reshape(-1, p2, 2)
        theta_mean = np.mean([a @ b.T for a, b in zip(A, B)], axis=0)
        assert np.linalg.norm(theta_mean - theta0) < 0.05

    def test_dual_feasible_every_draw(self):
        rng = np.random.default_rng(6)
        Y = rng.standard_normal((20, 5, 4))
        cfg = SamplerConfig(warmup=100, retain=100, seed=3, alpha=50.0, rank=2)
        out = gibbs_matrix_smoothing(Y, cfg)
        v2 = out.columns("V2_")
        lam2 = out.column("lam2")
        assert np.all(np.max(np.abs(v2), axis=1) <= lam2 + 1e-9)
        # lam1 = ||V1||_F ties the nuclear dual to its strength
        v1 = out.columns("V1_")
        lam1 = out.column("lam1")
        np.testing.assert_allclose(np.linalg.norm(v1, axis=1), lam1, rtol=1e-10)

    def test_v1_block_draw_cold_start_reproducible(self):
        rng0 = np.random.default_rng(11)
        theta = rng0.standard_normal((4, 3))
        V2 = 0.1 * rng0.standard_normal((4, 3))
        a = v1_block_draw(theta, np.zeros((4, 3)), V2, 7.0, 5.0, stream(3, 0, 1, 4))
        b = v1_block_draw(theta, np.zeros((4, 3)), V2, 7.0, 5.0, stream(3, 0, 1, 4))
        assert a.shape == (4, 3) and np.all(np.isfinite(a))
        assert a.tobytes() == b.tobytes()

    def test_v1_block_draw_matches_exact_cdf_1x1(self):
        # with one entry the conditional is known up to a constant; its CDF
        # comes from quadrature on a fine grid
        theta, c2, coupling, alpha = 0.3, 0.2, 5.0, 2.0
        grid = np.linspace(-10.0, 10.0, 400001)
        logf = np.array(
            [v1_conditional_logpdf(x, theta, c2, coupling, 0.0, alpha) for x in grid]
        )
        dens = np.exp(logf - logf.max())
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]))])
        cdf /= cdf[-1]
        rng = stream(21)
        T = np.array([[theta]])
        V2 = np.array([[c2 - theta]])
        V1 = np.zeros((1, 1))
        draws = np.empty(2000)
        for k in range(200 + 2000 * 10):
            V1 = v1_block_draw(T, V1, V2, coupling, alpha, rng)
            if k >= 200 and k % 10 == 9:
                draws[(k - 200) // 10] = V1[0, 0]
        assert kstest(draws, lambda x: np.interp(x, grid, cdf)).pvalue > 0.01

    def test_rank_cap(self):
        with pytest.raises(ValueError):
            gibbs_matrix_smoothing(
                np.zeros((3, 4, 3)), SamplerConfig(warmup=1, retain=1, rank=5)
            )


class TestFusedProbit:
    def test_department_constant_truth_fuses(self):
        Y, X, deps, theta0 = gen_fused_probit(99, m=8, p=2, n=2000)
        cfg = SamplerConfig(warmup=500, retain=500, seed=6, alpha=1000.0)
        out = gibbs_fused_probit(Y, X, deps, cfg)
        tm = out.columns("theta_").mean(axis=0).reshape(8, 2)
        diffs = [
            np.max(np.abs(tm[a] - tm[b])) for g in deps for a in g for b in g if a < b
        ]
        assert max(diffs) < 0.1
        # coefficients track the truth through the probit link
        assert np.max(np.abs(tm - theta0)) < 0.25

    def test_deviant_category_stands_out(self):
        Y, X, deps, theta0 = gen_fused_probit(99, m=8, p=2, n=2000, deviant=0)
        cfg = SamplerConfig(warmup=500, retain=500, seed=6, alpha=1000.0)
        out = gibbs_fused_probit(Y, X, deps, cfg)
        tm = out.columns("theta_").mean(axis=0).reshape(8, 2)
        plain, deviant = [], []
        for g in deps:
            for a in g:
                for b in g:
                    if a < b:
                        d = np.max(np.abs(tm[a] - tm[b]))
                        (deviant if 0 in (a, b) else plain).append(d)
        assert min(deviant) >= 3.0 * max(max(plain), 1e-6)

    def test_omega_low_when_departments_unrelated(self):
        Y, X, deps, _ = gen_fused_probit(99, m=8, p=2, n=2000)
        cfg = SamplerConfig(warmup=400, retain=400, seed=12, alpha=1000.0)
        out = gibbs_fused_probit(Y, X, deps, cfg)
        assert out.column("omega_cross").mean() < 0.1

    def test_dual_feasible_every_draw(self):
        Y, X, deps, _ = gen_fused_probit(42, m=4, p=2, n=300)
        cfg = SamplerConfig(warmup=150, retain=150, seed=13, alpha=200.0)
        out = gibbs_fused_probit(Y, X, deps, cfg)
        v = out.columns("v_")
        rho = out.column("rho")
        assert np.all(np.max(np.abs(v), axis=1) <= rho * (1 + 1e-9) + 1e-12)
        assert np.all(out.column("omega_cross") > 0)
        assert np.all(out.column("omega_cross") < 1)

    def test_empty_department_rejected(self):
        Y, X, _, _ = gen_fused_probit(42, m=4, p=2, n=50)
        with pytest.raises(ValueError):
            gibbs_fused_probit(Y, X, [[0, 1, 2, 3], []], SamplerConfig(warmup=1, retain=1))

    def test_nonbinary_response_rejected(self):
        # probit responses are 0 or 1; any other value is an error, not a 1
        Y, X, deps, _ = gen_fused_probit(42, m=4, p=2, n=50)
        Y = Y.astype(int)
        Y[0, 0] = 2
        with pytest.raises(ValueError, match="binary"):
            gibbs_fused_probit(Y, X, deps, SamplerConfig(warmup=1, retain=1))

    def test_edge_classes_node_disjoint_cover(self):
        for m in range(2, 41):
            edges = complete_graph([list(range(m))]).edges
            classes = edge_classes(edges, m)
            assert len(classes) == m
            for c in classes:
                nodes = edges[c].ravel()
                assert np.unique(nodes).size == nodes.size, (m, edges[c])
            covered = np.sort(np.concatenate(classes))
            np.testing.assert_array_equal(covered, np.arange(len(edges)))

    def test_dual_sweep_anchors_follow_each_class(self, monkeypatch):
        # frozen states, the sweep against a per-class reference: each class
        # draws its own uniforms in turn, and the anchors it is given match
        # theta + B^T (w v) rebuilt from scratch.  A weak gap makes the
        # draws depend on the anchors; at a strong one most entries take the
        # upper or the lower tail branch
        tail_entries = []
        tail_inverse = gapshrink.rng._tail_inverse
        monkeypatch.setattr(
            gapshrink.rng, "_tail_inverse",
            lambda a, b, u: tail_entries.append(u.size) or tail_inverse(a, b, u),
        )
        m, p = 7, 2
        graph = complete_graph([[0, 1, 2], [3, 4, 5, 6]])
        edges, B = graph.edges, graph.incidence()
        classes = edge_classes(edges, m)
        layout = edge_class_layout(edges, classes)
        for rho, alpha, min_tail in [(3.0, 0.01, 0), (0.05, 1000.0, 0.8)]:
            state = np.random.default_rng(5)
            theta = 3.0 * state.standard_normal((m, p))
            v0 = state.uniform(-rho, rho, (len(edges), p))
            w = graph.weights(0.3)
            d = B @ theta

            tail_entries.clear()
            got = v0.copy()
            edge_dual_sweep(got, theta + B.T @ (w[:, None] * got), d, w,
                            layout, rho, alpha, stream(11, 0, 0, 3))
            assert sum(tail_entries) >= min_tail * got.size

            want = v0.copy()
            anchor = theta + B.T @ (w[:, None] * want)
            rng = stream(11, 0, 0, 3)
            for c in classes:
                np.testing.assert_allclose(
                    anchor, theta + B.T @ (w[:, None] * want), rtol=0.0,
                    atol=1e-12,
                )
                j1, j2 = edges[c].T
                old = w[c, None] * want[c]
                want[c] = edge_dual_block_draw(
                    d[c], anchor[j1] - old, anchor[j2] + old, w[c, None], rho,
                    alpha, rng.uniform(size=(len(c), p)),
                )
                anchor[j1] += w[c, None] * want[c] - old
                anchor[j2] -= w[c, None] * want[c] - old
            np.testing.assert_array_equal(got, want)

    def test_dual_sweep_checks_rho_and_weights(self):
        graph = complete_graph([[0, 1], [2, 3]])
        layout = edge_class_layout(graph.edges, edge_classes(graph.edges, 4))
        v = np.zeros((graph.n_edges, 2))
        anchor = np.zeros((4, 2))
        w = graph.weights(0.5)
        for rho in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="rho"):
                edge_dual_sweep(v, anchor, v, w, layout, rho, 1.0, stream(0))
        for bad in (np.inf, np.nan):
            w_bad = w.copy()
            w_bad[1] = bad
            with pytest.raises(ValueError, match="sd"):
                edge_dual_sweep(v, anchor, v, w_bad, layout, 1.0, 1.0, stream(0))

    def test_latent_draw_is_truncated_normal(self):
        # the one-sided inverse CDF gives truncated_normal's bits, in the
        # bulk, at exactly 5 sigma and beyond it on either side
        state = np.random.default_rng(8)
        edge = np.array([5.0, -5.0, np.nextafter(5.0, 0.0),
                         np.nextafter(-5.0, 0.0), 6.5, -6.5, 40.0, -40.0,
                         0.0, -0.0])
        M = np.concatenate([3.0 * state.standard_normal(2000), edge, edge])
        y = np.concatenate([state.integers(0, 2, 2000),
                            np.ones(edge.size), np.zeros(edge.size)])
        M, y = M.reshape(-1, 5), y.reshape(-1, 5).astype(float)
        lo = np.where(y == 1.0, 0.0, -np.inf)
        hi = np.where(y == 1.0, np.inf, 0.0)
        # entries 5 sigma or more on the infeasible side take the tail branch
        assert np.sum(np.where(y == 1.0, -M, M) >= 5.0) >= 6
        got = probit_latent_draw(M, y, lo, hi, stream(12, 0, 3, 0))
        want = truncated_normal(M, 1.0, lo, hi, stream(12, 0, 3, 0))
        np.testing.assert_array_equal(got, want)
        assert np.all(np.where(y == 1.0, got >= 0.0, got <= 0.0))


class TestConjugateUpdates:
    def test_sigma2_conditional_moments(self):
        # every noise variance, the exp1 kernel scales and the V1 cold start
        # are drawn by inverse_gamma; its draws must have the analytic
        # InverseGamma(shape, rate) moments
        shape, rate = 8.0, 4.0
        draws = inverse_gamma(shape, np.full(100_000, rate), stream(21))
        assert draws.shape == (100_000,)
        mean = rate / (shape - 1.0)
        var = rate**2 / ((shape - 1.0) ** 2 * (shape - 2.0))
        assert np.mean(draws) == pytest.approx(mean, rel=0.02)
        assert np.var(draws) == pytest.approx(var, rel=0.02)

    def test_inverse_gamma_scalar_is_one_draw(self):
        # scalar parameters give a float from a single gamma draw, so the
        # stream is left where a scalar standard_gamma call leaves it
        rng = stream(22)
        x = inverse_gamma(3.0, 2.0, rng)
        assert isinstance(x, float) and x > 0.0
        ref = stream(22)
        ref.standard_gamma(3.0)
        assert rng.uniform() == ref.uniform()

    def test_box_strength_step_stays_above_dual(self):
        rng = stream(23)
        lam = 1.5
        for _ in range(200):
            lam = box_strength_step(lam, 0.3, 1.2, 5.0, rng)
            assert lam >= 1.2


class TestChainState:
    """The state check the chain driver applies at every kept draw."""

    def _check(self, u_val=0.5, scale=1.0):
        check_state(
            {"u": (np.array([u_val, -u_val]), 1.0)},
            {"inv_s": np.array([scale, scale])},
        )

    def test_valid_state_passes(self):
        self._check()

    def test_dual_outside_box_rejected(self):
        with pytest.raises(ValueError):
            self._check(u_val=1.5)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            self._check(scale=0.0)


def _run_regression(sampler):
    def run(cfg):
        X, y, _ = strong_signal_data()
        return sampler(X, y, cfg)

    return run


def _run_matrix_smoothing(cfg):
    Y = np.random.default_rng(7).standard_normal((10, 4, 3))
    return gibbs_matrix_smoothing(Y, cfg)


def _run_fused_probit(cfg):
    Y, X, deps, _ = gen_fused_probit(42, m=4, p=2, n=200)
    return gibbs_fused_probit(Y, X, deps, cfg)


# (runner, model-specific config fields) for every sampler the chain drives
CHAINS = {
    "sparse_regression": (_run_regression(gibbs_sparse_regression), {"alpha": 100.0}),
    "bayesian_lasso": (_run_regression(gibbs_bayesian_lasso), {}),
    "gdp": (_run_regression(gibbs_gdp), {}),
    "matrix_smoothing": (_run_matrix_smoothing, {"alpha": 20.0, "rank": 2}),
    "fused_probit": (_run_fused_probit, {"alpha": 100.0}),
}


class TestChainDriver:
    @pytest.mark.parametrize("chain", CHAINS)
    def test_deterministic(self, chain):
        run, extra = CHAINS[chain]
        cfg = SamplerConfig(warmup=30, retain=30, seed=5, **extra)
        a = run(cfg)
        b = run(cfg)
        np.testing.assert_array_equal(a.draws, b.draws)
        assert a.names == b.names

    @pytest.mark.parametrize("chain", CHAINS)
    def test_row_count(self, chain):
        run, extra = CHAINS[chain]
        # every retained sweep is one row
        cfg = SamplerConfig(warmup=10, retain=21, seed=1, **extra)
        out = run(cfg)
        assert out.draws.shape == (21, len(out.names))

    def test_numeric_error_names_replay_coordinate(self):
        cfg = SamplerConfig(warmup=2, retain=3, seed=17, chain_id=4)
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])

        def step(sweep):
            prec = indefinite if sweep == 3 else np.eye(2)
            gaussian_draw(prec, np.ones(2), stream(cfg.seed, cfg.chain_id, sweep))

        with pytest.raises(NumericError, match=r"seed 17, chain 4, sweep 3\)"):
            run_chain(cfg, step, lambda: ({"x": 0.0}, {}, {}))

    def test_slice_failure_names_replay_coordinate(self, monkeypatch):
        monkeypatch.setattr(gapshrink.rng, "_MAX_SHRINK", 50)
        cfg = SamplerConfig(warmup=2, retain=3, seed=23, chain_id=1)

        def step(sweep):
            # at sweep 4 the slice is the start point alone, so every shrink
            # misses and the move exhausts its budget
            def logf(x):
                return 0.0 if sweep != 4 or x == 0.5 else -np.inf

            rng = stream(cfg.seed, cfg.chain_id, sweep)
            slice_sample_1d(logf, 0.5, 1.0, rng)

        with pytest.raises(NumericError, match=r"seed 23, chain 1, sweep 4\)"):
            run_chain(cfg, step, lambda: ({"x": 0.0}, {}, {}))


def _grid(prefix, rows, cols):
    return [f"{prefix}_{i}_{j}" for i in range(rows) for j in range(cols)]


class TestColumnLabels:
    """The column labels of every sampler at tiny sizes.  The chain CSVs
    and every reader of them select columns by these names."""

    CFG = {"warmup": 1, "retain": 2, "seed": 2}

    def test_sparse_regression_and_comparators(self):
        rng = np.random.default_rng(0)
        X, y = rng.standard_normal((20, 3)), rng.standard_normal(20)
        cfg = SamplerConfig(**self.CFG)
        theta = ["theta_0", "theta_1", "theta_2"]
        assert gibbs_sparse_regression(X, y, cfg).names == (
            theta + ["u_0", "u_1", "u_2", "lam", "sigma2"]
        )
        assert gibbs_bayesian_lasso(X, y, cfg).names == theta + ["lam", "sigma2"]
        assert gibbs_gdp(X, y, cfg).names == theta + ["sigma2"]

    def test_matrix_smoothing(self):
        Y = np.random.default_rng(1).standard_normal((5, 4, 3))
        out = gibbs_matrix_smoothing(Y, SamplerConfig(rank=2, **self.CFG))
        assert out.names == (
            _grid("A", 4, 2) + _grid("B", 3, 2) + _grid("V1", 4, 3)
            + _grid("V2", 4, 3)
            + ["sigma2", "lam1", "lam2", "sv_1", "sv_2", "sv_3"]
        )
        assert out.draws.shape == (2, len(out.names))

    def test_fused_probit(self):
        Y, X, deps, _ = gen_fused_probit(3, m=3, p=2, n=30)
        out = gibbs_fused_probit(Y, X, deps, SamplerConfig(**self.CFG))
        assert out.names == (
            _grid("theta", 3, 2) + _grid("v", 3, 2) + ["rho", "omega_cross"]
        )
        assert out.draws.shape == (2, len(out.names))


class TestGaussianDraw:
    N = 2000

    def test_indefinite_precision_raises(self):
        prec = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NumericError):
            gaussian_draw(prec, np.ones(2), stream(0))

    def test_nonfinite_precision_raises(self):
        prec = np.eye(3)
        prec[1, 1] = np.nan
        with pytest.raises(NumericError):
            gaussian_draw(prec, np.ones(3), stream(0))

    @pytest.mark.parametrize("stack", [None, 2])
    def test_whitened_draws_standard_normal(self, stack):
        # one 3 x 3 precision, or a stack of two; x = prec^-1 lin + L^-T z,
        # so L^T (x - prec^-1 lin) must be N(0, 1)
        rng0 = np.random.default_rng(3)
        M = rng0.standard_normal((stack or 1, 3, 3))
        prec = M @ np.swapaxes(M, 1, 2) + 0.5 * np.eye(3)
        lin = rng0.standard_normal((stack or 1, 3))
        if stack is None:
            prec, lin = prec[0], lin[0]
        rng = stream(41)
        draws = np.array([gaussian_draw(prec, lin, rng) for _ in range(self.N)])
        L = np.linalg.cholesky(prec)
        mean = np.linalg.solve(prec, lin[..., None])[..., 0]
        white = np.einsum("...ji,n...j->n...i", L, draws - mean)
        for coord in white.reshape(self.N, -1).T:
            assert kstest(coord, "norm").pvalue > 0.01


class _ZeroNormals:
    """An rng stub whose standard normals are all zero, so a Gaussian draw
    returns its mean."""

    def standard_normal(self, size):
        return np.zeros(size)


class TestRegressionTheta:
    """regression_theta_sampler draws N(Q^-1 (X'y / sigma2 + b), Q^-1) with
    Q = X'X / sigma2 + diag(d) through its n x n system."""

    N = 2000
    SIGMA2 = 1.7

    @staticmethod
    def problem(n, p):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        d = rng.uniform(0.3, 3.0, p)
        b = rng.standard_normal(p)
        return X, y, d, b

    def dense(self, X, y, d, b):
        Q = X.T @ X / self.SIGMA2 + np.diag(d)
        return Q, np.linalg.solve(Q, X.T @ y / self.SIGMA2 + b)

    def test_zero_noise_gives_exact_mean(self):
        X, y, d, b = self.problem(4, 7)
        _, mean = self.dense(X, y, d, b)
        draw = regression_theta_sampler(X, y)
        got = draw(self.SIGMA2, d, b, _ZeroNormals())
        np.testing.assert_allclose(got, mean, rtol=0, atol=1e-10)
        # b = 0, as the comparators pass it
        _, mean0 = self.dense(X, y, d, np.zeros_like(b))
        got0 = draw(self.SIGMA2, d, 0.0, _ZeroNormals())
        np.testing.assert_allclose(got0, mean0, rtol=0, atol=1e-10)

    def test_whitened_draws_standard_normal(self):
        # L^T (x - mean), with Q = L L^T, must be N(0, I_p)
        X, y, d, b = self.problem(4, 7)
        Q, mean = self.dense(X, y, d, b)
        draw = regression_theta_sampler(X, y)
        rng = stream(43)
        draws = np.array([draw(self.SIGMA2, d, b, rng) for _ in range(self.N)])
        white = (draws - mean) @ np.linalg.cholesky(Q)
        for coord in white.T:
            assert kstest(coord, "norm").pvalue > 0.01

    def test_allocates_no_p_by_p_array(self):
        X, y, d, b = self.problem(10, 1000)
        tracemalloc.start()
        try:
            regression_theta_sampler(X, y)(self.SIGMA2, d, b, stream(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 1000 x 1000 float64 array would take 8 MB
        assert peak < 1e6

    def test_nonfinite_draw_raises(self):
        X, y, d, b = self.problem(4, 7)
        d[2] = np.nan
        with pytest.raises(NumericError):
            regression_theta_sampler(X, y)(self.SIGMA2, d, b, stream(0))


class TestLaplaceMixture:
    def test_matches_bayesian_lasso_parameters(self):
        # scale = sigma gives the Bayesian-lasso conditional
        # 1/tau^2 | theta ~ IG(lam sigma / |theta|, lam^2)
        theta = np.array([0.3, -1.2, 4.0, -0.05])
        lam, sigma = 1.7, 0.6
        got = laplace_mixture_precision(theta, lam, stream(9), scale=sigma)
        want = inverse_gaussian(lam * sigma / np.abs(theta), lam * lam, stream(9))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_mixture_leaves_laplace_invariant(self):
        # x ~ Laplace(scale / rate), 1/s | x from the mixture, then
        # x' ~ N(0, scale^2 s) must be Laplace(scale / rate) again
        rate, scale, n = 2.5, 0.4, 2000
        rng = stream(13)
        x = laplace.rvs(scale=scale / rate, size=n, random_state=rng)
        inv_s = laplace_mixture_precision(x, rate, rng, scale=scale)
        x_new = scale * rng.standard_normal(n) / np.sqrt(inv_s)
        assert kstest(x_new, laplace(scale=scale / rate).cdf).pvalue > 0.01


class TestStreamIds:
    def test_block_ids_distinct_per_module(self):
        # a sampler module's _UPPER int constants are the stream ids of its
        # blocks; two blocks sharing one would draw the same Philox numbers
        # in one sweep
        with_ids = set()
        for info in pkgutil.iter_modules(gapshrink.samplers.__path__):
            module = importlib.import_module(f"gapshrink.samplers.{info.name}")
            ids = {
                attr: value for attr, value in vars(module).items()
                if re.fullmatch(r"_[A-Z][A-Z0-9_]*", attr) and type(value) is int
            }
            assert len(set(ids.values())) == len(ids), (info.name, ids)
            if ids:
                with_ids.add(info.name)
        assert with_ids >= {
            "comparators", "fused_probit", "matrix_smoothing", "sparse_regression"
        }


class TestConfig:
    def test_hyperpriors_fixed(self):
        # the hyperprior table is a read-only constant, not a config field
        with pytest.raises(TypeError):
            SamplerConfig(hyperpriors={"lam": (1.0, 1.0)})
        with pytest.raises(TypeError):
            HYPERPRIORS["lam"] = (1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(warmup=0)
        with pytest.raises(ValueError):
            SamplerConfig(alpha=-1.0)

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(SamplerConfig)] == [
            "warmup", "retain", "seed", "alpha", "chain_id", "rank",
        ]

    def test_chain_id_and_rank_bounds(self):
        # the streams key 16 bits of the chain id, so chain 65536 would
        # silently replay chain 0's draws
        for chain_id in (-1, 65536):
            with pytest.raises(ValueError):
                SamplerConfig(chain_id=chain_id)
        assert SamplerConfig(chain_id=65535).chain_id == 65535
        with pytest.raises(ValueError):
            SamplerConfig(rank=0)
        assert SamplerConfig(rank=1).rank == 1
