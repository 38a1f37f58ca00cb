"""Experiment drivers: synthetic-data runs, persistence, and reports.

An experiment is a replication function (_exp1_rep, _exp2_rep, _exp3_rep),
a plot function, the columns of its chain CSV and a verdict across
replications; run_experiment looks all four up in one table.  A
replication takes the payload (rep, data_seed, sampler, limits,
data_kwargs), draws its data from seed data_seed + rep, runs its samplers
and returns (metrics, chains, summaries).

run_experiment fans the replications across a worker pool (capped by the
GAPSHRINK_THREADS environment variable) and writes one headered CSV of
retained gap-model draws per replication, a deterministic report.json
holding recovery metrics (for all compared methods) and pass/fail flags, a
timing.json sidecar with wall-clock numbers (kept out of report.json so
identical configs give byte-identical reports), and standalone SVG plots.
gap-check runs the certification suites instead.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from importlib import resources
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import plots
from .certify import run_gap_check
from .datasets import gen_fused_probit, gen_lowrank_sparse, gen_sparse_regression
from .diagnostics import acf
from .samplers import (
    SamplerConfig,
    gibbs_bayesian_lasso,
    gibbs_fused_probit,
    gibbs_gdp,
    gibbs_matrix_smoothing,
    gibbs_sparse_regression,
)

__all__ = [
    "ExperimentConfig",
    "RunReport",
    "run_experiment",
    "load_thresholds",
    "EXPERIMENT_IDS",
]

EXPERIMENT_IDS = ("exp1", "exp2", "exp3", "gap-check")


def load_thresholds():
    with resources.files("gapshrink").joinpath("data/thresholds.json").open() as fh:
        return json.load(fh)


@dataclass
class ExperimentConfig:
    """Which experiment to run, how many replications, and where."""

    experiment: str
    replications: int = 5
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    data_seed: int = 2024
    out_dir: str = "runs"
    thresholds: dict = field(default_factory=load_thresholds)

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_IDS:
            raise ValueError(f"experiment must be one of {EXPERIMENT_IDS}")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")


@dataclass
class RunReport:
    """Per-replication metrics plus the overall acceptance verdict."""

    replications: list
    passed: bool


def _n_workers(n_tasks):
    env = os.environ.get("GAPSHRINK_THREADS")
    cap = int(env) if env else (os.cpu_count() or 1)
    return max(1, min(cap, n_tasks))


def _map_tasks(fn, payloads):
    workers = _n_workers(len(payloads))
    if workers == 1:
        return [fn(p) for p in payloads]
    with get_context("fork").Pool(workers) as pool:
        return pool.map(fn, payloads)


def _write_csv(path, samples, keep_prefixes=None):
    """Headered CSV of retained draws; column subset by name prefix."""
    cols = [j for j, n in enumerate(samples.names)
            if keep_prefixes is None or n.startswith(keep_prefixes)]
    with open(path, "w") as fh:
        fh.write(",".join(samples.names[j] for j in cols) + "\n")
        np.savetxt(fh, samples.draws[:, cols], delimiter=",", fmt="%.10g")


def _json_dump(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _pooled_median_acf(theta_draws, max_lag):
    """Median over coordinates of the autocorrelation at each lag
    0..max_lag, skipping numerically constant chains (all zeros when every
    chain is).  max_lag clamps to the chain length so smoke-sized runs stay
    computable; the last entry is the value at the clamped lag."""
    max_lag = min(max_lag, theta_draws.shape[0] - 1)
    curves = [acf(col, max_lag) for col in theta_draws.T if np.std(col) >= 1e-14]
    if not curves:
        return np.zeros(max_lag + 1)
    return np.median(curves, axis=0)


def _sparse_metrics(samples, theta0, limits):
    theta_draws = samples.columns("theta_")
    means = theta_draws.mean(axis=0)
    nonzero = theta0 != 0.0
    return {
        "nonzero_max_abs_error": float(np.max(np.abs(means[nonzero] - theta0[nonzero]))),
        "zero_ok_fraction": float(
            np.mean(np.abs(means[~nonzero]) < limits["zero_abs_mean_max"])
        ),
        "rmse_nonzero": float(
            np.sqrt(np.mean((means[nonzero] - theta0[nonzero]) ** 2))
        ),
        "rmse_all": float(np.sqrt(np.mean((means - theta0) ** 2))),
    }


def _exp1_rep(payload):
    rep, data_seed, sampler, limits, data_kwargs = payload
    X, y, theta0 = gen_sparse_regression(data_seed + rep, **data_kwargs)
    out = {"rep": rep, "theta0_nonzero_idx": np.flatnonzero(theta0).tolist()}

    gap = gibbs_sparse_regression(X, y, replace(sampler, chain_id=3 * rep))
    gm = _sparse_metrics(gap, theta0, limits)
    curve = _pooled_median_acf(gap.columns("theta_"), limits["acf_lag"])
    gm["median_acf_at_lag"] = float(curve[-1])

    u_draws = gap.columns("u_")
    lam_draws = gap.column("lam")
    feas = np.max(np.abs(u_draws), axis=1) <= lam_draws + 1e-12
    theta_draws = gap.columns("theta_")
    sign_bad = np.any((theta_draws != 0) & (u_draws * theta_draws < 0), axis=1)
    gap_vals = np.sum(
        (lam_draws[:, None] - np.abs(u_draws)) * np.abs(theta_draws), axis=1
    )
    gm["dual_feasible_all"] = bool(np.all(feas) and not np.any(sign_bad))
    gm["mean_gap"] = float(np.mean(gap_vals))
    gm["min_gap"] = float(np.min(gap_vals))

    lasso = gibbs_bayesian_lasso(X, y, replace(sampler, chain_id=3 * rep + 1))
    lm = _sparse_metrics(lasso, theta0, limits)

    gdp = gibbs_gdp(X, y, replace(sampler, chain_id=3 * rep + 2))
    dm = _sparse_metrics(gdp, theta0, limits)

    out["gap_shrinkage"] = gm
    out["bayesian_lasso"] = lm
    out["gdp"] = dm
    out["passed"] = bool(
        gm["nonzero_max_abs_error"] <= limits["nonzero_abs_error_max"]
        and gm["zero_ok_fraction"] >= limits["zero_fraction_min"]
        and gm["median_acf_at_lag"] < limits["acf_max"]
        and gm["dual_feasible_all"]
    )
    chains = {
        "gap_shrinkage": gap,
        "bayesian_lasso": lasso,
        "gdp": gdp,
    }
    return out, chains, {"theta0": theta0}


def _exp2_rep(payload):
    rep, data_seed, sampler, limits, data_kwargs = payload
    Y, theta0 = gen_lowrank_sparse(data_seed + rep, **data_kwargs)
    samples = gibbs_matrix_smoothing(Y, replace(sampler, chain_id=rep))

    sv_cols = samples.columns("sv_")
    sv_means = sv_cols.mean(axis=0)
    sigma2_mean = float(samples.column("sigma2").mean())
    targets = np.asarray(limits["top_sv_targets"])
    rel = np.abs(sv_means[:3] - targets) / targets

    v2 = samples.columns("V2_")
    lam2 = samples.column("lam2")
    feas = bool(np.all(np.max(np.abs(v2), axis=1) <= lam2 + 1e-9))

    lo, hi = limits["sigma2_range"]
    metrics = {
        "rep": rep,
        "sigma2_mean": sigma2_mean,
        "sv_means": sv_means.tolist(),
        "top_sv_rel_error": rel.tolist(),
        "tail_sv_max": float(np.max(sv_means[3:6])) if sv_means.size > 3 else 0.0,
        "dual_feasible_all": feas,
        "theta0_fro": float(np.linalg.norm(theta0)),
    }
    metrics["passed"] = bool(
        lo <= sigma2_mean <= hi
        and np.all(rel <= limits["top_sv_rel_tol"])
        and metrics["tail_sv_max"] < limits["tail_sv_max"]
        and feas
    )
    # posterior mean of theta from the factor draws
    p1, p2 = theta0.shape
    r = samples.columns("A_").shape[1] // p1
    theta_mean = np.zeros((p1, p2))
    A_draws = samples.columns("A_").reshape(-1, p1, r)
    B_draws = samples.columns("B_").reshape(-1, p2, r)
    step = max(1, A_draws.shape[0] // 200)
    for i in range(0, A_draws.shape[0], step):
        theta_mean += A_draws[i] @ B_draws[i].T
    theta_mean /= len(range(0, A_draws.shape[0], step))
    metrics["sv_of_theta_mean"] = np.linalg.svd(theta_mean, compute_uv=False)[
        :6
    ].tolist()
    return metrics, {"gap_matrix": samples}, {
        "theta0": theta0,
        "theta_mean": theta_mean,
    }


def _exp3_rep(payload):
    rep, data_seed, sampler, limits, data_kwargs = payload
    Y, X, departments, theta0 = gen_fused_probit(data_seed + rep, **data_kwargs)
    samples = gibbs_fused_probit(Y, X, departments, replace(sampler, chain_id=rep))

    m, p = theta0.shape
    theta_mean = samples.columns("theta_").mean(axis=0).reshape(m, p)
    deviant = data_kwargs.get("deviant")

    within_plain, deviant_diffs = [], []
    for g in departments:
        for i_, j_ in [(a, b) for a in g for b in g if a < b]:
            diff = float(np.max(np.abs(theta_mean[i_] - theta_mean[j_])))
            if deviant is not None and deviant in (i_, j_):
                deviant_diffs.append(diff)
            else:
                within_plain.append(diff)

    rho_mean = float(samples.column("rho").mean())
    omega_mean = float(samples.column("omega_cross").mean())
    v = samples.columns("v_")
    rho_draws = samples.column("rho")
    feas = bool(np.all(np.max(np.abs(v), axis=1) <= rho_draws + 1e-9))

    metrics = {
        "rep": rep,
        "max_within_dept_diff": max(within_plain) if within_plain else 0.0,
        "min_deviant_diff": min(deviant_diffs) if deviant_diffs else None,
        "rho_mean": rho_mean,
        "omega_cross_mean": omega_mean,
        "dual_feasible_all": feas,
    }
    passed = (
        metrics["max_within_dept_diff"] <= limits["within_dept_diff_max"]
        and omega_mean <= limits["omega_cross_max"]
        and feas
    )
    if deviant_diffs and within_plain:
        ratio = min(deviant_diffs) / max(max(within_plain), 1e-6)
        metrics["deviant_ratio"] = float(ratio)
        passed = passed and ratio >= limits["deviant_ratio_min"]
    metrics["passed"] = bool(passed)
    return metrics, {"gap_fused_probit": samples}, {
        "theta0": theta0,
        "theta_mean": theta_mean,
        "departments": [list(g) for g in departments],
    }


def _exp1_comparison(rep_metrics, limits):
    """exp1's verdict across replications: with more than one, the Bayesian
    lasso must have the larger rmse on the support often enough.  Returns
    (passed, the report's comparison entries)."""
    if len(rep_metrics) < 2:
        return True, {}
    worse = [
        m["bayesian_lasso"]["rmse_nonzero"] > m["gap_shrinkage"]["rmse_nonzero"]
        for m in rep_metrics
    ]
    frac = float(np.mean(worse))
    passed = frac >= limits["lasso_worse_rmse_min_fraction"]
    return passed, {"lasso_worse_rmse_fraction": frac}


def _no_comparison(rep_metrics, limits):
    return True, {}


def _plot_exp1(out, rep, chains, summaries):
    gap = chains["gap_shrinkage"]
    theta0 = summaries["theta0"]
    nz = np.flatnonzero(theta0)
    zeros = np.flatnonzero(theta0 == 0)[: 15 - nz.size]
    sel = np.concatenate([nz, zeros])
    draws = gap.columns("theta_")[:, sel]
    q = np.quantile(draws, [0.025, 0.5, 0.975], axis=0)
    plots.svg_intervals(
        out / f"coefficients_rep{rep}.svg",
        [f"t{j}" for j in sel],
        *q,
        truth=theta0[sel],
        title="posterior spread of selected coefficients",
    )
    curves = {
        label: _pooled_median_acf(samples.columns("theta_")[:, :50], 15)
        for label, samples in chains.items()
    }
    plots.svg_lines(
        out / f"acf_rep{rep}.svg",
        curves,
        title="pooled median autocorrelation",
        threshold=0.2,
    )


def _plot_exp2(out, rep, chains, summaries):
    sv = chains["gap_matrix"].columns("sv_")
    q = np.quantile(sv, [0.025, 0.5, 0.975], axis=0)
    truth = np.linalg.svd(summaries["theta0"], compute_uv=False)[: sv.shape[1]]
    plots.svg_intervals(
        out / f"singular_values_rep{rep}.svg",
        [f"k={k + 1}" for k in range(sv.shape[1])],
        *q,
        truth=truth,
        title="posterior singular values",
    )
    plots.svg_heatmap(
        out / f"theta_mean_rep{rep}.svg",
        np.abs(summaries["theta_mean"]),
        title="posterior mean |theta|",
    )


def _plot_exp3(out, rep, chains, summaries):
    theta_mean = summaries["theta_mean"]
    m = theta_mean.shape[0]
    diff = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            diff[i, j] = np.max(np.abs(theta_mean[i] - theta_mean[j]))
    plots.svg_heatmap(
        out / f"pairwise_diff_rep{rep}.svg",
        diff,
        title="max |pairwise coefficient difference|",
    )


# exp2's chain CSV keeps the factors and summaries, not the dual grids
_EXP2_CSV_PREFIXES = ("A_", "B_", "sigma2", "lam1", "lam2", "sv_")


def run_experiment(config, exp3_gen_kwargs=None):
    """Run one experiment end to end; returns the RunReport.

    Writes, under out_dir/<experiment>/: per-replication chain CSVs,
    report.json (deterministic), timing.json, and SVG plots.
    exp3_gen_kwargs replaces exp3's default data-generator arguments.
    """
    out = Path(config.out_dir) / config.experiment
    out.mkdir(parents=True, exist_ok=True)
    limits = config.thresholds[config.experiment.replace("-", "_")]

    if config.experiment == "gap-check":
        result = run_gap_check(limits, seed=config.sampler.seed)
        _json_dump(out / "report.json", result)
        return RunReport([result], result["passed"])

    # built per call, so a rebound module attribute (a profiler's wrapper,
    # say) is the function called
    rep_fn, plot_fn, csv_prefixes, compare, data_kwargs = {
        "exp1": (_exp1_rep, _plot_exp1, None, _exp1_comparison, {}),
        "exp2": (_exp2_rep, _plot_exp2, _EXP2_CSV_PREFIXES, _no_comparison, {}),
        "exp3": (
            _exp3_rep, _plot_exp3, None, _no_comparison,
            exp3_gen_kwargs or {"m": 8, "p": 2, "n": 2000, "deviant": 0},
        ),
    }[config.experiment]
    payloads = [
        (rep, config.data_seed, config.sampler, limits, data_kwargs)
        for rep in range(config.replications)
    ]
    results = _map_tasks(rep_fn, payloads)

    rep_metrics = []
    timings = []
    for metrics, chains, summaries in results:
        rep = metrics["rep"]
        for label, samples in chains.items():
            # one chain file per replication: the gap-shrinkage model;
            # comparator recovery metrics live in the report
            if label.startswith("gap"):
                _write_csv(out / f"rep{rep}_{label}.csv", samples, csv_prefixes)
            timings.append(
                {
                    "rep": rep,
                    "model": label,
                    "wall_seconds": samples.meta["wall_seconds"],
                }
            )
        plot_fn(out, rep, chains, summaries)
        rep_metrics.append(metrics)

    compared, comparison = compare(rep_metrics, limits)
    passed = all(m["passed"] for m in rep_metrics) and compared
    report_payload = {
        "experiment": config.experiment,
        "replications": rep_metrics,
        "comparison": comparison,
        "passed": bool(passed),
    }
    _json_dump(out / "report.json", report_payload)
    _json_dump(out / "timing.json", {"chains": timings})
    return RunReport(rep_metrics, bool(passed))
