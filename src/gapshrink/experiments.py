"""Experiment drivers: synthetic-data runs, persistence, and reports.

An experiment is a replication function (_exp1_rep, _exp2_rep, _exp3_rep),
a plot function, the columns of its chain CSV and a verdict across
replications; run_experiment looks all four up in one table.  A
replication takes the payload (rep, data_seed, sampler, limits,
data_kwargs), draws its data from seed data_seed + rep (only exp3's
generator takes data_kwargs; exp1 and exp2 data have fixed sizes), runs
its samplers and returns (metrics, chains, summaries).

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
from .gaps import l1_gap
from .samplers import (
    SamplerConfig,
    gibbs_bayesian_lasso,
    gibbs_fused_probit,
    gibbs_gdp,
    gibbs_matrix_smoothing,
    gibbs_sparse_regression,
)
from .samplers.base import CHAIN_IDS

__all__ = [
    "ExperimentConfig",
    "RunReport",
    "run_experiment",
    "load_thresholds",
    "EXPERIMENT_IDS",
]

EXPERIMENT_IDS = ("exp1", "exp2", "exp3", "gap-check")

# replication r of an experiment with n chains runs chain ids n*r .. n*r+n-1
_CHAINS_PER_REP = {"exp1": 3, "exp2": 1, "exp3": 1}


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

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_IDS:
            raise ValueError(f"experiment must be one of {EXPERIMENT_IDS}")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        n = _CHAINS_PER_REP.get(self.experiment, 0)
        if n * self.replications > CHAIN_IDS:
            raise ValueError(f"{self.experiment} allows at most "
                             f"{CHAIN_IDS // n} replications")


@dataclass
class RunReport:
    """Per-replication metrics plus the overall acceptance verdict."""

    replications: list
    passed: bool


def _n_workers(n_tasks):
    """Worker count for n_tasks: GAPSHRINK_THREADS (an integer >= 1) when
    set and nonempty, else the core count, never above n_tasks."""
    env = os.environ.get("GAPSHRINK_THREADS")
    if env:
        try:
            cap = int(env)
        except ValueError:
            cap = 0
        if cap < 1:
            raise ValueError(f"GAPSHRINK_THREADS must be an integer >= 1, got {env!r}")
    else:
        cap = os.cpu_count() or 1
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


def _sparse_metrics(theta_draws, theta0, limits):
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
    rep, data_seed, sampler, limits, _ = payload
    X, y, theta0 = gen_sparse_regression(data_seed + rep)
    out = {"rep": rep, "theta0_nonzero_idx": np.flatnonzero(theta0).tolist()}

    first = _CHAINS_PER_REP["exp1"] * rep
    gap = gibbs_sparse_regression(X, y, replace(sampler, chain_id=first))
    theta_draws = gap.columns("theta_")
    gm = _sparse_metrics(theta_draws, theta0, limits)
    curve = _pooled_median_acf(theta_draws, limits["acf_lag"])
    gm["median_acf_at_lag"] = float(curve[-1])

    # +inf for a draw off the box |u| <= lam or the sign rule u_j theta_j >= 0
    gaps = l1_gap(gap.column("lam"), theta_draws, gap.columns("u_"))
    gm["dual_feasible_all"] = bool(np.all(np.isfinite(gaps)))
    gm["mean_gap"] = float(np.mean(gaps))
    gm["min_gap"] = float(np.min(gaps))

    lasso = gibbs_bayesian_lasso(X, y, replace(sampler, chain_id=first + 1))
    lm = _sparse_metrics(lasso.columns("theta_"), theta0, limits)

    gdp = gibbs_gdp(X, y, replace(sampler, chain_id=first + 2))
    dm = _sparse_metrics(gdp.columns("theta_"), theta0, limits)

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
    return out, chains, {"theta0": theta0, "acf_max": limits["acf_max"]}


def _exp2_rep(payload):
    rep, data_seed, sampler, limits, _ = payload
    Y, theta0 = gen_lowrank_sparse(data_seed + rep)
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
    # posterior mean of theta over about 200 evenly thinned factor draws
    p1, p2 = theta0.shape
    A_draws = samples.columns("A_").reshape(-1, p1, sampler.rank)
    B_draws = samples.columns("B_").reshape(-1, p2, sampler.rank)
    step = max(1, A_draws.shape[0] // 200)
    theta_mean = np.mean(
        A_draws[::step] @ np.swapaxes(B_draws[::step], 1, 2), axis=0
    )
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

    # max |theta_i - theta_j| over covariates, for every pair of categories
    diff = np.max(np.abs(theta_mean[:, None] - theta_mean[None]), axis=-1)
    pairs = [(a, b) for g in departments for a in g for b in g if a < b]
    deviant_diffs = [float(diff[a, b]) for a, b in pairs if deviant in (a, b)]
    within_plain = [float(diff[a, b]) for a, b in pairs if deviant not in (a, b)]

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
        "pairwise_diff": diff,
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
        theta0[sel],
        "posterior spread of selected coefficients",
    )
    curves = {
        label: _pooled_median_acf(samples.columns("theta_")[:, :50], 15)
        for label, samples in chains.items()
    }
    plots.svg_lines(
        out / f"acf_rep{rep}.svg",
        curves,
        "pooled median autocorrelation",
        summaries["acf_max"],
    )


def _plot_exp2(out, rep, chains, summaries):
    sv = chains["gap_matrix"].columns("sv_")
    q = np.quantile(sv, [0.025, 0.5, 0.975], axis=0)
    truth = np.linalg.svd(summaries["theta0"], compute_uv=False)[: sv.shape[1]]
    plots.svg_intervals(
        out / f"singular_values_rep{rep}.svg",
        [f"k={k + 1}" for k in range(sv.shape[1])],
        *q,
        truth,
        "posterior singular values",
    )
    plots.svg_heatmap(
        out / f"theta_mean_rep{rep}.svg",
        np.abs(summaries["theta_mean"]),
        "posterior mean |theta|",
    )


def _plot_exp3(out, rep, chains, summaries):
    plots.svg_heatmap(
        out / f"pairwise_diff_rep{rep}.svg",
        summaries["pairwise_diff"],
        "max |pairwise coefficient difference|",
    )


# exp2's chain CSV keeps the factors and summaries, not the dual grids
_EXP2_CSV_PREFIXES = ("A_", "B_", "sigma2", "lam1", "lam2", "sv_")


def run_experiment(config, exp3_gen_kwargs=None):
    """Run one experiment end to end; returns the RunReport.

    Writes, under out_dir/<experiment>/: per-replication chain CSVs,
    report.json (deterministic), timing.json, and SVG plots.
    exp3_gen_kwargs replaces exp3's default data-generator arguments; any
    other experiment rejects them, as its data have fixed sizes.
    """
    if exp3_gen_kwargs is not None and config.experiment != "exp3":
        raise ValueError(f"{config.experiment} takes no exp3_gen_kwargs")
    out = Path(config.out_dir) / config.experiment
    out.mkdir(parents=True, exist_ok=True)
    limits = load_thresholds()[config.experiment.replace("-", "_")]

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
                    "wall_seconds": samples.wall_seconds,
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
