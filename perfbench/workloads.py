"""Workload definitions, their inputs, and the checks on their outputs.

A workload is one ``gapshrink.experiments.run_experiment`` configuration.
A run repeats it in rounds; round k uses configuration index
c = max(k - 1, 0), so rounds 0 and 1 run the same configuration (the
determinism check compares their outputs) and later rounds fresh ones.
Configuration c of a run with seed s gets the sampler seed s * 10000 + c
and, as the CLI does, the data seed 2024 + that sampler seed.

Every check tests a property the method must have or compares with a
computation made here with numpy; none compares with stored output.  Each
check returns a list of failure messages.
"""

from __future__ import annotations

import filecmp
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gapshrink import datasets
from gapshrink.gaps import l1_gap


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    replications: int = 1
    warmup: int = 1
    retain: int = 1
    gen_kwargs: dict = field(default_factory=dict)
    # the gap-shrinkage chain whose key scalars give ess_per_s_min
    gap_model: str | None = None
    gap_csv: str | None = None


EXP3_GEN = {"m": 16, "p": 2, "n": 2000, "deviant": 0}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sparse-regression", "exp1", warmup=80, retain=60,
            gap_model="sparse_regression", gap_csv="gap_shrinkage",
        ),
        Workload(
            "matrix-smoothing", "exp2", warmup=20, retain=40,
            gap_model="matrix_smoothing", gap_csv="gap_matrix",
        ),
        Workload(
            "fused-probit", "exp3", warmup=20, retain=40, gen_kwargs=EXP3_GEN,
            gap_model="fused_probit", gap_csv="gap_fused_probit",
        ),
        Workload("gap-check", "gap-check"),
        # Not in BENCHMARK.json: the fork pool oversubscribes the cores with
        # BLAS threads and its wall time varies several-fold run to run.
        Workload(
            "replicated-regression", "exp1", replications=2, warmup=50,
            retain=100, gap_model="sparse_regression", gap_csv="gap_shrinkage",
        ),
    )
}

# gap-check: the case counts run_gap_check is asked for by run_experiment
GAP_CHECK_CASES = {"nonnegativity": 10_000, "theorem1": 1000,
                   "theorem2": 1000, "zero_gap": 1000}


def sampler_seed(run_seed, config_index):
    return run_seed * 10_000 + config_index


def data_seed(run_seed, config_index):
    return 2024 + sampler_seed(run_seed, config_index)


def make_inputs(workload, seed):
    """The inputs gapshrink.datasets generates for each replication."""
    gen = {
        "exp1": datasets.gen_sparse_regression,
        "exp2": datasets.gen_lowrank_sparse,
        "exp3": lambda s: datasets.gen_fused_probit(s, **workload.gen_kwargs),
    }.get(workload.experiment)
    if gen is None:
        return []
    return [gen(seed + rep) for rep in range(workload.replications)]


def experiment_config(workload, run_seed, config_index, out_dir):
    from gapshrink.experiments import ExperimentConfig
    from gapshrink.samplers import SamplerConfig

    return ExperimentConfig(
        experiment=workload.experiment,
        replications=workload.replications,
        sampler=SamplerConfig(
            warmup=workload.warmup, retain=workload.retain,
            seed=sampler_seed(run_seed, config_index),
        ),
        data_seed=data_seed(run_seed, config_index),
        out_dir=str(out_dir),
    )


def read_csv(path):
    """(column names, draws matrix) of a chain CSV."""
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    return names, np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


def _cols(names, draws, prefix):
    idx = [j for j, n in enumerate(names) if n.startswith(prefix)]
    return draws[:, idx]


def _col(names, draws, name):
    return draws[:, names.index(name)]


# -- exp1 ---------------------------------------------------------------------
LS_TOL = 0.35


def check_sparse(names, draws, inputs):
    X, y, theta0 = inputs
    fails = []
    theta = _cols(names, draws, "theta_")
    u = _cols(names, draws, "u_")
    lam = _col(names, draws, "lam")
    if np.any(np.abs(u) > lam[:, None]):
        fails.append("exp1: a draw has |u_j| > lam")
    if np.any(u * theta < 0):
        fails.append("exp1: a draw has u_j * theta_j < 0")
    gap = np.sum((lam[:, None] - np.abs(u)) * np.abs(theta), axis=1)
    if np.any(gap < 0):
        fails.append("exp1: a draw has a negative gap")
    means = theta.mean(axis=0)
    support = np.flatnonzero(theta0)
    top = np.argsort(-np.abs(means))[: support.size]
    if set(top.tolist()) != set(support.tolist()):
        fails.append(f"exp1: top |mean| {sorted(top.tolist())} != support {support.tolist()}")
    ls, *_ = np.linalg.lstsq(X[:, support], y, rcond=None)
    err = float(np.max(np.abs(means[support] - ls)))
    if not err <= LS_TOL:
        fails.append(f"exp1: posterior mean off the least-squares fit by {err:.3f}")
    return fails


def sparse_keys(inputs):
    support = np.flatnonzero(inputs[2])
    return {"sigma2": "sigma2", "lam": "lam",
            **{f"theta_support_{k}": f"theta_{j}" for k, j in enumerate(support)}}


# -- exp2 ---------------------------------------------------------------------
SIGMA2_TRUE, SIGMA2_RTOL = 0.3 ** 2, 0.15
SV_TRUE, SV_RTOL = (10.0, 7.0, 4.0), 0.10


def check_matrix(names, draws, inputs):
    _, theta0 = inputs
    p1, p2 = theta0.shape
    fails = []
    A = _cols(names, draws, "A_")
    B = _cols(names, draws, "B_")
    r = A.shape[1] // p1
    A = A.reshape(-1, p1, r)
    B = B.reshape(-1, p2, r)
    sv = _cols(names, draws, "sv_")
    mine = np.linalg.svd(A @ np.transpose(B, (0, 2, 1)), compute_uv=False)[:, : sv.shape[1]]
    # CSV values carry 10 significant digits
    if not np.allclose(sv, mine, rtol=1e-7, atol=1e-7 * float(np.max(mine))):
        fails.append(f"exp2: sv_k differ from svd(A B^T) by {np.max(np.abs(sv - mine)):.3g}")
    s2 = float(_col(names, draws, "sigma2").mean())
    if not abs(s2 / SIGMA2_TRUE - 1.0) <= SIGMA2_RTOL:
        fails.append(f"exp2: posterior mean sigma2 {s2:.4f}, expected near {SIGMA2_TRUE}")
    top = sv[:, :3].mean(axis=0)
    if not np.all(np.abs(top / SV_TRUE - 1.0) <= SV_RTOL):
        fails.append(f"exp2: top singular values {np.round(top, 3).tolist()}, expected near {SV_TRUE}")
    return fails


def matrix_keys(inputs):
    return {k: k for k in ("sigma2", "lam2", "sv_1", "sv_2", "sv_3")}


# -- exp3 ---------------------------------------------------------------------
WITHIN_MAX = 0.25


def check_fused(names, draws, inputs, deviant):
    """Feasibility and within-department fusion.  Whether the deviant
    category stands out is recorded by deviant_separation but not checked:
    on some data sets its row stays fused with its department for hundreds
    of sweeps, so the check would fail on some seeds only."""
    _, _, departments, theta0 = inputs
    fails = []
    v = _cols(names, draws, "v_")
    rho = _col(names, draws, "rho")
    omega = _col(names, draws, "omega_cross")
    # v is rescaled by rho in place; allow the sampler's own 1e-12 slack
    if np.any(np.abs(v) > rho[:, None] * (1 + 1e-12) + 1e-12):
        fails.append("exp3: a draw has |v| > rho")
    if not np.all((omega > 0.0) & (omega < 1.0)):
        fails.append("exp3: omega_cross outside (0, 1)")
    within = max(_pair_diffs(names, draws, theta0.shape, departments, deviant)[0])
    if not within <= WITHIN_MAX:
        fails.append(f"exp3: same-department categories differ by {within:.3f}")
    return fails


def _pair_diffs(names, draws, shape, departments, deviant):
    """Max-abs differences of posterior-mean rows within each department:
    (pairs without the deviant, pairs with it)."""
    theta = _cols(names, draws, "theta_").mean(axis=0).reshape(shape)
    within, dev = [], []
    for g in departments:
        for i in g:
            for j in g:
                if i < j:
                    d = float(np.max(np.abs(theta[i] - theta[j])))
                    (dev if deviant in (i, j) else within).append(d)
    return within, dev


def deviant_separation(names, draws, inputs, deviant):
    """Smallest difference between the deviant row and its department's
    rows (the truth is 2.0)."""
    _, _, departments, theta0 = inputs
    return min(_pair_diffs(names, draws, theta0.shape, departments, deviant)[1])


def fused_keys(inputs, deviant):
    p = inputs[3].shape[1]
    return {"rho": "rho", "omega_cross": "omega_cross",
            **{f"theta_deviant_{k}": f"theta_{deviant}_{k}" for k in range(p)}}


# -- gap-check ------------------------------------------------------------------
# Penalty kinds of the nonnegativity suite whose weak duality is checked.  The
# nuclear kind is left out: its conjugate's feasibility test,
# penalties.operator_norm, can stop at a smaller singular value, so on rare
# seeds a dual outside the operator-norm ball counts as feasible and the gap
# is negative (CHANGES.md, FOUND).  Its minimum is recorded per round instead.
GATED_KINDS = ("l1", "gen_l1", "ball", "group", "quad", "sum", "kl")


def check_gap_report(report):
    fails = []
    cases = {k: report[k]["cases"] for k in GAP_CHECK_CASES}
    if cases != GAP_CHECK_CASES:
        fails.append(f"gap-check: case counts {cases} != {GAP_CHECK_CASES}")
    per_kind = report["nonnegativity"]["per_kind"]
    missing = [k for k in GATED_KINDS if k not in per_kind]
    if missing:
        fails.append(f"gap-check: no weak-duality cases of kinds {missing}")
    elif not min(per_kind[k] for k in GATED_KINDS) >= -1e-10:
        fails.append("gap-check: weak duality violated (negative gap)")
    for suite in ("theorem1", "theorem2"):
        if not report[suite]["worst_violation"] <= 1e-6:
            fails.append(f"gap-check: {suite} distance bound violated")
    zero = report["zero_gap"]
    if not (zero["worst_closed_form"] <= 1e-8
            and zero["worst_admm"] <= 10.0 * zero["admm_tol"]):
        fails.append("gap-check: gap not zero at the oracle optima")
    return fails


def soft_threshold(beta, lam):
    return np.sign(beta) * np.maximum(np.abs(beta) - lam, 0.0)


def check_l1_gap(l1_gap, seed, cases=200):
    """gaps.l1_gap against this file's soft threshold: zero at the prox, and
    ||z - prox|| <= sqrt(2 gap) at dual points u = t * clip(beta, +-lam),
    z = beta - u, t in [0, 1]^p (feasible and sign-matched, so the l1 gap
    equals the proximal duality gap)."""
    rng = np.random.default_rng(seed)
    fails = []
    for _ in range(cases):
        p = int(rng.integers(2, 9))
        lam = float(rng.uniform(0.2, 2.0))
        beta = rng.normal(0.0, 2.0, p)
        prox = soft_threshold(beta, lam)
        clipped = np.clip(beta, -lam, lam)
        at = l1_gap(lam, prox, clipped)
        if not abs(at) <= 1e-12:
            fails.append(f"gap-check: l1_gap {at:.3g} at the soft-threshold prox")
            break
        u = rng.uniform(0.0, 1.0, p) * clipped
        z = beta - u
        gap = l1_gap(lam, z, u)
        if not float(np.linalg.norm(z - prox)) <= math.sqrt(2.0 * gap) + 1e-12:
            fails.append("gap-check: ||z - prox|| > sqrt(2 gap) for l1_gap")
            break
    return fails


# -- per workload ---------------------------------------------------------------
def check_outputs(workload, exp_dir, inputs, seed):
    """(failures, notes, key scalars) for one round's outputs.

    The key scalars are one {role: draws} per replication; a role names the
    same quantity in every round (``theta_support_k`` is the k-th support
    coordinate), so the rounds' chains can be pooled role by role."""
    exp_dir = Path(exp_dir)
    if workload.experiment == "gap-check":
        report = json.loads((exp_dir / "report.json").read_text())
        notes = {"nuclear_min_gap": report["nonnegativity"]["per_kind"].get("nuclear")}
        return check_gap_report(report) + check_l1_gap(l1_gap, seed), notes, []
    fails, notes, key_scalars = [], {}, []
    for rep, inp in enumerate(inputs):
        names, draws = read_csv(exp_dir / f"rep{rep}_{workload.gap_csv}.csv")
        if workload.experiment == "exp1":
            fails += check_sparse(names, draws, inp)
            keys = sparse_keys(inp)
        elif workload.experiment == "exp2":
            fails += check_matrix(names, draws, inp)
            keys = matrix_keys(inp)
        else:
            deviant = workload.gen_kwargs["deviant"]
            fails += check_fused(names, draws, inp, deviant)
            keys = fused_keys(inp, deviant)
            notes[f"rep{rep}_deviant_separation"] = deviant_separation(
                names, draws, inp, deviant)
        key_scalars.append({role: _col(names, draws, c) for role, c in keys.items()})
    return fails, notes, key_scalars


def identical_outputs(dir_a, dir_b):
    """Byte-compare report.json and the chain CSVs of two rounds."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    files = sorted(p.name for p in dir_a.iterdir()
                   if p.name == "report.json" or p.suffix == ".csv")
    other = sorted(p.name for p in dir_b.iterdir()
                   if p.name == "report.json" or p.suffix == ".csv")
    if files != other or not files:
        return [f"determinism: output files differ: {files} vs {other}"]
    _, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, files, shallow=False)
    return [f"determinism: {name} differs between identical configs"
            for name in mismatch + errors]
