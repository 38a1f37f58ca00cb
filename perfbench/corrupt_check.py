"""Show that every output check of the benchmark can fail.

Runs one round of each workload, confirms its outputs pass, then corrupts
copies of them one way at a time and confirms the matching check reports
the corruption.  Exit status 0 when every corruption is caught.

    python3 perfbench/corrupt_check.py
"""

from __future__ import annotations

import json
import shutil
import sys

import numpy as np

from run import OUT, import_program


def write_csv(path, names, draws):
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        np.savetxt(fh, draws, delimiter=",", fmt="%.10g")


def csv_corruption(csv_name, edit):
    """A corruption that rewrites one chain CSV through edit(names, draws)."""
    from workloads import read_csv

    def apply(exp_dir):
        path = exp_dir / csv_name
        names, draws = read_csv(path)
        edit(names, draws)
        write_csv(path, names, draws)

    return apply


def report_corruption(edit):
    def apply(exp_dir):
        path = exp_dir / "report.json"
        report = json.loads(path.read_text())
        edit(report)
        path.write_text(json.dumps(report))

    return apply


def col(names, name):
    return names.index(name)


def cols(names, prefix):
    return [j for j, n in enumerate(names) if n.startswith(prefix)]


def sparse_cases(inputs):
    theta0 = inputs[0][2]
    support = np.flatnonzero(theta0)
    zero = int(np.flatnonzero(theta0 == 0)[0])
    j = int(support[0])

    def u_above_lam(n, d):
        d[0, col(n, f"u_{j}")] = 1.5 * d[0, col(n, "lam")]

    def u_sign(n, d):
        t, u = col(n, f"theta_{j}"), col(n, f"u_{j}")
        d[0, u] = -np.sign(d[0, t]) * 0.5 * d[0, col(n, "lam")]

    def swap_support(n, d):
        a, b = col(n, f"theta_{j}"), col(n, f"theta_{zero}")
        d[:, [a, b]] = d[:, [b, a]]
        d[:, [col(n, f"u_{j}"), col(n, f"u_{zero}")]] = 0.0

    def shift_mean(n, d):
        d[:, col(n, f"theta_{j}")] += np.sign(d[:, col(n, f"theta_{j}")]) * 1.0

    csv = "rep0_gap_shrinkage.csv"
    return [
        ("|u_j| > lam", csv_corruption(csv, u_above_lam)),
        ("u_j * theta_j < 0", csv_corruption(csv, u_sign)),
        ("negative gap", csv_corruption(csv, u_above_lam)),
        ("top |mean|", csv_corruption(csv, swap_support)),
        ("least-squares", csv_corruption(csv, shift_mean)),
    ]


def matrix_cases(inputs):
    def sv_off(n, d):
        d[:, col(n, "sv_1")] *= 1.001

    def sigma2_off(n, d):
        d[:, col(n, "sigma2")] *= 1.5

    def scale_factor(n, d):
        d[:, cols(n, "A_")] *= 1.3
        d[:, cols(n, "sv_")] *= 1.3

    csv = "rep0_gap_matrix.csv"
    return [
        ("svd(A B^T)", csv_corruption(csv, sv_off)),
        ("sigma2", csv_corruption(csv, sigma2_off)),
        ("top singular values", csv_corruption(csv, scale_factor)),
    ]


def fused_cases(inputs):
    def v_above_rho(n, d):
        d[0, cols(n, "v_")[0]] = 1.5 * d[0, col(n, "rho")]

    def omega_one(n, d):
        d[0, col(n, "omega_cross")] = 1.0

    def split_department(n, d):
        d[:, cols(n, "theta_1_")] += 1.0

    csv = "rep0_gap_fused_probit.csv"
    return [
        ("|v| > rho", csv_corruption(csv, v_above_rho)),
        ("omega_cross outside", csv_corruption(csv, omega_one)),
        ("same-department", csv_corruption(csv, split_department)),
    ]


def gap_cases(inputs):
    def cases(r):
        r["nonnegativity"]["cases"] -= 1

    def negative(r):
        r["nonnegativity"]["min_gap"] = -1e-6
        r["nonnegativity"]["per_kind"]["l1"] = -1e-6

    def kind_missing(r):
        del r["nonnegativity"]["per_kind"]["kl"]

    def thm1(r):
        r["theorem1"]["worst_violation"] = 1e-3

    def thm2(r):
        r["theorem2"]["worst_violation"] = 1e-3

    def zero(r):
        r["zero_gap"]["worst_admm"] = 1.0

    return [
        ("case counts", report_corruption(cases)),
        ("weak duality", report_corruption(negative)),
        ("no weak-duality cases", report_corruption(kind_missing)),
        ("theorem1", report_corruption(thm1)),
        ("theorem2", report_corruption(thm2)),
        ("not zero", report_corruption(zero)),
    ]


CASES = {
    "sparse-regression": sparse_cases,
    "matrix-smoothing": matrix_cases,
    "fused-probit": fused_cases,
    "gap-check": gap_cases,
}


def flip_byte(exp_dir):
    path = sorted(p for p in exp_dir.iterdir() if p.suffix == ".csv" or p.name == "report.json")[0]
    data = bytearray(path.read_bytes())
    data[-2] = ord("7") if data[-2] != ord("7") else ord("3")
    path.write_bytes(bytes(data))


def main():
    import_program()
    from gapshrink import experiments
    from gapshrink.gaps import l1_gap

    from ess import ar1_check, ess
    from workloads import (WORKLOADS, check_l1_gap, check_outputs, data_seed,
                           experiment_config, identical_outputs, make_inputs)

    base = OUT / "corrupt"
    shutil.rmtree(base, ignore_errors=True)
    rows = []

    def record(what, expected, fails):
        caught = any(expected in f for f in fails)
        rows.append((what, expected, caught))
        print(f"{'caught ' if caught else 'MISSED '} {what}: {expected}")

    record("ess estimator x2", "AR(1)", ar1_check(estimator=lambda x: 2.0 * ess(x)))
    record("l1_gap + 1e-3", "at the soft-threshold prox",
           check_l1_gap(lambda *a: l1_gap(*a) + 1e-3, seed=0))
    record("l1_gap / 4", "sqrt(2 gap)", check_l1_gap(lambda *a: l1_gap(*a) / 4.0, seed=0))

    for name, make_cases in CASES.items():
        workload = WORKLOADS[name]
        run_dir = base / name / "original"
        experiments.run_experiment(experiment_config(workload, 0, 0, run_dir),
                                   workload.gen_kwargs or None)
        exp_dir = run_dir / workload.experiment
        inputs = make_inputs(workload, data_seed(0, 0))
        fails, _, _ = check_outputs(workload, exp_dir, inputs, 0)
        rows.append((f"{name} original", "passes", not fails))
        print(f"{'passes ' if not fails else 'FAILS  '} {name} original {fails}")
        for expected, corrupt in make_cases(inputs) + [("differs", flip_byte)]:
            copy = base / name / "corrupted" / workload.experiment
            shutil.rmtree(copy.parent, ignore_errors=True)
            shutil.copytree(exp_dir, copy)
            corrupt(copy)
            if expected == "differs":
                fails = identical_outputs(exp_dir, copy)
            else:
                fails, _, _ = check_outputs(workload, copy, inputs, 0)
            record(name, expected, fails)
    shutil.rmtree(base)
    missed = [r for r in rows if not r[2]]
    print(f"{len(rows) - len(missed)} of {len(rows)} as expected")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
