import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from gapshrink import experiments
from gapshrink.cli import main
from gapshrink.diagnostics import acf
from gapshrink.gaps import l1_gap
from gapshrink.experiments import (
    ExperimentConfig,
    _pooled_median_acf,
    load_thresholds,
    run_experiment,
)
from gapshrink.samplers import SamplerConfig


def tiny_sampler(**kw):
    base = dict(warmup=5, retain=5, seed=1, alpha=50.0)
    base.update(kw)
    return SamplerConfig(**base)


class TestRunExperiment:
    def test_exp1_file_contract(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="exp1",
            replications=2,
            sampler=tiny_sampler(),
            out_dir=str(tmp_path),
        )
        report = run_experiment(cfg)
        out = tmp_path / "exp1"
        csvs = sorted(p.name for p in out.glob("rep*_*.csv"))
        assert csvs == ["rep0_gap_shrinkage.csv", "rep1_gap_shrinkage.csv"]
        assert (out / "report.json").exists()
        assert (out / "timing.json").exists()
        assert list(out.glob("*.svg"))
        assert len(report.replications) == 2
        # comparator recovery metrics travel in the report instead
        assert "bayesian_lasso" in report.replications[0]
        assert "gdp" in report.replications[0]

    def test_exp1_csv_headers_match_draws(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="exp1",
            replications=1,
            sampler=tiny_sampler(),
            out_dir=str(tmp_path),
        )
        run_experiment(cfg)
        path = tmp_path / "exp1" / "rep0_gap_shrinkage.csv"
        header = path.read_text().splitlines()[0].split(",")
        assert header[:2] == ["theta_0", "theta_1"]
        assert header[-2:] == ["lam", "sigma2"]
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (5, len(header))

    def test_byte_identical_outputs(self, tmp_path):
        paths = []
        for sub in ("a", "b"):
            cfg = ExperimentConfig(
                experiment="exp1",
                replications=1,
                sampler=tiny_sampler(),
                out_dir=str(tmp_path / sub),
            )
            run_experiment(cfg)
            paths.append(tmp_path / sub / "exp1")
        for name in ("report.json", "rep0_gap_shrinkage.csv"):
            assert (paths[0] / name).read_bytes() == (paths[1] / name).read_bytes()

    def test_exp2_report_contents(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="exp2",
            replications=1,
            sampler=tiny_sampler(warmup=3, retain=3),
            out_dir=str(tmp_path),
        )
        run_experiment(cfg)
        report = json.loads((tmp_path / "exp2" / "report.json").read_text())
        rep = report["replications"][0]
        assert "sigma2_mean" in rep
        assert len(rep["sv_means"]) == 6
        # chain csv keeps the factor and summary columns, not the dual grids
        header = (
            (tmp_path / "exp2" / "rep0_gap_matrix.csv").read_text().splitlines()[0]
        )
        assert "V1_0_0" not in header
        assert "sv_1" in header

    def test_exp3_runs_and_reports(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="exp3",
            replications=1,
            sampler=tiny_sampler(warmup=10, retain=10),
            out_dir=str(tmp_path),
        )
        report = run_experiment(
            cfg, exp3_gen_kwargs={"m": 4, "p": 2, "n": 200, "deviant": 0}
        )
        rep = report.replications[0]
        assert "omega_cross_mean" in rep
        assert (tmp_path / "exp3" / "report.json").exists()

    def test_exp3_deviant_out_of_range_rejected(self, tmp_path):
        # deviant -1 used to shift the last category, which exp3 then
        # scored as an ordinary within-department pair
        cfg = ExperimentConfig(experiment="exp3", replications=1,
                               sampler=tiny_sampler(), out_dir=str(tmp_path))
        with pytest.raises(ValueError, match="deviant"):
            run_experiment(
                cfg, exp3_gen_kwargs={"m": 4, "p": 2, "n": 200, "deviant": -1}
            )

    @pytest.mark.parametrize("experiment", ["exp1", "exp2", "gap-check"])
    def test_exp3_gen_kwargs_rejected_elsewhere(self, tmp_path, experiment):
        # only exp3's generator takes arguments; elsewhere they were ignored
        cfg = ExperimentConfig(experiment=experiment, replications=1,
                               sampler=tiny_sampler(), out_dir=str(tmp_path))
        with pytest.raises(ValueError, match="exp3_gen_kwargs"):
            run_experiment(cfg, exp3_gen_kwargs={"m": 99, "bogus": 1})
        assert not (tmp_path / experiment).exists()

    def test_invalid_experiment_id(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="exp9")

    def test_fields(self):
        # the thresholds come from data/thresholds.json on every run
        assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
            "experiment", "replications", "sampler", "data_seed", "out_dir",
        ]

    @pytest.mark.parametrize("experiment, most", [
        ("exp1", 21845), ("exp2", 65536), ("exp3", 65536),
    ])
    def test_replications_bounded_by_chain_ids(self, experiment, most):
        # exp1 runs chain ids 3r..3r+2 for replication r, exp2 and exp3
        # chain id r, and chain ids stop at 65535; a larger count must fail
        # before any replication runs
        assert ExperimentConfig(experiment, replications=most).replications == most
        with pytest.raises(ValueError, match=f"at most {most} replications"):
            ExperimentConfig(experiment, replications=most + 1)


def read_chain_csv(path):
    """The chain CSV as {column name: values}."""
    header = path.read_text().splitlines()[0].split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def prefixed(header, data, prefix):
    return data[:, [j for j, n in enumerate(header) if n.startswith(prefix)]]


class TestReportArithmetic:
    """The report's derived numbers, recomputed from the chain CSV (which
    keeps 10 significant digits)."""

    def test_exp1_gaps_from_csv(self, tmp_path):
        cfg = ExperimentConfig(experiment="exp1", replications=1,
                               sampler=tiny_sampler(warmup=20, retain=20),
                               out_dir=str(tmp_path))
        rep = run_experiment(cfg).replications[0]["gap_shrinkage"]
        header, data = read_chain_csv(tmp_path / "exp1" / "rep0_gap_shrinkage.csv")
        lam = data[:, header.index("lam")]
        theta = prefixed(header, data, "theta_")
        u = prefixed(header, data, "u_")
        gaps = [l1_gap(lam[t], theta[t], u[t]) for t in range(len(lam))]
        assert rep["dual_feasible_all"]
        assert rep["mean_gap"] == pytest.approx(np.mean(gaps), rel=1e-8)
        assert rep["min_gap"] == pytest.approx(np.min(gaps), rel=1e-8)

    def test_exp2_theta_mean_from_csv(self, tmp_path):
        cfg = ExperimentConfig(experiment="exp2", replications=1,
                               sampler=tiny_sampler(warmup=3, retain=4),
                               out_dir=str(tmp_path))
        rep = run_experiment(cfg).replications[0]
        header, data = read_chain_csv(tmp_path / "exp2" / "rep0_gap_matrix.csv")
        A = prefixed(header, data, "A_").reshape(4, 50, 5)
        B = prefixed(header, data, "B_").reshape(4, 40, 5)
        # every draw counts below 200 retained; the loop is the reference
        theta_mean = np.zeros((50, 40))
        for t in range(4):
            theta_mean += A[t] @ B[t].T
        sv = np.linalg.svd(theta_mean / 4, compute_uv=False)[:6]
        np.testing.assert_allclose(rep["sv_of_theta_mean"], sv, rtol=1e-8,
                                   atol=1e-8 * sv[0])

    def test_exp3_pairwise_verdict_from_csv(self, tmp_path):
        m, p = 4, 2
        cfg = ExperimentConfig(experiment="exp3", replications=1,
                               sampler=tiny_sampler(warmup=10, retain=10),
                               out_dir=str(tmp_path))
        rep = run_experiment(
            cfg, exp3_gen_kwargs={"m": m, "p": p, "n": 200, "deviant": 0}
        ).replications[0]
        header, data = read_chain_csv(tmp_path / "exp3" / "rep0_gap_fused_probit.csv")
        draws = prefixed(header, data, "theta_")
        theta_mean = draws.mean(axis=0).reshape(m, p)
        # departments {0, 1} and {2, 3}; category 0 is the deviant
        plain = np.max(np.abs(theta_mean[2] - theta_mean[3]))
        deviant = np.max(np.abs(theta_mean[0] - theta_mean[1]))
        # 10 digits put each mean within 5e-10 of the largest |draw|, so a
        # difference of two means may be off by 1e-9 of it beyond 1e-8 relative
        slack = 1e-9 * np.max(np.abs(draws))
        assert rep["max_within_dept_diff"] == pytest.approx(plain, rel=1e-8, abs=slack)
        assert rep["min_deviant_diff"] == pytest.approx(deviant, rel=1e-8, abs=slack)
        assert rep["deviant_ratio"] == pytest.approx(
            rep["min_deviant_diff"] / max(rep["max_within_dept_diff"], 1e-6), rel=1e-12
        )


class TestPooledAcf:
    def test_curve_matches_per_lag_medians(self):
        # one acf call per column gives every lag; lag 0 is 1, a constant
        # column is skipped
        rng = np.random.default_rng(4)
        draws = np.cumsum(rng.standard_normal((60, 7)), axis=0)
        draws[:, 3] = 2.0
        curve = _pooled_median_acf(draws, 15)
        assert curve.shape == (16,)
        assert curve[0] == 1.0
        for k in range(1, 16):
            per_lag = [acf(draws[:, j], k)[k] for j in range(7) if j != 3]
            assert curve[k] == np.median(per_lag)

    def test_lag_clamps_to_chain_length(self):
        draws = np.random.default_rng(5).standard_normal((4, 3))
        assert _pooled_median_acf(draws, 15).shape == (4,)
        np.testing.assert_array_equal(_pooled_median_acf(np.ones((5, 2)), 3), 0.0)


class TestThresholds:
    def test_loadable_and_complete(self):
        t = load_thresholds()
        assert set(t) >= {"exp1", "exp2", "exp3", "gap_check"}
        assert t["exp2"]["sigma2_range"] == [0.07, 0.12]

    def test_gap_check_verdict_reads_thresholds(self, tmp_path, monkeypatch):
        t = load_thresholds()
        t["gap_check"]["min_gap"] = 1.0
        monkeypatch.setattr(experiments, "load_thresholds", lambda: t)
        cfg = ExperimentConfig(experiment="gap-check", out_dir=str(tmp_path))
        assert not run_experiment(cfg).passed

    def test_exp3_verdict_reads_omega_cross_max(self, tmp_path, monkeypatch):
        # a short exp3 run that passes at the shipped bounds fails once the
        # cross-group weight bound is 0
        t = load_thresholds()
        monkeypatch.setattr(experiments, "load_thresholds", lambda: t)
        verdicts = []
        for bound in (t["exp3"]["omega_cross_max"], 0.0):
            t["exp3"]["omega_cross_max"] = bound
            cfg = ExperimentConfig(
                experiment="exp3",
                replications=1,
                sampler=tiny_sampler(warmup=50, retain=50, alpha=1000.0),
                out_dir=str(tmp_path / str(bound)),
            )
            report = run_experiment(
                cfg, exp3_gen_kwargs={"m": 4, "p": 2, "n": 200, "deviant": 0}
            )
            verdicts.append(report.passed)
        assert verdicts == [True, False]


class TestWorkerPool:
    def test_env_caps_workers(self, monkeypatch):
        from gapshrink.experiments import _n_workers

        monkeypatch.setenv("GAPSHRINK_THREADS", "3")
        assert _n_workers(10) == 3
        assert _n_workers(2) == 2
        monkeypatch.setenv("GAPSHRINK_THREADS", "1")
        assert _n_workers(10) == 1
        monkeypatch.delenv("GAPSHRINK_THREADS")
        assert _n_workers(1) == 1

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5", " "])
    def test_env_must_be_positive_integer(self, monkeypatch, value):
        from gapshrink.experiments import _n_workers

        monkeypatch.setenv("GAPSHRINK_THREADS", value)
        with pytest.raises(ValueError, match="GAPSHRINK_THREADS"):
            _n_workers(10)

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        outs = {}
        for label, threads in (("serial", "1"), ("pool", "2")):
            monkeypatch.setenv("GAPSHRINK_THREADS", threads)
            cfg = ExperimentConfig(
                experiment="exp1",
                replications=2,
                sampler=tiny_sampler(),
                out_dir=str(tmp_path / label),
            )
            run_experiment(cfg)
            outs[label] = (tmp_path / label / "exp1" / "report.json").read_bytes()
        assert outs["serial"] == outs["pool"]


class TestStartup:
    def test_gap_check_loads_no_scipy(self, fresh_python, tmp_path):
        # scipy loads on the first truncated-normal or regression-theta
        # draw, so importing the package and gap-check run on numpy alone
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import gapshrink, gapshrink.cli\n"
            "code = gapshrink.cli.main(['gap-check', '--out', sys.argv[1]])\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            "print(code)\n"
            "from gapshrink.rng import stream, truncated_normal\n"
            "from gapshrink.samplers.base import regression_theta_sampler\n"
            "x = truncated_normal(0.0, 1.0, [-1.0, 6.0, -9.0],\n"
            "                     [1.0, np.inf, -8.0], stream(0))\n"
            "g = stream(1)\n"
            "X, y = g.standard_normal((6, 9)), g.standard_normal(6)\n"
            "theta = regression_theta_sampler(X, y)(1.0, np.ones(9), 0.0, g)\n"
            "print(bool(np.all(np.isfinite(x))), bool(np.all(np.isfinite(theta))))\n"
        )
        out = fresh_python(code, str(tmp_path))
        assert out[-4:-1] == ["[]", "0", "True True"]

    def test_package_import_loads_nothing(self, fresh_python):
        # every name is imported from its module; the package is bare
        code = (
            "import sys, gapshrink\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith(('gapshrink.', 'numpy'))))\n"
        )
        assert fresh_python(code)[0] == "[]"

    def test_every_module_imports_without_scipy(self, fresh_python):
        # no module imports scipy at module level, and every name in a
        # module's __all__ resolves; __main__ would run the CLI
        code = (
            "import importlib, pkgutil, sys, gapshrink\n"
            "found = pkgutil.walk_packages(gapshrink.__path__, 'gapshrink.')\n"
            "names = [m.name for m in found if m.name != 'gapshrink.__main__']\n"
            "for name in names:\n"
            "    module = importlib.import_module(name)\n"
            "    for attr in getattr(module, '__all__', ()):\n"
            "        getattr(module, attr)\n"
            "print(' '.join(names))\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        out = fresh_python(code)
        src = Path(experiments.__file__).parent
        want = {"gapshrink.samplers"} | {
            "gapshrink." + ".".join(path.relative_to(src).with_suffix("").parts)
            for path in src.rglob("*.py")
            if path.name not in ("__init__.py", "__main__.py")
        }
        assert set(out[0].split()) == want
        assert out[1] == "[]"


class TestCLI:
    def test_exp1_smoke_and_exit_code(self, tmp_path, capsys):
        code = main(
            [
                "exp1",
                "--reps", "1",
                "--warmup", "5",
                "--retain", "5",
                "--alpha", "50",
                "--out", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "exp1" in out
        assert (Path(tmp_path) / "exp1" / "report.json").exists()

    def test_nan_alpha_rejected_before_the_chain(self, tmp_path, capsys):
        # it used to fail at sweep 1 with rng's "mu and lam must be positive"
        code = main(["exp1", "--reps", "1", "--warmup", "2", "--retain", "2",
                     "--alpha", "nan", "--out", str(tmp_path)])
        assert code == 2
        assert "alpha must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "exp1").exists()

    def test_config_file_overrides_flags(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"retain": 7}))
        code = main(
            [
                "exp1",
                "--reps", "1",
                "--warmup", "5",
                "--retain", "5",
                "--alpha", "50",
                "--out", str(tmp_path),
                "--config", str(cfg_file),
            ]
        )
        assert code in (0, 1)
        path = tmp_path / "exp1" / "rep0_gap_shrinkage.csv"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape[0] == 7

    @pytest.mark.parametrize(
        "entry",
        [{"seed": 1.5}, {"reps": True}, {"warmup": "5"}, {"alpha": None},
         {"alpha": False}, {"out": 3}],
    )
    def test_config_value_type_checked(self, tmp_path, capsys, entry):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(entry))
        # short flags, so a value let through costs a tiny run only
        code = main(
            ["exp1", "--reps", "1", "--warmup", "2", "--retain", "2",
             "--out", str(tmp_path), "--config", str(cfg_file)]
        )
        assert code == 2
        (key,) = entry
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "exp1").exists()

    def test_config_integer_accepted_for_float_flag(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"alpha": 50, "warmup": 3, "retain": 3}))
        code = main(
            ["exp1", "--reps", "1", "--out", str(tmp_path), "--config", str(cfg_file)]
        )
        assert code in (0, 1)
        assert (tmp_path / "exp1" / "report.json").exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"retain": 7, "warmpu": 3}))
        code = main(["exp1", "--out", str(tmp_path), "--config", str(cfg_file)])
        assert code == 2
        assert "warmpu" in capsys.readouterr().err
        assert not (tmp_path / "exp1").exists()

    def test_gap_check_subcommand(self, tmp_path, capsys):
        code = main(["gap-check", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "gap-check" / "report.json").read_text())
        assert report["passed"]
        assert report["nonnegativity"]["min_gap"] >= -1e-10

    @pytest.mark.parametrize("flag", ["warmup", "retain", "alpha", "reps"])
    def test_gap_check_rejects_chain_flags(self, tmp_path, capsys, flag):
        # gap-check runs from its seed alone; a chain setting it would
        # ignore is an error, as a flag and as a --config key
        with pytest.raises(SystemExit) as exc:
            main(["gap-check", f"--{flag}", "5", "--out", str(tmp_path)])
        assert exc.value.code == 2
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({flag: 5}))
        code = main(["gap-check", "--out", str(tmp_path), "--config", str(cfg_file)])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "gap-check").exists()

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main(["exp9"])
