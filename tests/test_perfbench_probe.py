"""The benchmark's probe (perfbench/probe.py) still attaches to the program.

The probe rebinds sampler entry points, certification suites, experiment
helpers and per-module stream calls by name, so renaming or deleting one of
them breaks every benchmark round.  This runs the four experiments at a
tiny size under a traced probe and checks that every per-block span the
benchmark reports is produced.
"""

import importlib.util
import json
import re
import sys
from pathlib import Path

from gapshrink.experiments import ExperimentConfig, run_experiment
from gapshrink.samplers import SamplerConfig

ROOT = Path(__file__).resolve().parents[1]


def load_probe():
    spec = importlib.util.spec_from_file_location(
        "perfbench_probe", ROOT / "perfbench" / "probe.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def program_bindings():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if module is not None
        and (name == "gapshrink" or name.startswith("gapshrink."))
    }


def test_traced_probe_sees_every_benchmark_block(tmp_path):
    names = [m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    per_block = (re.fullmatch(r"samplers\.(\w+\.\w+)\.s_per_sweep", n)
                 for n in names)
    blocks = {m.group(1) for m in per_block if m}
    assert blocks, "BENCHMARK.json names no per-block span"
    suites = {f"certify.{s}" for s in
              ("nonnegativity", "theorem1", "theorem2", "zero_gap")}

    before = program_bindings()
    probe = load_probe().Probe()
    probe.install(True)
    try:
        for experiment in ("exp1", "exp2", "exp3", "gap-check"):
            config = ExperimentConfig(
                experiment=experiment, replications=1,
                sampler=SamplerConfig(warmup=3, retain=3, seed=1),
                out_dir=str(tmp_path),
            )
            run_experiment(
                config, {"m": 4, "p": 2, "n": 200, "deviant": 0}
                if experiment == "exp3" else None,
            )
    finally:
        probe.uninstall()

    spans = {span[0] for span in probe.spans}
    assert blocks - spans == set()
    assert suites - spans == set()
    after = program_bindings()
    for module, attrs in before.items():
        changed = [a for a, v in attrs.items() if after[module].get(a) is not v]
        assert changed == [], f"{module}: {changed} not restored"
