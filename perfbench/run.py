"""Benchmark of gapshrink's experiment drivers, run in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's rounds call
``gapshrink.experiments.run_experiment`` (the code behind ``gapshrink exp1``
and its siblings) until the next round would end past S seconds; every
round's outputs are checked.  Between rounds, at even spacings through the
run, a fresh process is started a few times to time set-up.  Times are read
against the machine's pace (pace.py).  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``, where an
operation is one round.  With ``--trace 0`` the metrics are the end-to-end
ones of BENCHMARK.json; with ``--trace 1`` every other round is traced and
the metrics are the per-layer ones.  A detail record (environment, rounds,
checks, tracing overhead) is printed on the line before and written under
``.perfbench/`` with the trace spans.

No thread count is set: the program runs at the machine's own settings.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
# no round starts after this many seconds, so a run ends well within 180 s
LAST_START_S = 120.0

perf = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import gapshrink from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "gapshrink" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gapshrink sources under {src}")
    sys.path.insert(0, str(src))
    import gapshrink

    if Path(gapshrink.__file__).resolve().parent != (src / "gapshrink").resolve():
        raise SystemExit(f"perfbench: gapshrink imported from {gapshrink.__file__}")


def time_setup(workload_name, seed):
    """(seconds, reference seconds around them) of one set-up in a fresh process."""
    from pace import reference

    ref_before = reference()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload_name, str(seed)],
        capture_output=True, text=True, check=True, timeout=60, cwd=ROOT,
    )
    return float(done.stdout.split()[-1]), (ref_before + reference()) / 2.0


def span_totals(record):
    """Summed seconds per span name, sweeps per sampler, pool workers."""
    seconds = defaultdict(float)
    sweeps = defaultdict(int)
    workers = 1
    for name, t0, t1, _, info in record["spans"]:
        seconds[name] += t1 - t0
        if name.startswith("samplers.") and info:
            sweeps[name[len("samplers."):]] += info["sweeps"]
        if name == "experiments.map_tasks":
            workers = info["workers"]
    return seconds, sweeps, workers


def run_rounds(workload, seed, seconds, traced, out_dir):
    """Rounds of run_experiment until the next would end past `seconds`,
    and SETUP_REPEATS set-up timings spread through them."""
    from gapshrink import experiments
    from ess import ess
    from pace import reference
    from probe import Probe
    from workloads import (check_outputs, data_seed, experiment_config,
                           identical_outputs, make_inputs)

    probe = Probe()
    rounds, setups = [], []
    begin = perf()
    k = 0
    while True:
        elapsed = perf() - begin
        # set-up is timed at even spacings through the run, so that its
        # median, like the rounds', spans the host's slow and fast spells
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(time_setup(workload.name, seed))
            continue
        # at least round 0 and one traced and one untraced timed round
        if k >= 3 and (elapsed + statistics.median(r["wall"] for r in rounds) > seconds
                       or elapsed > LAST_START_S):
            break
        config_index = max(k - 1, 0)
        round_dir = out_dir / f"round{k}"
        config = experiment_config(workload, seed, config_index, round_dir)
        trace_round = traced and k % 2 == 1
        probe.install(trace_round)
        mark = probe.mark()
        error = None
        ref_before = reference()
        t0 = perf()
        try:
            experiments.run_experiment(config, workload.gen_kwargs or None)
        except Exception as exc:  # a failed round is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        wall = perf() - t0
        ref = (ref_before + reference()) / 2.0
        probe.uninstall()
        record = probe.since(mark)
        fails, notes, key_scalars = [], {}, []
        exp_dir = round_dir / workload.experiment
        if error is None:
            inputs = make_inputs(workload, data_seed(seed, config_index))
            fails, notes, key_scalars = check_outputs(
                workload, exp_dir, inputs, seed * 10_000 + k)
            if k == 1 and rounds[0]["error"] is None:
                fails += identical_outputs(out_dir / "round0" / workload.experiment, exp_dir)
        rounds.append({
            "round": k, "config_index": config_index, "traced": trace_round,
            "wall": wall, "reference": ref, "error": error, "fails": fails,
            "chain_ess_min": [min(ess(x) for x in chain.values()) for chain in key_scalars],
            "notes": notes, "key_scalars": key_scalars, "record": record,
        })
        if k >= 1:
            for old in out_dir.glob("round*"):
                if old != round_dir:
                    shutil.rmtree(old)
        k += 1
    while len(setups) < SETUP_REPEATS:
        setups.append(time_setup(workload.name, seed))
    return rounds, probe, setups


def ess_per_second(workload, rounds):
    """Smallest pooled key-scalar ESS of the gap chains of the timed rounds
    (each a distinct config) per paced second of those chains' sampler calls;
    for gap-check, independent cases per paced second of the slowest suite."""
    from ess import pooled_ess
    from pace import paced
    from workloads import GAP_CHECK_CASES

    def paced_seconds(span):
        return sum(paced(span_totals(r["record"])[0][span], r["reference"]) for r in rounds)

    if workload.gap_model is None:
        per_suite = {suite: cases * len(rounds) / paced_seconds(f"certify.{suite}")
                     for suite, cases in GAP_CHECK_CASES.items()}
        return min(per_suite.values()), per_suite
    chains = [chain for r in rounds for chain in r["key_scalars"]]
    pooled = {role: pooled_ess([c[role] for c in chains]) for role in chains[0]}
    return min(pooled.values()) / paced_seconds(f"samplers.{workload.gap_model}"), pooled


def per_layer(rounds):
    """Per-layer metrics from the traced rounds: per round, per sweep, or ratios."""
    n = len(rounds)
    seconds = defaultdict(float)
    sweeps = defaultdict(int)
    counters = defaultdict(lambda: [0, 0.0, 0.0])
    wall = busy_capacity = 0.0
    for r in rounds:
        s, sw, workers = span_totals(r["record"])
        for key, v in s.items():
            seconds[key] += v
        for key, v in sw.items():
            sweeps[key] += v
        for key, (calls, secs, extra) in r["record"]["counters"].items():
            c = counters[key]
            c[0] += calls
            c[1] += secs
            c[2] += extra
        wall += r["wall"]
        busy_capacity += r["wall"] * workers

    m = {}
    sampler_s = 0.0
    for model, count in sweeps.items():
        total = seconds[f"samplers.{model}"]
        sampler_s += total
        m[f"samplers.{model}.s_per_sweep"] = total / count
        for name, v in seconds.items():
            if name.startswith(f"{model}."):
                m[f"samplers.{name}.s_per_sweep"] = v / count

    def calls_and_seconds(key):
        calls, secs, extra = counters[key]
        m[f"{key}.calls"] = calls / n
        m[f"{key}.s"] = secs / n
        return calls, extra

    for fn in ("stream", "inverse_gaussian"):
        calls_and_seconds(f"rng.{fn}")
    calls, extra = calls_and_seconds("rng.truncated_normal")
    m["rng.truncated_normal.values_per_call"] = extra / calls if calls else 0.0
    calls, extra = calls_and_seconds("rng.slice_sample_1d")
    m["rng.slice_sample_1d.logf_per_call"] = extra / calls if calls else 0.0
    calls, extra = calls_and_seconds("oracles.prox_fused")
    m["oracles.prox_fused.iterations_per_call"] = extra / calls if calls else 0.0
    calls_and_seconds("oracles.kl_project")
    calls_and_seconds("diagnostics.acf")
    for layer in ("gaps", "penalties"):
        calls_and_seconds(layer)
    for layer in ("plots", "datasets"):
        m[f"{layer}.s"] = counters[layer][1] / n

    reps = sum(v for k, v in seconds.items() if k.startswith("experiments.exp"))
    m["experiments.samplers.s"] = sampler_s / n
    m["experiments.outputs.s"] = (
        wall - seconds["experiments.map_tasks"] + reps - sampler_s) / n
    m["experiments.pool.busy_ratio"] = sampler_s / busy_capacity
    for name, v in seconds.items():
        if name.startswith("certify."):
            m[f"{name}.s"] = v / n
    return m


def block_accounting(rounds):
    """Per sampler: measured seconds, summed block seconds, and the share of
    the sampler's time no block span covers (work before its first stream)."""
    seconds = defaultdict(float)
    for r in rounds:
        for name, v in span_totals(r["record"])[0].items():
            seconds[name] += v
    out = {}
    for name, total in seconds.items():
        if name.startswith("samplers."):
            model = name[len("samplers."):]
            blocks = sum(v for k, v in seconds.items() if k.startswith(model + "."))
            out[model] = {"sampler_s": total, "blocks_s": blocks,
                          "unattributed_share": 1.0 - blocks / total}
    return out


def peak_rss_mb():
    """Largest peak resident set of this process and its waited-for
    children (the program's pool workers and the set-up probes, which stay
    below this process); Linux reports KiB."""
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, child_kib) / 1024.0


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_program()
    import env
    from ess import ar1_check
    from pace import paced
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    workload = WORKLOADS[args.workload]
    out_dir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    estimator_fails = ar1_check()
    rounds, probe, setups = run_rounds(
        workload, args.seed, args.seconds, bool(args.trace), out_dir)
    rss = peak_rss_mb()

    ok_rounds = [r for r in rounds if r["error"] is None]
    # round 0 warms caches and lazy set-up and is the determinism reference;
    # round 1 repeats its config, so rounds 1.. are timed, each config once
    timed = [r for r in ok_rounds if r["round"] >= 1]
    fails = estimator_fails + [f for r in rounds for f in r["fails"]]
    detail = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env.record(), "failures": fails,
        "setup_s_samples": setups,
        "rounds": [{k: v for k, v in r.items() if k not in ("record", "key_scalars")}
                   for r in rounds],
    }
    if args.trace:
        traced = [r for r in timed if r["traced"]]
        plain = [r for r in timed if not r["traced"]]
        measured = per_layer(traced)
        untraced_wall = statistics.median(paced(r["wall"], r["reference"]) for r in plain)
        traced_wall = statistics.median(paced(r["wall"], r["reference"]) for r in traced)
        detail["tracing_overhead"] = {
            "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
            "overhead_s": traced_wall - untraced_wall,
            "overhead_share": traced_wall / untraced_wall - 1.0,
        }
        detail["block_accounting"] = block_accounting(traced)
        detail["per_layer_all"] = measured
        (out_dir / "trace.json").write_text(json.dumps(
            {"rounds": [r["record"] for r in traced]}))
        wanted = spec["per_layer"]
    else:
        ess_rate, detail["pooled_ess"] = ess_per_second(workload, timed)
        detail["unpaced"] = {
            "setup_s": statistics.median(s for s, _ in setups),
            "wall_s": statistics.median(r["wall"] for r in timed),
        }
        measured = {
            "setup_s": statistics.median(paced(s, ref) for s, ref in setups),
            "wall_s": statistics.median(paced(r["wall"], r["reference"]) for r in timed),
            "ess_per_s_min": ess_rate,
            "peak_rss_mb": rss,
        }
        wanted = spec["end_to_end"]
    metrics = {w["name"]: {"value": measured.get(w["name"], 0.0), "unit": w["unit"]}
               for w in wanted}
    result = {
        "correct": not fails and all(math.isfinite(v["value"]) for v in metrics.values()),
        "attempted": len(rounds),
        "failed": len(rounds) - len(ok_rounds),
        "metrics": metrics,
    }
    (out_dir / "result.json").write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
