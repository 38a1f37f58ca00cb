"""Command-line driver for the simulation experiments.

Subcommands: exp1 (sparse regression), exp2 (low-rank plus sparse matrix
smoothing), exp3 (fused probit on synthetic taxonomy data), gap-check
(randomized certification of the gap bounds).  A JSON config file given
with --config overrides the flags.  Exit status is 0 when the run passes
its acceptance thresholds, 1 when it fails, 2 on error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import EXPERIMENT_IDS, ExperimentConfig, load_thresholds, run_experiment
from .samplers import SamplerConfig

_DEFAULTS = {
    "exp1": {"warmup": 1000, "retain": 1000, "alpha": 1000.0, "reps": 5},
    "exp2": {"warmup": 3000, "retain": 3000, "alpha": 1000.0, "reps": 1},
    "exp3": {"warmup": 500, "retain": 500, "alpha": 1000.0, "reps": 1},
    "gap-check": {"warmup": 1, "retain": 1, "alpha": 1.0, "reps": 1},
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gapshrink",
        description="Gap-shrinkage prior experiments and certification checks",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for exp in EXPERIMENT_IDS:
        defaults = _DEFAULTS[exp]
        sp = sub.add_parser(exp)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--reps", type=int, default=defaults["reps"])
        sp.add_argument("--warmup", type=int, default=defaults["warmup"])
        sp.add_argument("--retain", type=int, default=defaults["retain"])
        sp.add_argument("--alpha", type=float, default=defaults["alpha"])
        sp.add_argument("--out", type=str, default="runs")
        sp.add_argument("--config", type=str, default=None,
                        help="JSON file whose entries override the flags")
    return parser


def _apply_config_file(args):
    """Override the subcommand's flags with the entries of the --config file;
    any other key is an error."""
    if args.config is None:
        return args
    with open(args.config) as fh:
        overrides = json.load(fh)
    flags = set(vars(args)) - {"experiment", "config"}
    unknown = sorted(set(overrides) - flags)
    if unknown:
        raise ValueError(f"unknown --config key(s): {', '.join(unknown)}")
    for key, value in overrides.items():
        setattr(args, key, value)
    return args


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args = _apply_config_file(args)
        sampler = SamplerConfig(
            warmup=args.warmup,
            retain=args.retain,
            seed=args.seed,
            alpha=args.alpha,
        )
        config = ExperimentConfig(
            experiment=args.experiment,
            replications=args.reps,
            sampler=sampler,
            data_seed=2024 + args.seed,
            out_dir=args.out,
            thresholds=load_thresholds(),
        )
        report = run_experiment(config)
    except Exception as exc:  # pragma: no cover - defensive surface
        print(f"error: {exc}", file=sys.stderr)
        return 2
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{args.experiment}: {verdict} ({len(report.replications)} replication(s))")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
