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

from .experiments import EXPERIMENT_IDS, ExperimentConfig, run_experiment
from .samplers import SamplerConfig

# every subcommand's flags and their defaults; gap-check runs from its seed
_COMMON = {"seed": 0, "out": "runs"}
_DEFAULTS = {
    "exp1": {**_COMMON, "warmup": 1000, "retain": 1000, "alpha": 1000.0, "reps": 5},
    "exp2": {**_COMMON, "warmup": 3000, "retain": 3000, "alpha": 1000.0, "reps": 1},
    "exp3": {**_COMMON, "warmup": 500, "retain": 500, "alpha": 1000.0, "reps": 1},
    "gap-check": _COMMON,
}

# every flag's type; a --config file may set the flags of its subcommand
_FLAG_TYPES = {
    "seed": int, "reps": int, "warmup": int, "retain": int,
    "alpha": float, "out": str,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gapshrink",
        description="Gap-shrinkage prior experiments and certification checks",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for exp in EXPERIMENT_IDS:
        sp = sub.add_parser(exp)
        for flag, default in _DEFAULTS[exp].items():
            sp.add_argument(f"--{flag}", type=_FLAG_TYPES[flag], default=default)
        sp.add_argument("--config", type=str, default=None,
                        help="JSON file whose entries override the flags")
    return parser


def _config_value(key, value):
    """value as its flag's type; a JSON value of another type is an error
    (integer flags take integers but not booleans, float flags take
    numbers, --out takes a string)."""
    kind = _FLAG_TYPES[key]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    ok, wanted = {
        int: (number and isinstance(value, int), "an integer"),
        float: (number, "a number"),
        str: (isinstance(value, str), "a string"),
    }[kind]
    if not ok:
        raise ValueError(
            f"--config key {key!r} needs {wanted}, got {json.dumps(value)}"
        )
    return kind(value)


def _apply_config_file(args):
    """Override the subcommand's flags with the entries of the --config file;
    any other key, or a value of the wrong type, is an error."""
    if args.config is None:
        return args
    with open(args.config) as fh:
        overrides = json.load(fh)
    unknown = sorted(set(overrides) - set(_DEFAULTS[args.experiment]))
    if unknown:
        raise ValueError(f"unknown --config key(s): {', '.join(unknown)}")
    for key, value in overrides.items():
        setattr(args, key, _config_value(key, value))
    return args


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args = _apply_config_file(args)
        chain = {k: getattr(args, k) for k in ("warmup", "retain", "alpha")
                 if hasattr(args, k)}
        config = ExperimentConfig(
            experiment=args.experiment,
            replications=getattr(args, "reps", 1),
            sampler=SamplerConfig(seed=args.seed, **chain),
            data_seed=2024 + args.seed,
            out_dir=args.out,
        )
        report = run_experiment(config)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{args.experiment}: {verdict} ({len(report.replications)} replication(s))")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
