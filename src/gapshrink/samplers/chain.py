"""The chain driver shared by every Gibbs sampler: sweep loop, warmup and
thinning, the retained-draws matrix, the state check at each kept draw, and
the labels and metadata of the output."""

from __future__ import annotations

import time

import numpy as np

from ..errors import NumericError
from .base import PosteriorSamples

__all__ = ["run_chain", "check_state"]


def check_state(duals, scales):
    """Check the invariants of a chain state.

    duals maps each box-constrained dual block to (array, bound); scales maps
    each mixture augmentation, stored as precisions, to its array.  Raises
    ValueError unless every scale is strictly positive and every dual block
    lies inside its current box.
    """
    for name, arr in scales.items():
        if not np.all(np.asarray(arr) > 0.0):
            raise ValueError(f"augmentation scale {name!r} not positive")
    for name, (arr, bound) in duals.items():
        arr = np.asarray(arr)
        if arr.size and np.max(np.abs(arr)) > bound * (1 + 1e-12) + 1e-12:
            raise ValueError(f"dual block {name!r} violates its bound {bound:g}")


def _labels(values):
    """Column labels of a record: a scalar keeps its name, and entry
    (i, j) of a block named x is labelled x_i_j (x_i for a vector)."""
    names = []
    for name, value in values.items():
        shape = np.shape(value)
        names += ["_".join(map(str, (name, *idx))) for idx in np.ndindex(shape)]
    return names


def run_chain(config, step, record, model, **meta):
    """Run config.warmup + config.retain sweeps and keep every
    config.thinning-th retained one.

    step(sweep) advances the chain's state through sweep number
    sweep = 1, 2, ...; the state lives with the sampler, which keys its block
    streams by that number.  record() returns (values, duals, scales) for
    the current state: the recorded values by name, in column order, and
    the arguments of check_state.  The first kept record fixes the column
    labels.  meta holds the model's own entries, appended to the common
    ones.

    A NumericError raised by step is re-raised naming its seed, chain and
    sweep; the streams are keyed by that coordinate, so it replays exactly.
    """
    kept = config.retain // config.thinning
    draws = names = None
    row = 0
    t0 = time.perf_counter()
    for sweep in range(1, config.warmup + config.retain + 1):
        try:
            step(sweep)
        except NumericError as exc:
            raise NumericError(
                f"{exc} (seed {config.seed}, chain {config.chain_id}, "
                f"sweep {sweep})"
            ) from exc
        k = sweep - config.warmup - 1
        if k >= 0 and k % config.thinning == 0 and row < kept:
            values, duals, scales = record()
            check_state(duals, scales)
            if names is None:
                names = _labels(values)
                draws = np.empty((kept, len(names)))
            draws[row] = np.concatenate([np.ravel(v) for v in values.values()])
            row += 1
    common = {
        "model": model,
        "seed": config.seed,
        "chain_id": config.chain_id,
        "config_digest": config.digest(),
        "wall_seconds": time.perf_counter() - t0,
        "warmup": config.warmup,
        "retain": config.retain,
    }
    return PosteriorSamples(draws, names, {**common, **meta})
