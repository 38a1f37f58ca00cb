"""Synthetic data generators for the three experiment settings."""

from __future__ import annotations

import numpy as np

from .rng import stream

__all__ = ["gen_sparse_regression", "gen_lowrank_sparse", "gen_fused_probit"]

_DATA_BLOCK = 9999


def gen_sparse_regression(seed):
    """exp1's data: a 200 x 500 standard-normal design X and a coefficient
    vector with 5 nonzeros, at random positions with values drawn uniformly
    from {-4, -2, 2, 4}; the response adds unit-variance noise.
    Returns (X, y, theta0).
    """
    rng = stream(seed, 0, 0, _DATA_BLOCK)
    X = rng.standard_normal((200, 500))
    theta0 = np.zeros(500)
    support = rng.choice(500, size=5, replace=False)
    theta0[support] = rng.choice(np.array([-4.0, -2.0, 2.0, 4.0]), size=5)
    y = X @ theta0 + rng.standard_normal(200)
    return X, y, theta0


# Diagonal placement of the rank-one blocks; any non-overlapping placement
# gives the same singular values and sparsity.
_BLOCK_ROWS = (slice(0, 5), slice(10, 15), slice(20, 25))
_BLOCK_COLS = (slice(0, 5), slice(10, 15), slice(20, 25))
_BLOCK_AMPLITUDES = (10.0, 7.0, 4.0)


def gen_lowrank_sparse(seed):
    """exp2's data: 100 noisy copies (sd 0.3) of a 50 x 40 rank-3,
    96.25%-sparse ground truth.

    Three rank-one blocks with unit factor vectors occupy disjoint 5 x 5
    submatrices, scaled so the block singular values are 10, 7, and 4.
    Returns (Y, theta0) with Y of shape (100, 50, 40).
    """
    theta0 = np.zeros((50, 40))
    unit = np.full(5, 1.0 / np.sqrt(5.0))
    for rows, cols, amp in zip(_BLOCK_ROWS, _BLOCK_COLS, _BLOCK_AMPLITUDES):
        theta0[rows, cols] = amp * np.outer(unit, unit)
    rng = stream(seed, 0, 0, _DATA_BLOCK)
    Y = theta0[None, :, :] + 0.3 * rng.standard_normal((100, 50, 40))
    return Y, theta0


def gen_fused_probit(seed, m, p, n, deviant=None):
    """exp3's data: an n x m binary response matrix through a probit link
    on an n x p standard-normal design, with group-constant coefficients.

    The m categories form two departments, range(m // 2) and
    range(m // 2, m); each department shares one coefficient row, whose
    entries have a random sign and a magnitude uniform on (0.5, 1.5).
    deviant, None or an index in range(m), names a category whose row is
    shifted by 2.0, giving within-department pairwise gaps of at least
    that size.  Returns (Y, X, departments, theta0).
    """
    # an int or numpy integer: numpy would index with True as a mask
    if deviant is not None and not (
        np.issubdtype(type(deviant), np.integer) and 0 <= deviant < m
    ):
        raise ValueError(f"deviant must be None or in range({m}), got {deviant!r}")
    half = m // 2
    departments = [list(range(half)), list(range(half, m))]
    rng = stream(seed, 0, 0, _DATA_BLOCK)
    theta0 = np.zeros((m, p))
    for g in departments:
        row = rng.choice([-1.0, 1.0], size=p) * rng.uniform(0.5, 1.5, size=p)
        for j in g:
            theta0[j] = row
    if deviant is not None:
        theta0[deviant] = theta0[deviant] + 2.0
    X = rng.standard_normal((n, p))
    mu = X @ theta0.T
    Y = (mu + rng.standard_normal((n, m)) > 0.0).astype(np.int8)
    return Y, X, departments, theta0
