"""The machine's pace: the seconds a fixed piece of the benchmark's own
code takes, timed next to every round.

On a shared host the speed of one core drifts by up to 2x over tens of
seconds, and it drifts alike for the program and for this reference.  A
round's time divided by the reference times around it, scaled by
REFERENCE_S, reads as seconds at a pace where the reference takes
REFERENCE_S; the drift divides out and a change in the program does not.
The reference is pure Python and small numpy products, like the program's
sampler loops, and never calls gapshrink.
"""

from __future__ import annotations

import time

import numpy as np

# nominal seconds of one reference() call; a fixed scale, so that paced
# times stay in seconds
REFERENCE_S = 0.02

# 60 x 60 products stay under OpenBLAS's size for threading a product, so
# the program's BLAS thread count cannot change the reference's pace
_MATRIX = np.random.default_rng(0).normal(size=(60, 60))


def reference():
    """Seconds of one fixed piece of work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    a = _MATRIX
    for _ in range(20):
        a = np.tanh(a @ a.T / 60.0)
    return time.perf_counter() - t0


def paced(seconds, reference_seconds):
    """seconds read at the nominal pace."""
    return seconds * REFERENCE_S / reference_seconds
