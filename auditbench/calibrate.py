"""A fixed reference loop that gauges how fast the machine runs right now.

The benchmark's machine is a few cores of a shared host, and its speed drifts
by up to 1.8x over minutes while the work stays the same. Timing this loop
next to every audit (and around the import probes) and dividing by it takes
most of that drift out of the reported times: over five large-n runs, the
spread of the run medians (IQR/median) fell from 0.13 for wall seconds to
0.07 for scaled seconds.

The loop mirrors the audit's mix: small-matrix numpy (Newton steps of a
ridge-logistic fit), routing rows down binary splits by boolean gathers (as
the tree search does, on 8000 rows so that cache pressure shows as it does
on large-n) and pure-Python bookkeeping. It calls nothing in strikeaudit, so
no change to the library can move it.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

# Seconds a pass of the loop is taken to last at the reference speed. A
# scaled time is the wall time the measured work would take on a machine
# where a pass lasts exactly this long.
REFERENCE_S = 0.25
PASSES = 3

_rng = np.random.default_rng(20210322)
_X = np.column_stack([np.ones(1500), (_rng.random((1500, 8)) < 0.3).astype(float)])
_Y = (_rng.random(1500) < 0.4).astype(float)
_RIDGE = 1e-2 * np.eye(_X.shape[1])
_XB = [col for col in _rng.random((11, 8000)) < 0.35]
_YB = _rng.random(8000) < 0.4


def _newton() -> None:
    beta = np.zeros(_X.shape[1])
    for _ in range(6):
        p = 1.0 / (1.0 + np.exp(-(_X @ beta)))
        grad = _X.T @ (p - _Y) + _RIDGE @ beta
        hess = (_X * (p * (1.0 - p))[:, None]).T @ _X + _RIDGE
        beta -= np.linalg.solve(hess, grad)


def _routing() -> None:
    rows = np.arange(len(_YB))
    for f in range(len(_XB)):
        right = _XB[f][rows]
        for side in (rows[right], rows[~right]):
            for g in range(len(_XB)):
                np.count_nonzero(_XB[g][side] & _YB[side])


def _bookkeeping() -> None:
    counts: dict[int, int] = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + i


def loop_seconds() -> float:
    """Median wall seconds of PASSES passes of the reference loop. A burst of
    contention that lands on one short pass would misjudge the speed that a
    whole audit sees, so the median drops it."""
    return median(_pass_seconds() for _ in range(PASSES))


def _pass_seconds() -> float:
    start = time.perf_counter()
    for _ in range(120):
        _newton()
    for _ in range(20):
        _routing()
    for _ in range(15):
        _bookkeeping()
    return time.perf_counter() - start


def scaled(seconds: float, loop_before: float, loop_after: float) -> float:
    """``seconds`` rescaled to the reference speed, judged by the loop timed
    just before and just after the measured work."""
    return seconds * REFERENCE_S / ((loop_before + loop_after) / 2)
