"""Exact and rank-based statistics: 2x2 Fisher test, Holm adjustment, AUC.

Everything here is implemented directly (no statistics library) so the
results can be checked against brute-force rational-arithmetic oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMetricError, UndefinedTestError, whole

# Relative slack when comparing hypergeometric point probabilities in the
# two-sided tail sum; guards float comparison of mathematically equal masses.
POINT_PROB_SLACK = 1e-7

@dataclass(frozen=True)
class ContingencyTable:
    """2x2 counts: rows = (black, non-black), columns = (struck, not struck)."""

    a: int  # black, struck
    b: int  # black, not struck
    c: int  # non-black, struck
    d: int  # non-black, not struck

    def __post_init__(self):
        counts = (self.a, self.b, self.c, self.d)
        if not all(whole(v, 0) for v in counts):
            raise ValueError(f"contingency table counts must be whole numbers >= 0: {counts}")
        if sum(counts) < 1:
            raise ValueError("contingency table is all zeros")

    @property
    def total(self) -> int:
        return self.a + self.b + self.c + self.d

    def row_sums(self) -> tuple[int, int]:
        return (self.a + self.b, self.c + self.d)

    def col_sums(self) -> tuple[int, int]:
        return (self.a + self.c, self.b + self.d)


def fisher_exact(t: ContingencyTable) -> float:
    """Two-sided Fisher exact p-value for a 2x2 table.

    Sums hypergeometric point probabilities, over all tables with the
    observed margins, that do not exceed the observed table's probability
    (up to a relative slack of ``POINT_PROB_SLACK``).

    Raises UndefinedTestError when a row or column margin is empty.
    """
    r1, r2 = t.row_sums()
    c1, c2 = t.col_sums()
    if min(r1, r2, c1, c2) == 0:
        raise UndefinedTestError(
            f"degenerate margin in table ({t.a}, {t.b}, {t.c}, {t.d})"
        )
    n = t.total
    lf = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n + 1)))])  # lf[i] = log(i!)
    # log P(X = x) for x = count in the (black, struck) cell, margins fixed.
    lo = max(0, c1 - r2)
    hi = min(r1, c1)
    xs = np.arange(lo, hi + 1)
    log_norm = lf[n] - lf[c1] - lf[c2]
    log_pmf = (
        lf[r1] - lf[xs] - lf[r1 - xs]
        + lf[r2] - lf[c1 - xs] - lf[r2 - (c1 - xs)]
        - log_norm
    )
    log_obs = float(log_pmf[t.a - lo])
    threshold = log_obs + math.log1p(POINT_PROB_SLACK)
    p = float(np.exp(log_pmf[log_pmf <= threshold]).sum())
    return min(max(p, 0.0), 1.0)


def holm_adjust(p_values) -> np.ndarray:
    """Holm-Bonferroni step-down adjustment, returned in the input order.

    With p_(1) <= ... <= p_(m), the i-th sorted adjusted value is
    min(1, max_{j<=i} (m - j + 1) * p_(j)).
    """
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1:
        raise ValueError("p_values must be one-dimensional")
    if p.size and not (np.min(p) >= 0.0 and np.max(p) <= 1.0):  # NaN fails both
        raise ValueError("p-values must lie in [0, 1]")
    m = p.size
    if m == 0:
        return np.empty(0)
    order = np.argsort(p, kind="mergesort")
    scaled = (m - np.arange(m)) * p[order]
    adjusted_sorted = np.minimum(np.maximum.accumulate(scaled), 1.0)
    adjusted = np.empty(m)
    adjusted[order] = adjusted_sorted
    return adjusted


def auc(scores, labels) -> float:
    """Tie-aware AUC: P(score_pos > score_neg) + 0.5 * P(score_pos = score_neg).

    Computed as the Mann-Whitney statistic via sorting and midranks.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be 1-d sequences of equal length")
    if not ((y == 0) | (y == 1)).all():
        raise ValueError("labels must be 0/1")
    if np.isnan(s).any():
        raise ValueError("scores must not be NaN")
    y = y.astype(int)
    if y.sum() == 0 or y.sum() == y.size:
        raise UndefinedMetricError("AUC needs at least one positive and one negative")
    n = s.size
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(n)
    # Midranks: average 1-based rank within each tie group.
    boundaries = np.flatnonzero(np.diff(s[order])) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [n]])
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    n_pos = int(y.sum())
    n_neg = n - n_pos
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
