"""Independent brute-force oracles the implementation is checked against.

Each oracle recomputes a quantity by the most literal method available
(rational arithmetic, full enumeration, pairwise loops, finite differences)
and never calls the code path it verifies.
"""

import math
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

# Inclusion slack mirrors the two-sided criterion the operation documents,
# expressed exactly: p(x) <= p(obs) * (1 + 1e-7).
_SLACK = Fraction(10**7 + 1, 10**7)


def fisher_two_sided_exact(a: int, b: int, c: int, d: int) -> Fraction:
    """Two-sided Fisher p-value by rational-arithmetic enumeration."""
    r1, r2 = a + b, c + d
    c1 = a + c
    n = r1 + r2
    lo = max(0, c1 - r2)
    hi = min(r1, c1)
    denom = comb(n, c1)
    pmf = {x: Fraction(comb(r1, x) * comb(r2, c1 - x), denom) for x in range(lo, hi + 1)}
    observed = pmf[a]
    return sum((p for p in pmf.values() if p <= observed * _SLACK), Fraction(0))


def holm_by_hand(p_values) -> list[float]:
    """Step-down Holm via the literal definition, no vectorization."""
    m = len(p_values)
    order = sorted(range(m), key=lambda i: p_values[i])
    adjusted_sorted = []
    running = 0.0
    for rank, idx in enumerate(order):
        running = max(running, (m - rank) * p_values[idx])
        adjusted_sorted.append(min(1.0, running))
    out = [0.0] * m
    for rank, idx in enumerate(order):
        out[idx] = adjusted_sorted[rank]
    return out


def auc_pairwise(scores, labels) -> float:
    """O(n^2) Mann-Whitney AUC: wins + half-ties over all pos/neg pairs."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def auc_pairwise_outer(scores, labels) -> float:
    """Same O(n^2) pairwise statistic via explicit outer comparisons."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = np.sum(pos[:, None] > neg[None, :]) + 0.5 * np.sum(pos[:, None] == neg[None, :])
    return float(wins) / (pos.size * neg.size)


def central_difference_gradient(f, x, h=1e-5) -> np.ndarray:
    """Central finite differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        up = x.copy()
        down = x.copy()
        up[i] += h
        down[i] -= h
        g[i] = (f(up) - f(down)) / (2.0 * h)
    return g


def enumerate_best_subset(m, k, settings):
    """Best penalized objective over every support of size <= k, by direct
    enumeration of all combinations (independent of branch-and-bound)."""
    from strikeaudit import logreg

    best_obj = None
    best_support = None
    for size in range(0, k + 1):
        for support in combinations(range(m.p), size):
            obj = logreg.fit(m, support, settings).diagnostics.final_nll
            if best_obj is None or obj < best_obj:
                best_obj, best_support = obj, support
    return best_support, best_obj


def _masked_sigmoid(eta):
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ez = np.exp(eta[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _nll_terms(eta, y):
    return float(np.sum(np.log1p(np.exp(-np.abs(eta))) + np.maximum(eta, 0.0) - y * eta))


def reference_newton_fit(m, support, settings, init=None, record_trace=False):
    """The damped Newton fit written out step by step: a masked sigmoid, and
    the sigmoid and gradient recomputed wherever a step needs them (before
    the Hessian, in the line search and for the final diagnostics).

    Returns (theta, final_nll, iterations, converged, max_abs_gradient,
    trace); logreg.fit must reproduce every one bit for bit.
    """
    support = tuple(support)
    xs = m.x[:, support]
    y = m.y.astype(float)
    n, k = xs.shape
    ridge = 1.0 / n if settings.ridge is None else settings.ridge

    theta = np.zeros(k + 1) if init is None else np.asarray(init, dtype=float).copy()

    def objective(t):
        eta = t[0] + xs @ t[1:]
        return _nll_terms(eta, y) + 0.5 * ridge * float(t[1:] @ t[1:])

    def grad_at(t):
        resid = _masked_sigmoid(t[0] + xs @ t[1:]) - y
        g = np.empty(k + 1)
        g[0] = resid.sum()
        g[1:] = xs.T @ resid + ridge * t[1:]
        return g

    current = objective(theta)
    trace = [current] if record_trace else None
    iterations = 0
    gmax = math.inf
    for iterations in range(1, settings.max_iterations + 1):
        eta = theta[0] + xs @ theta[1:]
        p = _masked_sigmoid(eta)
        g = grad_at(theta)
        gmax = float(np.max(np.abs(g)))
        if gmax <= settings.tolerance:
            iterations -= 1
            break
        w = p * (1.0 - p)
        h = np.empty((k + 1, k + 1))
        h[0, 0] = w.sum()
        h[0, 1:] = h[1:, 0] = xs.T @ w
        h[1:, 1:] = (xs * w[:, None]).T @ xs + ridge * np.eye(k)
        try:
            step = np.linalg.solve(h, g)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(h, g, rcond=None)[0]
        scale = 1.0
        improved = False
        slack = 8.0 * np.finfo(float).eps * max(1.0, abs(current))
        for _ in range(60):
            candidate = theta - scale * step
            value = objective(candidate)
            if value < current:
                theta, current = candidate, value
                improved = True
                break
            if value <= current + slack and float(
                np.max(np.abs(grad_at(candidate)))
            ) < gmax:
                theta, current = candidate, value
                improved = True
                break
            scale *= 0.5
        if record_trace:
            trace.append(current)
        if not improved:
            break
    else:
        iterations = settings.max_iterations

    eta = theta[0] + xs @ theta[1:]
    resid = _masked_sigmoid(eta) - y
    g = np.empty(k + 1)
    g[0] = resid.sum()
    g[1:] = xs.T @ resid + ridge * theta[1:]
    gmax = float(np.max(np.abs(g)))
    separated = ridge == 0.0 and bool(np.all((2.0 * y - 1.0) * eta > 0.0))
    converged = gmax <= settings.tolerance and not separated
    return (
        theta, current, iterations, converged, gmax,
        tuple(trace) if record_trace else None,
    )


def enumerate_trees_best_objective(x, y, max_depth, min_leaf, alpha):
    """Minimum objective over all feasible trees of depth <= max_depth by
    exhaustive recursion (practical for p <= 8, max_depth <= 3).

    Objective: misclassified/n + alpha * leaves, leaves >= min_leaf, no
    feature repeated on a path.
    """
    x = np.asarray(x).astype(bool)
    y = np.asarray(y).astype(int)
    n_total = y.size
    p = x.shape[1]

    def best(rows, depth, banned):
        n_struck = int(y[rows].sum())
        leaf_mis = min(n_struck, rows.size - n_struck)
        best_mis, best_leaves = leaf_mis, 1
        if depth < max_depth:
            for f in range(p):
                if f in banned:
                    continue
                mask = x[rows, f]
                right = rows[mask]
                left = rows[~mask]
                if min(left.size, right.size) < min_leaf:
                    continue
                ml, ll = best(left, depth + 1, banned | {f})
                mr, lr = best(right, depth + 1, banned | {f})
                if ml + mr + alpha * n_total * (ll + lr) < best_mis + alpha * n_total * best_leaves:
                    best_mis, best_leaves = ml + mr, ll + lr
        return best_mis, best_leaves

    mis, leaves = best(np.arange(n_total), 0, frozenset())
    return mis / n_total + alpha * leaves


def enumerate_trees(x, y, max_depth, min_leaf):
    """Every feasible tree of depth <= max_depth as (misclassified, leaves,
    pre-order split features), by listing all of them (practical for p <= 6,
    max_depth <= 3): leaves hold >= min_leaf rows, no feature repeats on a
    path."""
    x = np.asarray(x).astype(bool)
    y = np.asarray(y).astype(int)
    p = x.shape[1]

    def trees(rows, depth, banned):
        n_struck = int(y[rows].sum())
        out = [(min(n_struck, rows.size - n_struck), 1, ())]
        if depth < max_depth:
            for f in range(p):
                if f in banned:
                    continue
                mask = x[rows, f]
                left = rows[~mask]
                right = rows[mask]
                if min(left.size, right.size) < min_leaf:
                    continue
                right_trees = trees(right, depth + 1, banned | {f})
                for ml, ll, sl in trees(left, depth + 1, banned | {f}):
                    for mr, lr, sr in right_trees:
                        out.append((ml + mr, ll + lr, (f,) + sl + sr))
        return out

    return trees(np.arange(y.size), 0, frozenset())


def enumerate_trees_best_key(x, y, max_depth, min_leaf, alpha):
    """(objective, leaves, pre-order split features) of the first tree in
    that order among all those enumerate_trees lists. The objective is the
    exact rational misclassified/n + alpha * leaves, with alpha read as the
    exact value of the float."""
    n_total = len(y)
    a = Fraction(alpha)
    return min(
        (Fraction(mis, n_total) + a * leaves, leaves, seq)
        for mis, leaves, seq in enumerate_trees(x, y, max_depth, min_leaf)
    )
