"""Independent brute-force oracles the implementation is checked against.

Each oracle recomputes a quantity by the most literal method available
(rational arithmetic, full enumeration, pairwise loops, finite differences)
and never calls the code path it verifies.
"""

import csv
from dataclasses import dataclass
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


@dataclass(frozen=True)
class RocCurve:
    """ROC points from (0,0) to (1,1) plus their trapezoidal area."""

    points: tuple[tuple[float, float], ...]
    auc: float


def roc_points(scores, labels) -> RocCurve:
    """ROC curve from a threshold sweep over the distinct scores, with the
    trapezoid area under it: an AUC by another route than pairwise counting.
    Labels are 0/1 with both classes present."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    order = np.argsort(-s, kind="mergesort")
    s_desc = s[order]
    y_desc = y[order]
    cum_tp = np.cumsum(y_desc)
    cum_fp = np.cumsum(1 - y_desc)
    # One point per distinct score, after its full tie group.
    last_in_group = np.flatnonzero(np.diff(s_desc)).tolist() + [y.size - 1]
    pts = [(0.0, 0.0)]
    for i in last_in_group:
        pts.append((float(cum_fp[i] / n_neg), float(cum_tp[i] / n_pos)))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return RocCurve(points=tuple(pts), auc=float(area))


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


def _nll_terms(eta, y, weights=1.0):
    """Softplus of the signed margin (1 - 2y) eta, weighted and summed."""
    terms = np.log1p(np.exp(-np.abs(eta))) + np.maximum((1.0 - 2.0 * y) * eta, 0.0)
    return float(np.sum(terms * weights))


def nll(model, m) -> float:
    """Penalized negative log-likelihood of a LogisticModel on matrix m, by
    its own arithmetic rather than the fit's."""
    eta = model.intercept + m.x[:, model.support] @ model.beta
    return _nll_terms(eta, m.y.astype(float)) + 0.5 * model.ridge * float(model.beta @ model.beta)


def gradient(model, m) -> np.ndarray:
    """Gradient of nll in (intercept, beta), the intercept first."""
    xs = m.x[:, model.support]
    resid = _masked_sigmoid(model.intercept + xs @ model.beta) - m.y
    return np.concatenate([[resid.sum()], xs.T @ resid + model.ridge * model.beta])


def reference_newton_fit(m, support, ridge, *, weights=None, tolerance=1e-8,
                         max_iterations=100):
    """The damped Newton fit written out step by step: a masked sigmoid, and
    the sigmoid and gradient recomputed wherever a step needs them (before
    the Hessian and for the final diagnostics). The line search takes the
    first halving of the step whose objective is at most 8 ulp above the
    current one, and stops the fit when none is.

    The design is [1 | X], the intercept as column 0, built in C order (a
    BLAS product can round differently by layout). Each row of ``m`` has
    weight 1 unless ``weights`` gives one per row: a table of (pattern,
    struck) cells weighted by their counts. ridge of None means 1/n, n the
    rows of ``m``; a caller that passes a cell table resolves the ridge on
    the rows the cells count. The stopping rule's defaults are written here,
    not read from logreg, so that the oracle does not depend on the code it
    checks; a test that caps logreg's fit passes the same cap. Returns
    (theta, final_nll, iterations, converged, max_abs_gradient); logreg.fit
    on the same table must reproduce every one bit for bit.
    """
    support = tuple(support)
    n, k = m.n, len(support)
    xa = np.empty((n, k + 1))
    xa[:, 0] = 1.0
    xa[:, 1:] = m.x[:, support]
    y = m.y.astype(float)
    weights = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    ridge = 1.0 / n if ridge is None else ridge
    penalty = np.array([0.0] + [ridge] * k)

    theta = np.zeros(k + 1)

    def objective(t):
        return _nll_terms(xa @ t, y, weights) + 0.5 * ridge * float(t[1:] @ t[1:])

    def grad_at(t):
        resid = (_masked_sigmoid(xa @ t) - y) * weights
        return xa.T @ resid + penalty * t

    current = objective(theta)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        p = _masked_sigmoid(xa @ theta)
        g = grad_at(theta)
        gmax = float(np.max(np.abs(g)))
        if gmax <= tolerance:
            iterations -= 1
            break
        h = (xa * (p * (1.0 - p) * weights)[:, None]).T @ xa + np.diag(penalty)
        try:
            step = np.linalg.solve(h, g)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(h, g, rcond=None)[0]
        slack = 8.0 * np.finfo(float).eps * max(1.0, abs(current))
        for halvings in range(60):
            candidate = theta - 0.5**halvings * step
            value = objective(candidate)
            if value <= current + slack:
                theta, current = candidate, value
                break
        else:
            break

    eta = xa @ theta
    gmax = float(np.max(np.abs(grad_at(theta))))
    separated = ridge == 0.0 and bool(np.all((1.0 - 2.0 * y) * eta < 0.0))
    converged = gmax <= tolerance and not separated
    return theta, current, iterations, converged, gmax


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


REQUIRED_COLUMNS = ("trial_id", "juror_id", "is_black", "struck_by_state", "eligible")


def _reference_bool(value, line, column):
    if value == "1":
        return True
    if value == "0":
        return False
    from strikeaudit.errors import ParseError

    raise ParseError(f"line {line}, column {column!r}: expected 0 or 1, got {value!r}")


def reference_load_csv(path, catalog) -> list[dict]:
    """Juror records read one csv.DictReader row and one cell at a time, as
    dicts of the required columns plus "answers" (name -> True/False/None).
    Raises the exceptions load_csv documents, with the same messages."""
    from strikeaudit.errors import ParseError, SchemaError

    catalog = tuple(catalog)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        try:
            header = reader.fieldnames or []
            for col in (*REQUIRED_COLUMNS, *catalog):
                if col not in header:
                    raise SchemaError(f"missing required column {col!r}")
                if header.count(col) > 1:
                    raise SchemaError(f"column {col!r} appears more than once in the header")
            records = []
            for row in reader:
                # DictReader.line_num is stale after a skipped blank line; the
                # wrapped reader's count is the record's last file line.
                line = reader.reader.line_num
                if None in row.values():  # DictReader pads a short row with None
                    fields = next(i for i, name in enumerate(header) if row[name] is None)
                    raise ParseError(f"line {line} has {fields} fields, header has {len(header)}")
                if None in row:  # and files a long row's extra fields under the key None
                    fields = len(header) + len(row[None])
                    raise ParseError(f"line {line} has {fields} fields, header has {len(header)}")
                answers = {}
                for name in catalog:
                    cell = row[name]
                    answers[name] = None if cell == "" else _reference_bool(cell, line, name)
                records.append({
                    "trial_id": row["trial_id"],
                    "juror_id": row["juror_id"],
                    **{c: _reference_bool(row[c], line, c) for c in REQUIRED_COLUMNS[2:]},
                    "answers": answers,
                })
        except csv.Error as exc:  # a field over csv.field_size_limit(), or NUL before 3.11
            raise ParseError(f"line {reader.reader.line_num}: {exc}") from None
    overlap = set(catalog) & set(REQUIRED_COLUMNS)
    if overlap:
        raise SchemaError(f"feature catalog collides with required columns: {sorted(overlap)}")
    seen = set()
    for r in records:
        key = (r["trial_id"], r["juror_id"])
        if key in seen:
            raise ParseError(f"duplicate juror_id {key[1]!r} within trial {key[0]!r}")
        seen.add(key)
    return records


def table_from_records(records, catalog):
    """A JurorTable from reference_load_csv-style records (an answer a record
    does not list is missing)."""
    from strikeaudit.dataset import JurorTable

    answers = [[-1 if r["answers"].get(c) is None else int(r["answers"][c]) for c in catalog]
               for r in records]
    return JurorTable(catalog, *([r[c] for r in records] for c in REQUIRED_COLUMNS), answers)


def table_records(table) -> list[dict]:
    """The rows of a JurorTable as reference_load_csv-style records."""
    return [
        {
            "trial_id": str(table.trial_id[i]),
            "juror_id": str(table.juror_id[i]),
            **{c: bool(getattr(table, c)[i]) for c in REQUIRED_COLUMNS[2:]},
            "answers": {name: None if table.answers[i, j] < 0 else bool(table.answers[i, j])
                        for j, name in enumerate(table.feature_catalog)},
        }
        for i in range(len(table))
    ]


def reference_answer_matrix(records, columns):
    """(x, is_black, struck, complete) from records, one cell at a time: a
    missing answer reads as 0, and a complete row answers every column."""
    x = np.array([[float(r["answers"].get(c) or 0) for c in columns] for r in records])
    complete = [all(r["answers"].get(c) is not None for c in columns) for r in records]
    return (
        x.reshape(len(records), len(columns)),
        np.array([r["is_black"] for r in records], dtype=bool),
        np.array([r["struck_by_state"] for r in records], dtype=bool),
        np.array(complete, dtype=bool),
    )


def reference_build_matrix(records, catalog, missing_policy):
    """(x, columns, y, dropped columns) of build_matrix, from records: is_black
    first, then the catalog; drop_row keeps complete rows; constant columns
    go. None when no row is left."""
    rows = [r for r in records
            if missing_policy == "as_no" or all(r["answers"].get(c) is not None for c in catalog)]
    if not rows:
        return None
    names = ("is_black", *catalog)
    full = [[float(r["is_black"])] + [float(r["answers"].get(c) or 0) for c in catalog]
            for r in rows]
    constant = {j for j in range(len(names)) if len({row[j] for row in full}) == 1}
    keep = [j for j in range(len(names)) if j not in constant]
    return (
        np.array([[row[j] for j in keep] for row in full]).reshape(len(rows), len(keep)),
        tuple(names[j] for j in keep),
        np.array([int(r["struck_by_state"]) for r in rows]),
        tuple(names[j] for j in sorted(constant)),
    )
