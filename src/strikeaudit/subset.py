"""Cardinality-constrained feature selection solved to certified optimality.

Branch-and-bound over include/exclude decisions. The bound at a node is the
penalized likelihood of a fit on the union of all still-allowed features:
restricting the support can only raise the optimal objective, so that fit
lower-bounds every descendant, provided it converged. The search starts
with no best support and dives depth-first to a size-k support. Every fit
starts from the fit of its anchor, itself plus every non-race column (from
zeros when that is itself, or when the anchor's fit did not converge), so it
depends only on its rows and support, never on the search that reached it.
A result is certified optimal only when the search finished within its node
budget, no candidate was passed over on an unconverged fit, and the winner's
fit converged. Also: the backward-stepwise baseline and the per-size importance
profile.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass

import numpy as np

from . import logreg, stats
from .dataset import FeatureMatrix, stratified_folds
from .errors import finite_real
from .logreg import FitSettings, LogisticModel

DEFAULT_NODE_BUDGET = 10**6
_PRUNE_EPS = 1e-9


@dataclass
class SubsetResult:
    k: int
    model: LogisticModel  # the winner; its objective is diagnostics.final_nll
    certified_optimal: bool


@dataclass
class SubsetPathEntry:
    k: int
    cv_auc_mean: float
    cv_auc_sd: float
    certified: bool  # certified optimal on the full training data and every fold


@dataclass
class SearchCounts:
    """Work done by one subset_path call: Newton fits solved, fits answered
    from the memo, solved fits that did not converge, and nodes visited."""

    fits: int = 0
    memo_hits: int = 0
    unconverged: int = 0
    nodes: int = 0


@dataclass
class SubsetPath:
    entries: list[SubsetPathEntry]
    chosen_k: int
    test_auc: float
    models: tuple[LogisticModel, ...]  # each size's winner on all training rows, in entry order
    columns: tuple[str, ...]
    search: SearchCounts


class _FitCache:
    """Memoized Newton fits on one row set, keyed by the sorted support, which
    is the model's own support tuple, so a key takes no memory of its own. A
    fit of S starts from the fit of its anchor, S plus every non-race column:
    its intercept and its coefficients on S. An anchor starts from zeros, and
    so does S when its anchor's fit did not converge. A fit thus depends only
    on its rows and support, so the table, which race_ablation shares between
    its two searches, changes no fit; with the race columns kept out of the
    anchors, the race-free search fits what a search without them would."""

    def __init__(self, m: FeatureMatrix, settings: FitSettings, counts: SearchCounts,
                 models: dict | None = None, exclude: frozenset = frozenset()):
        self.m = m
        self.settings = settings
        self.counts = counts
        self.exclude = exclude
        self.non_race = frozenset(range(m.p)) - m.race_columns
        self._models = {} if models is None else models
        q = m.x.mean(axis=0)
        self.sd = np.sqrt(q * (1.0 - q))  # per binary column over these rows, for branching

    def fit(self, support) -> LogisticModel:
        key = tuple(sorted(support))
        model = self._models.get(key)
        if model is not None:
            self.counts.memo_hits += 1
            return model
        # The anchor is read, or fitted, without counting a memo hit.
        anchor = tuple(sorted(self.non_race.union(key)))
        base = anchor != key and (self._models.get(anchor) or self.fit(anchor))
        start = None
        if base and base.diagnostics.converged:
            start = [base.intercept, *(b for j, b in zip(anchor, base.beta) if j in support)]
        model = self._models[key] = logreg.fit(self.m, key, self.settings, start=start)
        self.counts.fits += 1
        self.counts.unconverged += not model.diagnostics.converged
        return model

    def beaten(self, union: set, best_obj: float) -> bool:
        """Whether the table lacks union's fit but holds a converged fit of
        union plus the excluded columns that reaches best_obj. Dropping
        columns cannot lower the optimum, so that fit answers union: a memo hit."""
        wider = (self.exclude and tuple(sorted(union)) not in self._models
                 and self._models.get(tuple(sorted(union | self.exclude))))
        hit = bool(wider and _dismisses(wider, best_obj))
        self.counts.memo_hits += hit
        return hit


def _dismisses(model: LogisticModel, best_obj: float) -> bool:
    """Whether a fit of a superset of a node's supports dismisses the node."""
    return model.diagnostics.converged and model.diagnostics.final_nll >= best_obj - _PRUNE_EPS


def _branch_and_bound(
    cache: _FitCache, allowed: tuple[int, ...], k: int, budget: int
) -> SubsetResult:
    best_support, best_obj = frozenset(), np.inf
    nodes, certified = 0, True

    def consider(support):
        # An unconverged fit's objective overstates the support's optimum, so
        # passing the support over on it is not sound.
        nonlocal best_support, best_obj, certified
        model = cache.fit(support)
        certified &= model.diagnostics.converged
        if model.diagnostics.final_nll < best_obj:
            best_support, best_obj = frozenset(support), model.diagnostics.final_nll

    # Stack entries: (forced, allowed, relaxation). An include-child shares its
    # parent's union, so it carries the parent's relaxation fit, just checked
    # against the same incumbent; the root and each exclude-child carry None.
    # One rule dismisses those, on the table's fit of their union plus the
    # excluded columns, then on their relaxation fit: a converged fit that
    # reaches the incumbent less _PRUNE_EPS. An unconverged fit never does.
    # Include-children pop first: the search dives to size k, then backtracks.
    stack: list[tuple[frozenset, tuple[int, ...], LogisticModel | None]]
    stack = [(frozenset(), allowed, None)]
    while stack:
        forced, allowed, relaxation = stack.pop()
        if nodes >= budget:
            certified = False
            break
        nodes += 1
        union = forced | set(allowed)
        if relaxation is None and cache.beaten(union, best_obj):
            continue
        if len(union) <= k:
            consider(union)
            continue
        if len(forced) == k:
            consider(forced)
            continue
        if relaxation is None:
            relaxation = cache.fit(union)
            if _dismisses(relaxation, best_obj):
                continue
        # Branch on the allowed feature with the largest standardized
        # coefficient |beta_j| * sd(x_j) in the relaxation fit; ties go to the
        # smaller index.
        scaled = np.abs(relaxation.beta) * cache.sd[list(relaxation.support)]
        coef = dict(zip(relaxation.support, scaled))
        u = max(allowed, key=lambda j: (coef.get(j, 0.0), -j))
        rest = tuple(j for j in allowed if j != u)
        stack.append((forced, rest, None))
        stack.append((forced | {u}, rest, relaxation))
    cache.counts.nodes += nodes
    model = cache.fit(best_support)
    return SubsetResult(k=k, model=model,
                        certified_optimal=certified and model.diagnostics.converged)


def best_subset(
    m: FeatureMatrix,
    k: int,
    settings: FitSettings = FitSettings(),
    budget: int = DEFAULT_NODE_BUDGET,
) -> SubsetResult:
    """Globally optimal support of size <= k for the penalized likelihood.

    certified_optimal is False when the node budget ran out, when a support
    was passed over on an unconverged fit, or when the winner's fit did not
    converge; the best support found is returned either way. The search
    dives to a size-k support first, so a budget of k + 1 nodes or more
    always returns one; a smaller budget may return the empty support.
    """
    if k < 0 or k > m.p:
        raise ValueError(f"k must be in [0, {m.p}], got {k}")
    cache = _FitCache(m, settings, SearchCounts())
    return _branch_and_bound(cache, tuple(range(m.p)), k, budget)


def subset_path(
    train: FeatureMatrix,
    test: FeatureMatrix,
    k_max: int,
    folds: int,
    seed: int,
    settings: FitSettings = FitSettings(),
    budget: int = DEFAULT_NODE_BUDGET,
    exclude: frozenset[int] = frozenset(),
    *,
    _fits: dict | None = None,
) -> SubsetPath:
    """Cross-validated model-size selection over k = 1..min(k_max, p'), for
    the p' columns not in ``exclude``: larger sizes are not searched.

    Per fold and size, the fold's training portion is searched exactly and
    the validation AUC recorded; the size with the best mean AUC wins (ties
    break toward fewer features). The full training data is searched at
    every size as well, and its winner at the chosen size is scored once on
    the held-out test set.

    No search uses a column in ``exclude``; column indices keep their
    meaning, so tie-breaks are those of the matrix without them. ``_fits``
    lends the fit tables of each row set (keyed by the row indices' bytes,
    None for all rows) to a call on the same training matrix and
    FitSettings, as in race_ablation; with ``exclude``, its fits of a node's
    union plus those columns can dismiss the node. It changes the search
    counts and no result: a fit starts from its anchor's fit, which depends
    only on the rows and the support.
    """
    if not all(0 <= j < train.p for j in exclude):
        raise ValueError(f"exclude must hold column indices in [0, {train.p})")
    allowed = tuple(j for j in range(train.p) if j not in exclude)
    if not allowed:
        raise ValueError("every column is excluded, so none is left to search")
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    if train.columns != test.columns:
        raise ValueError("train and test matrices must share columns")
    fits = {} if _fits is None else _fits
    counts = SearchCounts()
    ks = range(1, min(k_max, len(allowed)) + 1)

    def search(rows) -> list[SubsetResult]:
        # The cache, and with it a fold's row matrix, dies when this returns.
        key, m = (None, train) if rows is None else (rows.tobytes(), train.take_rows(rows))
        cache = _FitCache(m, settings, counts, fits.setdefault(key, {}), exclude)
        return [_branch_and_bound(cache, allowed, k, budget) for k in ks]

    auc_rows = []
    folds_certified = np.ones(len(ks), dtype=bool)
    for tr, va in stratified_folds(train.y, folds, seed):
        val = train.take_rows(va)
        fold_results = search(tr)
        auc_rows.append(
            [stats.auc(logreg.predict_proba(r.model, val), val.y) for r in fold_results]
        )
        folds_certified &= [r.certified_optimal for r in fold_results]
    auc_matrix = np.asarray(auc_rows)  # folds x sizes

    results = search(None)
    entries = [
        SubsetPathEntry(
            k=res.k,
            cv_auc_mean=float(aucs.mean()),
            cv_auc_sd=float(aucs.std(ddof=1)),
            certified=res.certified_optimal and bool(fold_ok),
        )
        for res, aucs, fold_ok in zip(results, auc_matrix.T, folds_certified)
    ]

    # max keeps the first maximum, so ties break toward fewer features.
    chosen_k = max(entries, key=lambda e: e.cv_auc_mean).k
    test_auc = stats.auc(logreg.predict_proba(results[chosen_k - 1].model, test), test.y)
    return SubsetPath(
        entries=entries,
        chosen_k=chosen_k,
        test_auc=float(test_auc),
        models=tuple(res.model for res in results),
        columns=train.columns,
        search=counts,
    )


def race_ablation(
    train: FeatureMatrix,
    test: FeatureMatrix,
    k_max: int,
    folds: int,
    seed: int,
    settings: FitSettings = FitSettings(),
    budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[SubsetPath, SubsetPath]:
    """The subset path with every column, then with the race columns
    excluded: same folds and seed, sizes up to k_max or the non-race columns.

    The race columns keep their indices in the second search, so the two
    share one set of fit tables: the second skips the problems the first
    solved, and the nodes that its fits with the race columns show cannot win.
    """
    if not train.race_columns:
        raise ValueError("ablation requires race columns")
    if len(train.race_columns) == train.p:
        raise ValueError("no non-race column is left to search")
    fits: dict = {}
    full = subset_path(train, test, k_max, folds, seed, settings, budget, _fits=fits)
    ablated = subset_path(train, test, k_max, folds, seed, settings, budget, train.race_columns,
                          _fits=fits)
    return full, ablated


def backward_stepwise(m: FeatureMatrix, thresholds=(0.1, 0.05)) -> LogisticModel:
    """APM-style baseline: per threshold, drop every feature whose Wald
    p-value exceeds it (all at once), refit, and move to the next threshold.

    Unpenalized fits throughout, as Wald inference assumes.
    """
    thresholds = tuple(thresholds)
    if not thresholds or not all(finite_real(t) and 0 <= t <= 1 for t in thresholds):
        raise ValueError(f"thresholds must be a non-empty list of numbers in [0, 1], "
                         f"got {thresholds!r}")
    settings = FitSettings(ridge=0.0)
    support = tuple(range(m.p))
    for threshold in thresholds:
        model = logreg.fit(m, support, settings)
        pvalues = logreg.wald_pvalues(model, m)
        support = tuple(j for j in support if pvalues[m.columns[j]] <= threshold)
    return logreg.fit(m, support, settings)


def importance_profile(path: SubsetPath) -> dict:
    """The {ks, columns, values} document of importance per subset size:
    values[i][j] is |beta_j| / sum of |beta| over the support selected at
    size ks[i] (binary features share a scale); unselected columns get 0."""
    values = np.zeros((len(path.entries), len(path.columns)))
    for row, model in enumerate(path.models):
        magnitudes = np.abs(model.beta)
        total = float(magnitudes.sum())
        if total > 0:
            for j, magnitude in zip(model.support, magnitudes):
                values[row, j] = magnitude / total
    return {
        "ks": [e.k for e in path.entries],
        "columns": list(path.columns),
        "values": values.tolist(),
    }


def path_to_json(path: SubsetPath) -> dict:
    return {
        "entries": [
            {
                "k": e.k,
                "support": [path.columns[j] for j in model.support],
                "cv_auc_mean": e.cv_auc_mean,
                "cv_auc_sd": e.cv_auc_sd,
                "train_nll": model.diagnostics.final_nll,
                "certified": e.certified,
            }
            for e, model in zip(path.entries, path.models)
        ],
        "chosen_k": path.chosen_k,
        "test_auc": path.test_auc,
        "chosen_model": logreg.model_to_json(path.models[path.chosen_k - 1], path.columns),
        "search": asdict(path.search),
    }


def curve_csv(path_doc: dict) -> str:
    """The CV curve of a path_to_json document, one row per subset size."""
    lines = ["k,cv_auc_mean,cv_auc_sd"]
    for e in path_doc["entries"]:
        lines.append(f"{e['k']},{e['cv_auc_mean']!r},{e['cv_auc_sd']!r}")
    return "\n".join(lines) + "\n"


def importance_csv(profile_doc: dict) -> str:
    """An importance_profile document, one row per subset size."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")  # quotes a column name that needs it
    writer.writerow(["k", *profile_doc["columns"]])
    rows = zip(profile_doc["ks"], profile_doc["values"])
    writer.writerows([k, *map(float, values)] for k, values in rows)
    return out.getvalue()
