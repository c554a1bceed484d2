"""Cardinality-constrained feature selection solved to certified optimality.

Branch-and-bound over include/exclude decisions. The bound at a node is the
penalized likelihood of a fit on the union of all still-allowed features:
restricting the support can only raise the optimal objective, so that fit
lower-bounds every descendant, provided it converged. The incumbent comes
from greedy forward selection. A result is certified optimal only when the
search finished within its node budget, no node was dismissed on an
unconverged fit, and the winner's fit converged. Also: the backward-stepwise
baseline and the per-size importance profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import logreg, stats
from .dataset import FeatureMatrix, stratified_folds
from .logreg import FitSettings, LogisticModel

DEFAULT_NODE_BUDGET = 10**6
_PRUNE_EPS = 1e-9


@dataclass
class SubsetResult:
    k: int
    support: tuple[int, ...]
    model: LogisticModel
    objective: float
    certified_optimal: bool


@dataclass
class SubsetPathEntry:
    k: int
    support: tuple[int, ...]
    cv_auc_mean: float
    cv_auc_sd: float
    train_nll: float
    certified: bool  # certified optimal on the full training data and every fold


@dataclass
class SubsetPath:
    entries: list[SubsetPathEntry]
    chosen_k: int
    test_auc: float
    models: tuple[LogisticModel, ...]
    chosen_model: LogisticModel
    columns: tuple[str, ...]


class _FitCache:
    """Memoized Newton fits on one matrix, keyed by support set."""

    def __init__(self, m: FeatureMatrix, settings: FitSettings):
        self.m = m
        self.settings = settings
        self._models: dict[frozenset, LogisticModel] = {}

    def fit(self, support, warm_from: LogisticModel | None = None) -> LogisticModel:
        key = frozenset(support)
        model = self._models.get(key)
        if model is None:
            ordered = tuple(sorted(key))
            init = None
            if warm_from is not None:
                known = dict(zip(warm_from.support, warm_from.beta))
                init = np.array(
                    [warm_from.intercept] + [known.get(j, 0.0) for j in ordered]
                )
            model = logreg.fit(self.m, ordered, self.settings, init=init)
            self._models[key] = model
        return model


def _forward(cache: _FitCache, p: int, k: int) -> tuple[frozenset, float]:
    """Greedy forward selection to size k."""
    support: frozenset = frozenset()
    model = cache.fit(support)
    best_obj = model.diagnostics.final_nll
    for _ in range(k):
        best_j, best_val = None, best_obj
        for j in range(p):
            if j in support:
                continue
            val = cache.fit(support | {j}, warm_from=model).diagnostics.final_nll
            if best_j is None or val < best_val:
                best_j, best_val = j, val
        if best_j is None:
            break
        support = support | {best_j}
        model = cache.fit(support)
        best_obj = best_val
    return support, best_obj


def _branch_and_bound(
    cache: _FitCache,
    p: int,
    k: int,
    budget: int,
    incumbent: tuple[frozenset, float],
) -> tuple[frozenset, float, bool]:
    best_support, best_obj = incumbent
    nodes = 0
    certified = True

    def consider(support, warm_from):
        # An unconverged fit's objective overstates the support's optimum, so
        # dismissing the support on it is not sound.
        nonlocal best_support, best_obj, certified
        model = cache.fit(support, warm_from)
        certified &= model.diagnostics.converged
        if model.diagnostics.final_nll < best_obj:
            best_support, best_obj = frozenset(support), model.diagnostics.final_nll

    # Stack entries: (forced, allowed, bound, bound_model); include-children
    # inherit the parent's bound, exclude-children are re-bounded on pop.
    stack: list[tuple[frozenset, tuple[int, ...], float | None, LogisticModel | None]] = [
        (frozenset(), tuple(range(p)), None, None)
    ]
    while stack:
        forced, allowed, bound, bound_model = stack.pop()
        if bound is not None and bound >= best_obj - _PRUNE_EPS:
            continue
        if nodes >= budget:
            certified = False
            break
        nodes += 1
        slots = k - len(forced)
        if slots <= 0 or not allowed:
            consider(forced, bound_model)
            continue
        if len(forced) + len(allowed) <= k:
            consider(forced | set(allowed), bound_model)
            continue
        if bound is None:
            bound_model = cache.fit(forced | set(allowed), warm_from=bound_model)
            # Only a converged fit attains the minimum over the union; an
            # unconverged one bounds nothing and never prunes.
            diag = bound_model.diagnostics
            bound = diag.final_nll if diag.converged else -np.inf
            if bound >= best_obj - _PRUNE_EPS:
                continue
        if slots == 1:
            consider(forced, bound_model)
            for u in allowed:
                consider(forced | {u}, bound_model)
            continue
        # Branch on the allowed feature with the largest coefficient in the
        # relaxation fit; ties go to the smaller index.
        coef = dict(zip(bound_model.support, np.abs(bound_model.beta)))
        u = max(allowed, key=lambda j: (coef.get(j, 0.0), -j))
        rest = tuple(j for j in allowed if j != u)
        stack.append((forced, rest, None, bound_model))
        stack.append((forced | {u}, rest, bound, bound_model))
    return best_support, best_obj, certified


def _best_subset_cached(
    cache: _FitCache,
    k: int,
    budget: int,
    incumbent: tuple[frozenset, float] | None = None,
) -> SubsetResult:
    p = cache.m.p
    if k < 0 or k > p:
        raise ValueError(f"k must be in [0, {p}], got {k}")
    support, obj = _forward(cache, p, k)
    if incumbent is not None and incumbent[1] < obj:
        support, obj = incumbent
    support, obj, certified = _branch_and_bound(cache, p, k, budget, (support, obj))
    # Refit the winner from zeros so the returned model honors the public
    # fit contract regardless of warm starts used during the search.
    ordered = tuple(sorted(support))
    model = logreg.fit(cache.m, ordered, cache.settings)
    return SubsetResult(
        k=k,
        support=ordered,
        model=model,
        objective=model.diagnostics.final_nll,
        certified_optimal=certified and model.diagnostics.converged,
    )


def best_subset(
    m: FeatureMatrix,
    k: int,
    settings: FitSettings = FitSettings(),
    budget: int = DEFAULT_NODE_BUDGET,
) -> SubsetResult:
    """Globally optimal support of size <= k for the penalized likelihood.

    certified_optimal is False when the node budget ran out, when a support
    was dismissed on an unconverged fit, or when the winner's fit did not
    converge; the best support found (the forward-selection incumbent or
    better) is returned either way.
    """
    return _best_subset_cached(_FitCache(m, settings), k, budget)


def _search_path(
    m: FeatureMatrix, k_max: int, settings: FitSettings, budget: int
) -> list[SubsetResult]:
    """Best subset of each size k = 1..k_max on one matrix; every search
    starts from the previous size's winner and shares one fit cache."""
    cache = _FitCache(m, settings)
    results: list[SubsetResult] = []
    for k in range(1, k_max + 1):
        incumbent = (frozenset(results[-1].support), results[-1].objective) if results else None
        results.append(_best_subset_cached(cache, k, budget, incumbent))
    return results


def subset_path(
    train: FeatureMatrix,
    test: FeatureMatrix,
    k_max: int,
    folds: int,
    seed: int,
    settings: FitSettings = FitSettings(),
    budget: int = DEFAULT_NODE_BUDGET,
) -> SubsetPath:
    """Cross-validated model-size selection over k = 1..k_max.

    Per fold and size, the fold's training portion is searched exactly and
    the validation AUC recorded; the size with the best mean AUC wins (ties
    break toward fewer features). The chosen size is refit on the full
    training data and scored once on the held-out test set.
    """
    if k_max < 1 or k_max > train.p:
        raise ValueError(f"k_max must be in [1, {train.p}], got {k_max}")
    if train.columns != test.columns:
        raise ValueError("train and test matrices must share columns")
    auc_rows = []
    folds_certified = np.ones(k_max, dtype=bool)
    for tr, va in stratified_folds(train.y, folds, seed):
        val = train.take_rows(va)
        fold_results = _search_path(train.take_rows(tr), k_max, settings, budget)
        auc_rows.append(
            [stats.auc(logreg.predict_proba(r.model, val), val.y) for r in fold_results]
        )
        folds_certified &= [r.certified_optimal for r in fold_results]
    auc_matrix = np.asarray(auc_rows)  # folds x k_max

    results = _search_path(train, k_max, settings, budget)
    entries = [
        SubsetPathEntry(
            k=res.k,
            support=res.support,
            cv_auc_mean=float(aucs.mean()),
            cv_auc_sd=float(aucs.std(ddof=1)),
            train_nll=res.objective,
            certified=res.certified_optimal and bool(fold_ok),
        )
        for res, aucs, fold_ok in zip(results, auc_matrix.T, folds_certified)
    ]

    chosen_k = 1
    best_mean = entries[0].cv_auc_mean
    for entry in entries[1:]:
        if entry.cv_auc_mean > best_mean:
            chosen_k, best_mean = entry.k, entry.cv_auc_mean
    chosen_model = results[chosen_k - 1].model
    test_auc = stats.auc(logreg.predict_proba(chosen_model, test), test.y)
    return SubsetPath(
        entries=entries,
        chosen_k=chosen_k,
        test_auc=float(test_auc),
        models=tuple(res.model for res in results),
        chosen_model=chosen_model,
        columns=train.columns,
    )


def backward_stepwise(m: FeatureMatrix, thresholds=(0.1, 0.05)) -> LogisticModel:
    """APM-style baseline: per threshold, drop every feature whose Wald
    p-value exceeds it (all at once), refit, and move to the next threshold.

    Unpenalized fits throughout, as Wald inference assumes.
    """
    thresholds = tuple(thresholds)
    if not thresholds:
        raise ValueError("thresholds must be non-empty")
    settings = FitSettings(ridge=0.0)
    support = tuple(range(m.p))
    for threshold in thresholds:
        model = logreg.fit(m, support, settings)
        pvalues = logreg.wald_pvalues(model, m)
        support = tuple(j for j in support if pvalues[m.columns[j]] <= threshold)
    return logreg.fit(m, support, settings)


@dataclass
class ImportanceProfile:
    """Relative importance (normalized |coefficient|) per subset size."""

    ks: tuple[int, ...]
    columns: tuple[str, ...]
    values: np.ndarray  # len(ks) x len(columns), rows sum to 1 or are zero

    def to_json(self) -> dict:
        return {
            "ks": list(self.ks),
            "columns": list(self.columns),
            "values": [[float(v) for v in row] for row in self.values],
        }


def importance_profile(path: SubsetPath) -> ImportanceProfile:
    """Importance of feature j at size k: |beta_j| / sum of |beta| over the
    selected support (binary features share a scale). Unselected get 0."""
    values = np.zeros((len(path.entries), len(path.columns)))
    for row, model in enumerate(path.models):
        magnitudes = np.abs(model.beta)
        total = float(magnitudes.sum())
        if total > 0:
            for j, magnitude in zip(model.support, magnitudes):
                values[row, j] = magnitude / total
    return ImportanceProfile(
        ks=tuple(e.k for e in path.entries), columns=path.columns, values=values
    )


def path_to_json(path: SubsetPath) -> dict:
    return {
        "entries": [
            {
                "k": e.k,
                "support": [path.columns[j] for j in e.support],
                "cv_auc_mean": e.cv_auc_mean,
                "cv_auc_sd": e.cv_auc_sd,
                "train_nll": e.train_nll,
                "certified": e.certified,
            }
            for e in path.entries
        ],
        "chosen_k": path.chosen_k,
        "test_auc": path.test_auc,
        "chosen_model": logreg.model_to_json(path.chosen_model, path.columns),
    }


def curve_csv(path_doc: dict) -> str:
    """The CV curve of a path_to_json document, one row per subset size."""
    lines = ["k,cv_auc_mean,cv_auc_sd"]
    for e in path_doc["entries"]:
        lines.append(f"{e['k']},{e['cv_auc_mean']!r},{e['cv_auc_sd']!r}")
    return "\n".join(lines) + "\n"


def importance_csv(profile_doc: dict) -> str:
    """An ImportanceProfile.to_json document, one row per subset size."""
    lines = ["k," + ",".join(profile_doc["columns"])]
    for k, row in zip(profile_doc["ks"], profile_doc["values"]):
        lines.append(f"{k}," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
