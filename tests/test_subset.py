import math

import numpy as np
import pytest

from strikeaudit import logreg
from strikeaudit.dataset import FeatureMatrix, split
from strikeaudit.errors import StratificationError
from strikeaudit.logreg import FitDiagnostics, FitSettings
from strikeaudit.subset import (
    backward_stepwise,
    best_subset,
    curve_csv,
    importance_csv,
    importance_profile,
    path_to_json,
    subset_path,
)

from conftest import random_binary_matrix
from oracles import enumerate_best_subset


def proxy_matrix():
    """y depends on a and b; c is a noisy copy of (a or b), so greedy forward
    selection takes c first and ends at {a, c} or {b, c}, while the best pair
    is {a, b}."""
    rng = np.random.default_rng(1)
    x = (rng.random((200, 3)) < 0.5).astype(float)
    x[:, 2] = np.maximum(x[:, 0], x[:, 1])
    flip = rng.random(200) < 0.05
    x[flip, 2] = 1.0 - x[flip, 2]
    y = (rng.random(200) < 1.0 / (1.0 + np.exp(3.0 - 3.0 * x[:, 0] - 3.0 * x[:, 1]))).astype(int)
    return FeatureMatrix(x=x, columns=("a", "b", "c"), y=y)


def report_unconverged(monkeypatch, which, final_nll=None):
    """Make logreg.fit report every fit whose support satisfies ``which`` as
    unconverged, optionally with another objective."""
    real_fit = logreg.fit

    def fit(m, support, *args, **kwargs):
        model = real_fit(m, support, *args, **kwargs)
        if which(tuple(support)):
            d = model.diagnostics
            value = d.final_nll if final_nll is None else final_nll
            model.diagnostics = FitDiagnostics(value, d.iterations, False, d.max_abs_gradient)
        return model

    monkeypatch.setattr(logreg, "fit", fit)


class TestBestSubset:
    def test_k_zero_is_intercept_only(self):
        m = random_binary_matrix(0, 100, 4, signal={0: 2.0})
        res = best_subset(m, 0)
        assert res.support == ()
        assert res.certified_optimal
        assert res.model.beta.size == 0

    def test_k_equals_p_is_full_fit(self):
        m = random_binary_matrix(1, 150, 4, signal={0: 1.0, 2: -1.0})
        res = best_subset(m, 4)
        full = logreg.fit(m, (0, 1, 2, 3))
        assert res.support == (0, 1, 2, 3)
        assert res.objective == pytest.approx(full.diagnostics.final_nll, abs=1e-9)

    def test_k_above_p_rejected(self):
        m = random_binary_matrix(2, 50, 3)
        with pytest.raises(ValueError):
            best_subset(m, 4)

    def test_single_planted_feature_found(self):
        m = random_binary_matrix(3, 2000, 8, signal={5: 2.0})
        res = best_subset(m, 1)
        assert res.support == (5,)
        # agrees with brute force over every singleton
        singles = [
            logreg.fit(m, (j,)).diagnostics.final_nll for j in range(m.p)
        ]
        assert res.objective == pytest.approx(min(singles), abs=1e-6)
        assert int(np.argmin(singles)) == 5

    def test_oracle_equivalence_small_instances(self):
        for seed in range(8):
            rng = np.random.default_rng(seed + 40)
            p = int(rng.integers(4, 11))
            k = int(rng.integers(1, min(5, p) + 1))
            sig = {int(j): float(rng.normal(0, 1.5)) for j in rng.choice(p, 2, replace=False)}
            m = random_binary_matrix(seed, int(rng.integers(40, 120)), p, signal=sig)
            settings = FitSettings()
            res = best_subset(m, k, settings)
            assert res.certified_optimal
            _, expected = enumerate_best_subset(m, k, settings)
            assert res.objective == pytest.approx(expected, abs=1e-6)

    def test_objective_monotone_in_k(self):
        m = random_binary_matrix(9, 400, 8, signal={0: 1.5, 3: -1.0})
        objs = [best_subset(m, k).objective for k in range(0, 9)]
        assert all(a >= b - 1e-9 for a, b in zip(objs, objs[1:]))

    def test_budget_exhaustion_returns_incumbent(self):
        m = random_binary_matrix(10, 200, 10, signal={0: 1.0})
        res = best_subset(m, 4, budget=1)
        assert not res.certified_optimal
        assert len(res.support) <= 4
        assert np.isfinite(res.objective)

    def test_ridge_zero_certificate_is_sound(self):
        # Tiny samples without ridge are often separable on some support:
        # the separated fit never converges and its objective overstates the
        # infimum, so neither a prune nor a winner may rest on it.
        settings = FitSettings(ridge=0.0)
        certified = 0
        for seed in range(40):
            rng = np.random.default_rng(seed + 500)
            p = int(rng.integers(3, 7))
            sig = {int(j): float(rng.normal(0, 15.0)) for j in rng.choice(p, 2, replace=False)}
            m = random_binary_matrix(seed + 500, int(rng.integers(15, 41)), p, signal=sig)
            res = best_subset(m, p - 1, settings)
            if not res.certified_optimal:
                continue
            certified += 1
            assert res.model.diagnostics.converged, seed
            _, expected = enumerate_best_subset(m, p - 1, settings)
            assert res.objective <= expected + 1e-6, seed
        assert certified >= 5

    def test_unconverged_bound_fit_never_prunes(self, monkeypatch):
        # Only the bound fits have more than k = 2 columns. Pruning on their
        # (here infinite) objective would return the forward incumbent.
        m = proxy_matrix()
        report_unconverged(monkeypatch, lambda support: len(support) > 2, math.inf)
        res = best_subset(m, 2)
        assert res.support == (0, 1)
        assert res.certified_optimal

    def test_unconverged_losing_leaf_is_not_certified(self, monkeypatch):
        m = proxy_matrix()
        report_unconverged(monkeypatch, lambda support: support == (1, 2))
        res = best_subset(m, 2)
        assert res.support == (0, 1)
        assert res.model.diagnostics.converged
        assert not res.certified_optimal

    def test_deterministic(self):
        m = random_binary_matrix(11, 300, 9, signal={2: 1.2})
        a = best_subset(m, 3)
        b = best_subset(m, 3)
        assert a.support == b.support
        assert a.objective == b.objective


def planted_path_matrix(seed, n=1200, p=8):
    return random_binary_matrix(
        seed, n, p, signal={0: 2.0, 1: 2.0, 2: 2.0}, intercept=-1.5
    )


class TestSubsetPath:
    def test_shapes_and_chosen_k(self):
        m = planted_path_matrix(0)
        train, test = split(m, 0.7, 0)
        path = subset_path(train, test, k_max=5, folds=3, seed=1)
        assert [e.k for e in path.entries] == [1, 2, 3, 4, 5]
        assert 1 <= path.chosen_k <= 5
        assert 0.0 <= path.test_auc <= 1.0
        assert len(path.models) == 5

    def test_train_nll_non_increasing(self):
        m = planted_path_matrix(1)
        train, test = split(m, 0.7, 0)
        path = subset_path(train, test, k_max=6, folds=3, seed=2)
        nlls = [e.train_nll for e in path.entries]
        assert all(a >= b - 1e-9 for a, b in zip(nlls, nlls[1:]))

    def test_planted_support_recovered(self):
        m = planted_path_matrix(2, n=3000, p=10)
        train, test = split(m, 0.7, 0)
        path = subset_path(train, test, k_max=5, folds=3, seed=3)
        assert {0, 1, 2} <= set(path.entries[path.chosen_k - 1].support)
        assert path.chosen_k in (3, 4, 5)

    def test_deterministic(self):
        m = planted_path_matrix(3)
        train, test = split(m, 0.7, 0)
        a = path_to_json(subset_path(train, test, 4, 3, seed=5))
        b = path_to_json(subset_path(train, test, 4, 3, seed=5))
        assert a == b

    def test_certified_entries(self):
        m = planted_path_matrix(4)
        train, test = split(m, 0.7, 0)
        exact = path_to_json(subset_path(train, test, 4, 3, seed=6))
        assert [e["certified"] for e in exact["entries"]] == [True] * 4
        # One node settles k = 1 (the root lists every singleton), not more.
        starved = path_to_json(subset_path(train, test, 4, 3, seed=6, budget=1))
        assert [e["certified"] for e in starved["entries"]] == [True, False, False, False]

    def test_k_max_validated(self):
        m = planted_path_matrix(5)
        train, test = split(m, 0.7, 0)
        with pytest.raises(ValueError):
            subset_path(train, test, k_max=m.p + 1, folds=3, seed=0)

    def test_single_class_fold_rejected(self):
        m = planted_path_matrix(6, n=40)
        # make positives too scarce to stratify into 5 folds
        keep = np.concatenate([np.flatnonzero(m.y == 0), np.flatnonzero(m.y == 1)[:2]])
        small = m.take_rows(keep)
        with pytest.raises(StratificationError):
            subset_path(small, small, k_max=2, folds=5, seed=0)

    def test_curve_csv_shape(self):
        m = planted_path_matrix(7)
        train, test = split(m, 0.7, 0)
        path = subset_path(train, test, 3, 3, seed=0)
        lines = curve_csv(path_to_json(path)).strip().splitlines()
        assert lines[0] == "k,cv_auc_mean,cv_auc_sd"
        assert len(lines) == 4


class TestBackwardStepwise:
    def test_identity_when_all_significant(self):
        m = random_binary_matrix(
            20, 2000, 3, signal={0: 2.0, 1: -1.5, 2: 1.0}, intercept=-0.2
        )
        model = backward_stepwise(m)
        assert model.support == (0, 1, 2)
        assert model.ridge == 0.0

    def test_noise_feature_removed(self):
        removed = 0
        for seed in range(5):
            m = random_binary_matrix(
                seed + 60, 3000, 6,
                signal={j: 1.5 for j in range(5)}, intercept=-2.0,
            )
            model = backward_stepwise(m)
            if 5 not in model.support:
                removed += 1
        assert removed >= 4

    def test_empty_thresholds_rejected(self):
        m = random_binary_matrix(21, 100, 2)
        with pytest.raises(ValueError):
            backward_stepwise(m, thresholds=())

    def test_all_noise_can_empty_the_support(self):
        m = random_binary_matrix(22, 2000, 3)
        model = backward_stepwise(m)
        # pure noise: most runs drop everything; support only keeps
        # features the Wald test failed to reject
        assert set(model.support) <= {0, 1, 2}
        assert model.diagnostics.converged


class TestImportanceProfile:
    def make_path(self, seed=0):
        m = planted_path_matrix(seed, n=2000, p=8)
        train, test = split(m, 0.7, 0)
        return subset_path(train, test, k_max=5, folds=3, seed=1)

    def test_k1_importance_is_one(self):
        path = self.make_path()
        profile = importance_profile(path)
        assert profile.values[0].sum() == pytest.approx(1.0, abs=1e-9)
        assert np.count_nonzero(profile.values[0]) == 1

    def test_rows_sum_to_one(self):
        profile = importance_profile(self.make_path(1))
        for row in profile.values:
            assert row.sum() == pytest.approx(1.0, abs=1e-9)

    def test_unselected_features_are_zero(self):
        path = self.make_path(2)
        profile = importance_profile(path)
        for entry, row in zip(path.entries, profile.values):
            unselected = set(range(len(profile.columns))) - set(entry.support)
            assert all(row[j] == 0.0 for j in unselected)

    def test_dominant_feature_leads_everywhere(self):
        m = random_binary_matrix(30, 3000, 6, signal={2: 3.0, 4: 0.8}, intercept=-1.0)
        train, test = split(m, 0.7, 0)
        path = subset_path(train, test, k_max=4, folds=3, seed=2)
        profile = importance_profile(path)
        for row in profile.values:
            assert int(np.argmax(row)) == 2

    def test_csv_header(self):
        path = self.make_path(3)
        text = importance_csv(importance_profile(path).to_json())
        header = text.splitlines()[0]
        assert header == "k," + ",".join(path.columns)
