import itertools
import math

import numpy as np
import pytest

from strikeaudit import logreg, subset
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
    race_ablation,
    subset_path,
)

from conftest import random_binary_matrix
from oracles import enumerate_best_subset


def proxy_matrix():
    """y depends on a and b; c is a noisy copy of (a or b), so c is the best
    single feature, while the best pair is {a, b}."""
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
        assert res.model.support == ()
        assert res.certified_optimal
        assert res.model.beta.size == 0

    def test_k_equals_p_is_full_fit(self):
        m = random_binary_matrix(1, 150, 4, signal={0: 1.0, 2: -1.0})
        res = best_subset(m, 4)
        full = logreg.fit(m, (0, 1, 2, 3))
        assert res.model.support == (0, 1, 2, 3)
        assert res.model.diagnostics.final_nll == pytest.approx(full.diagnostics.final_nll, abs=1e-9)

    def test_k_above_p_rejected(self):
        m = random_binary_matrix(2, 50, 3)
        with pytest.raises(ValueError):
            best_subset(m, 4)

    def test_single_planted_feature_found(self):
        m = random_binary_matrix(3, 2000, 8, signal={5: 2.0})
        res = best_subset(m, 1)
        assert res.model.support == (5,)
        # agrees with brute force over every singleton
        singles = [
            logreg.fit(m, (j,)).diagnostics.final_nll for j in range(m.p)
        ]
        assert res.model.diagnostics.final_nll == pytest.approx(min(singles), abs=1e-6)
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
            assert res.model.diagnostics.final_nll == pytest.approx(expected, abs=1e-6)

    def test_objective_monotone_in_k(self):
        m = random_binary_matrix(9, 400, 8, signal={0: 1.5, 3: -1.0})
        objs = [best_subset(m, k).model.diagnostics.final_nll for k in range(0, 9)]
        assert all(a >= b - 1e-9 for a, b in zip(objs, objs[1:]))

    def test_budget_exhaustion_returns_incumbent(self):
        # The search dives to a size-k support first: k + 1 nodes reach it.
        m = random_binary_matrix(10, 200, 10, signal={0: 1.0})
        res = best_subset(m, 4, budget=5)
        assert not res.certified_optimal
        assert len(res.model.support) == 4
        assert np.isfinite(res.model.diagnostics.final_nll)

    def test_returned_model_is_the_fit_from_its_anchor(self):
        for seed in range(6):
            rng = np.random.default_rng(seed + 70)
            p = int(rng.integers(4, 9))
            k = int(rng.integers(1, p + 1))
            sig = {int(j): float(rng.normal(0, 1.5)) for j in rng.choice(p, 2, replace=False)}
            m = random_binary_matrix(seed + 70, int(rng.integers(60, 300)), p, signal=sig)
            settings = FitSettings(ridge=float(rng.choice([0.0, 0.01, 1.0])))
            res = best_subset(m, k, settings)
            ref = fit_from_anchor(m, res.model.support, settings)
            assert res.model.support == ref.support
            assert np.float64(res.model.intercept).tobytes() == np.float64(ref.intercept).tobytes()
            assert res.model.beta.tobytes() == ref.beta.tobytes(), seed
            assert res.model.diagnostics == ref.diagnostics, seed
            assert res.model.diagnostics.final_nll == ref.diagnostics.final_nll

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
            assert res.model.diagnostics.final_nll <= expected + 1e-6, seed
        assert certified >= 5

    @pytest.mark.parametrize("ridge", [None, 0.0, 0.01, 1.0])
    def test_brute_force_beats_no_certificate(self, ridge):
        # FitSettings holds only the ridge, so these are the settings a
        # caller can pass. Each seed's supports are fit once; the best
        # objective over sizes <= k bounds every size-k result, and on these
        # instances every result is certified.
        settings = FitSettings(ridge=ridge)
        for seed in range(10):
            m = random_binary_matrix(seed, 200, 8)
            by_size = [math.inf] * 7
            for support in itertools.chain.from_iterable(
                    itertools.combinations(range(m.p), size) for size in range(7)):
                value = logreg.fit(m, support, settings).diagnostics.final_nll
                by_size[len(support)] = min(by_size[len(support)], value)
            for k in range(1, 7):
                res = best_subset(m, k, settings)
                floor = min(by_size[:k + 1])
                assert res.certified_optimal, (seed, k)
                assert res.model.diagnostics.final_nll <= floor + 1e-9 * abs(floor), (seed, k)

    def test_unconverged_bound_fit_never_prunes(self, monkeypatch):
        # Only the bound fits have more than k = 2 columns. Pruning on their
        # (here infinite) objective would prune the root and return the
        # empty support.
        m = proxy_matrix()
        report_unconverged(monkeypatch, lambda support: len(support) > 2, math.inf)
        res = best_subset(m, 2)
        assert res.model.support == (0, 1)
        assert res.certified_optimal

    def test_unconverged_losing_leaf_is_not_certified(self, monkeypatch):
        m = proxy_matrix()
        report_unconverged(monkeypatch, lambda support: support == (1, 2))
        res = best_subset(m, 2)
        assert res.model.support == (0, 1)
        assert res.model.diagnostics.converged
        assert not res.certified_optimal

    def test_deterministic(self):
        m = random_binary_matrix(11, 300, 9, signal={2: 1.2})
        a = best_subset(m, 3)
        b = best_subset(m, 3)
        assert a.model.support == b.model.support
        assert a.model.diagnostics.final_nll == b.model.diagnostics.final_nll


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
        nlls = [model.diagnostics.final_nll for model in path.models]
        assert all(a >= b - 1e-9 for a, b in zip(nlls, nlls[1:]))

    def test_planted_support_recovered(self):
        m = planted_path_matrix(2, n=3000, p=10)
        train, test = split(m, 0.7, 0)
        path = subset_path(train, test, k_max=5, folds=3, seed=3)
        assert {0, 1, 2} <= set(path.models[path.chosen_k - 1].support)
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
        # One node fits the root's bound and settles no k.
        starved = path_to_json(subset_path(train, test, 4, 3, seed=6, budget=1))
        assert [e["certified"] for e in starved["entries"]] == [False] * 4

    def test_k_max_validated(self):
        m = planted_path_matrix(5)
        train, test = split(m, 0.7, 0)
        with pytest.raises(ValueError, match="k_max"):
            subset_path(train, test, k_max=0, folds=3, seed=0)
        # Sizes above the columns are not searched.
        assert (path_to_json(subset_path(train, test, k_max=m.p + 1, folds=3, seed=0))
                == path_to_json(subset_path(train, test, k_max=m.p, folds=3, seed=0)))

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


def race_path_instance(seed):
    """A small random matrix with one or two race columns at random places,
    split, plus the path arguments drawn for it; k_max may exceed the
    non-race columns."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(3, 7))
    race = frozenset(int(j) for j in rng.choice(p, size=int(rng.integers(1, 3)), replace=False))
    signal = {int(j): float(rng.normal(0, 1.5)) for j in rng.choice(p, size=2, replace=False)}
    m = random_binary_matrix(seed, int(rng.integers(60, 161)), p, signal=signal)
    m = FeatureMatrix(x=m.x, columns=m.columns, y=m.y, race_columns=race)
    train, test = split(m, 0.7, seed)
    k_max = int(rng.integers(1, p + 1))
    budget = 1 if seed % 4 == 0 else 10**6
    return train, test, k_max, budget


def search_free(path) -> dict:
    """path_to_json without the search counts, which depend on shared fits."""
    return {k: v for k, v in path_to_json(path).items() if k != "search"}


def record_fits(monkeypatch):
    """Record (support, start) of every logreg.fit call."""
    calls = []
    real_fit = logreg.fit

    def fit(m, support, settings=FitSettings(), *, start=None):
        calls.append((tuple(support), start))
        return real_fit(m, support, settings, start=start)

    monkeypatch.setattr(logreg, "fit", fit)
    return calls


def fit_from_anchor(m, support, settings=FitSettings()):
    """The search's fit of ``support``, rebuilt without a table: it starts
    from the fit of its anchor, the support plus every non-race column, or
    from zeros when that is the support itself or the anchor's fit did not
    converge."""
    support = tuple(support)
    anchor = tuple(sorted(set(support) | (set(range(m.p)) - m.race_columns)))
    start = None
    if anchor != support:
        base = logreg.fit(m, anchor, settings)
        if base.diagnostics.converged:
            start = [base.intercept, *(b for j, b in zip(anchor, base.beta) if j in support)]
    return logreg.fit(m, support, settings, start=start)


def assert_same_fit(model, ref):
    assert np.float64(model.intercept).tobytes() == np.float64(ref.intercept).tobytes()
    assert model.beta.tobytes() == ref.beta.tobytes()
    assert model.diagnostics == ref.diagnostics


def assert_fits_from_anchor(path, train, settings=FitSettings()):
    for model in path.models:
        assert_same_fit(model, fit_from_anchor(train, model.support, settings))


class TestAnchoredFits:
    def test_only_anchors_start_from_zeros(self, monkeypatch):
        # No race columns: every fit starts from its row set's fit of all 8
        # columns, the one fit per row set (3 folds and all rows) from zeros.
        m = planted_path_matrix(8)
        train, test = split(m, 0.7, 0)
        calls = record_fits(monkeypatch)
        path = subset_path(train, test, k_max=3, folds=3, seed=1)
        cold = [support for support, start in calls if start is None]
        assert cold == [tuple(range(m.p))] * 4
        warm = {len(support) for support, start in calls if start is not None}
        assert {1, 2, 3} <= warm and max(warm) > 3
        assert all(len(start) == len(support) + 1 for support, start in calls
                   if start is not None)
        monkeypatch.undo()
        assert_fits_from_anchor(path, train)

    def test_unconverged_anchor_leaves_every_fit_from_zeros(self, monkeypatch):
        # Labels equal to column 0 separate the rows on every support that
        # holds it, so with ridge = 0 the all-column fit diverges: no fit may
        # start from it.
        m = random_binary_matrix(11, 200, 5)
        m = FeatureMatrix(x=m.x, columns=m.columns, y=m.x[:, 0].astype(int))
        settings = FitSettings(ridge=0.0)
        assert not logreg.fit(m, tuple(range(m.p)), settings).diagnostics.converged
        fits = []
        real_fit = logreg.fit

        def fit(*args, **kwargs):
            fits.append(real_fit(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(logreg, "fit", fit)
        best_subset(m, 3, settings)
        monkeypatch.undo()
        assert len(fits) > 1 and any(0 not in model.support for model in fits)
        for model in fits:
            assert_same_fit(model, logreg.fit(m, model.support, settings))


class TestRaceAblation:
    @pytest.mark.parametrize("seed", range(36))
    def test_paths_match_lone_full_path_and_fresh_path_without_race(self, seed):
        train, test, k_max, budget = race_path_instance(seed)
        full, ablated = race_ablation(train, test, k_max, 3, seed, budget=budget)
        lone = subset_path(train, test, k_max, 3, seed, budget=budget)
        fresh = subset_path(train.without_race(), test.without_race(), k_max, 3, seed,
                            budget=budget)
        assert search_free(full) == search_free(lone)
        # Both searches look up the same fits; the full search's fits answer some.
        assert (ablated.search.fits + ablated.search.memo_hits
                == fresh.search.fits + fresh.search.memo_hits)
        assert ablated.search.fits <= fresh.search.fits
        # The supports are compared by name: the two runs index columns differently.
        assert search_free(ablated) == search_free(fresh)

    def test_superset_prune_saves_fits_and_changes_no_result(self, monkeypatch):
        # On this instance the full search's fits of a node's union plus the
        # race columns dismiss ablated nodes that the ablated search would
        # otherwise fit. Each dismissal is a memo hit, so the work counted
        # stays that of a fresh search.
        train, test, k_max, budget = race_path_instance(3)
        full, ablated = race_ablation(train, test, k_max, 3, 3, budget=budget)
        fresh = subset_path(train.without_race(), test.without_race(), k_max, 3, 3,
                            budget=budget)
        assert search_free(ablated) == search_free(fresh)
        assert (ablated.search.fits + ablated.search.memo_hits
                == fresh.search.fits + fresh.search.memo_hits)
        assert ablated.search.fits < fresh.search.fits
        monkeypatch.setattr(subset._FitCache, "beaten", lambda self, union, best_obj: False)
        _, unpruned = race_ablation(train, test, k_max, 3, 3, budget=budget)
        assert ablated.search.fits < unpruned.search.fits
        assert search_free(unpruned) == search_free(ablated)

    def test_wider_shape_with_anchored_fits_and_superset_prunes(self, monkeypatch):
        # p = 9 with k_max = 3 and race column 0: in both searches every fit
        # starts from its anchor, itself plus columns 1..8, and the full
        # search's fits dismiss ablated nodes.
        m = random_binary_matrix(5, 400, 9, signal={0: 1.0, 3: 1.2, 6: -0.9})
        m = FeatureMatrix(x=m.x, columns=m.columns, y=m.y, race_columns=frozenset({0}))
        train, test = split(m, 0.7, 5)
        calls = record_fits(monkeypatch)
        full, ablated = race_ablation(train, test, 3, 3, 5)
        monkeypatch.undo()
        cold = {support for support, start in calls if start is None}
        assert cold == {tuple(range(9)), tuple(range(1, 9))}
        warm = {len(support) for support, start in calls if start is not None}
        assert {1, 2, 3} <= warm and max(warm) > 3
        fresh = subset_path(train.without_race(), test.without_race(), 3, 3, 5)
        assert search_free(full) == search_free(subset_path(train, test, 3, 3, 5))
        assert search_free(ablated) == search_free(fresh)
        assert (ablated.search.fits + ablated.search.memo_hits
                == fresh.search.fits + fresh.search.memo_hits)
        monkeypatch.setattr(subset._FitCache, "beaten", lambda self, union, best_obj: False)
        _, unpruned = race_ablation(train, test, 3, 3, 5)
        assert ablated.search.fits < unpruned.search.fits
        assert_fits_from_anchor(full, train)
        assert_fits_from_anchor(ablated, train)

    def test_without_race_columns_the_ablation_raises(self):
        train, test, k_max, _ = race_path_instance(2)
        with pytest.raises(ValueError, match="ablation requires race columns"):
            race_ablation(train.without_race(), test.without_race(), k_max, 3, 0)

    def test_race_columns_alone_leave_nothing_to_search(self):
        train, test, _, _ = race_path_instance(1)
        race_only = lambda m: m.without_columns(set(range(m.p)) - m.race_columns)
        with pytest.raises(ValueError, match="no non-race column"):
            race_ablation(race_only(train), race_only(test), 1, 3, 0)

    def test_excluded_columns_are_never_selected(self):
        train, test, _, _ = race_path_instance(1)
        allowed = train.p - len(train.race_columns)
        path = subset_path(train, test, allowed, 3, 0, exclude=train.race_columns)
        assert all(not set(model.support) & train.race_columns for model in path.models)
        assert len(path.models[-1].support) == allowed
        # The search stops at the allowed columns.
        assert path_to_json(subset_path(train, test, allowed + 1, 3, 0,
                                         exclude=train.race_columns)) == path_to_json(path)
        with pytest.raises(ValueError, match="exclude"):
            subset_path(train, test, 1, 3, 0, exclude=frozenset({train.p}))
        with pytest.raises(ValueError, match="excluded"):
            subset_path(train, test, 1, 3, 0, exclude=frozenset(range(train.p)))

    def test_fits_shared_across_seeds_change_nothing(self):
        train, test, k_max, _ = race_path_instance(3)
        fits = {}
        for seed, k in ((1, k_max), (2, k_max), (2, 1)):  # and across k_max
            shared = subset_path(train, test, k, 3, seed, _fits=fits)
            fresh = subset_path(train, test, k, 3, seed)
            assert search_free(shared) == search_free(fresh)
        # The last search's row sets were all searched before.
        assert shared.search.fits < fresh.search.fits


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
        # NaN or a threshold below 0 can only empty the model; one above 1 drops nothing.
        m = random_binary_matrix(21, 100, 2)
        for thresholds in [(), (math.nan,), (0.05, -1), (1.5,)]:
            with pytest.raises(ValueError, match="thresholds"):
                backward_stepwise(m, thresholds=thresholds)

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
        assert sum(profile["values"][0]) == pytest.approx(1.0, abs=1e-9)
        assert np.count_nonzero(profile["values"][0]) == 1

    def test_rows_sum_to_one(self):
        profile = importance_profile(self.make_path(1))
        for row in profile["values"]:
            assert sum(row) == pytest.approx(1.0, abs=1e-9)

    def test_unselected_features_are_zero(self):
        path = self.make_path(2)
        profile = importance_profile(path)
        for model, row in zip(path.models, profile["values"]):
            unselected = set(range(len(profile["columns"]))) - set(model.support)
            assert all(row[j] == 0.0 for j in unselected)

    def test_dominant_feature_leads_everywhere(self):
        m = random_binary_matrix(30, 3000, 6, signal={2: 3.0, 4: 0.8}, intercept=-1.0)
        train, test = split(m, 0.7, 0)
        path = subset_path(train, test, k_max=4, folds=3, seed=2)
        profile = importance_profile(path)
        for row in profile["values"]:
            assert int(np.argmax(row)) == 2

    def test_csv_header(self):
        path = self.make_path(3)
        text = importance_csv(importance_profile(path))
        header = text.splitlines()[0]
        assert header == "k," + ",".join(path.columns)
