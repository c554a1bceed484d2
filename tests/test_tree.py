import gc
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from strikeaudit.dataset import FeatureMatrix, build_matrix, stratified_folds, synth_generate
from strikeaudit.errors import ContractViolationError, DegenerateDataError
from strikeaudit.tree import (
    Leaf,
    Split,
    Tree,
    TreeSettings,
    describe_path,
    fit_tree,
    predict_labels,
    predict_leaves,
    tree_from_json,
    tree_to_graph,
    tree_to_json,
    tree_to_text,
    tune_alpha,
)

from oracles import enumerate_trees, enumerate_trees_best_key, enumerate_trees_best_objective
from test_dataset import paper_shaped_config


def binary_matrix(seed, n, p, rate_fn=None):
    rng = np.random.default_rng(seed)
    x = (rng.random((n, p)) < 0.5).astype(float)
    if rate_fn is None:
        rates = np.full(n, 0.4)
    else:
        rates = rate_fn(x)
    y = (rng.random(n) < rates).astype(int)
    return FeatureMatrix(x=x, columns=tuple(f"q{j}" for j in range(p)), y=y)


def paper_tree():
    """Hand-built analog of the published five-node segmentation."""
    doc = {
        "columns": ["accused", "know_def", "fam_accused", "death_hesitation"],
        "root": {
            "feature": "accused",
            "right": {"leaf": {"n": 100, "n_struck": 93}},
            "left": {
                "feature": "know_def",
                "right": {"leaf": {"n": 100, "n_struck": 65}},
                "left": {
                    "feature": "fam_accused",
                    "right": {"leaf": {"n": 100, "n_struck": 56}},
                    "left": {
                        "feature": "death_hesitation",
                        "right": {"leaf": {"n": 100, "n_struck": 100}},
                        "left": {"leaf": {"n": 100, "n_struck": 17}},
                    },
                },
            },
        },
    }
    return tree_from_json(doc)


def tree_objective(tree, alpha):
    n = sum(node.n for node in tree.nodes if isinstance(node, Leaf))
    mis = sum(
        min(node.n_struck, node.n - node.n_struck)
        for node in tree.nodes
        if isinstance(node, Leaf)
    )
    return mis / n + alpha * tree.n_leaves()


def tree_key(tree, alpha):
    """(exact objective, leaves, pre-order split features) of a fitted tree;
    nodes are stored in pre-order, left child first."""
    leaves = [tree.nodes[i] for i in tree.leaf_ids()]
    n = sum(leaf.n for leaf in leaves)
    mis = sum(min(leaf.n_struck, leaf.n - leaf.n_struck) for leaf in leaves)
    features = tuple(node.feature for node in tree.nodes if isinstance(node, Split))
    return Fraction(mis, n) + Fraction(alpha) * len(leaves), len(leaves), features


class TestFitTree:
    def test_race_column_rejected(self):
        m = binary_matrix(0, 100, 3)
        bad = FeatureMatrix(x=m.x, columns=("is_black", "q1", "q2"), y=m.y,
                            race_columns=frozenset({0}))
        with pytest.raises(ContractViolationError):
            fit_tree(bad)

    def test_too_few_rows_rejected(self):
        m = binary_matrix(1, 15, 2)
        with pytest.raises(DegenerateDataError):
            fit_tree(m, TreeSettings(min_leaf=10))

    def test_alpha_one_gives_single_leaf(self):
        m = binary_matrix(2, 400, 4, rate_fn=lambda x: 0.2 + 0.6 * x[:, 0])
        tree = fit_tree(m, TreeSettings(alpha=1.0))
        assert tree.n_leaves() == 1
        leaf = tree.nodes[0]
        assert leaf.n == 400

    def test_depth1_planted_split_recovered(self):
        m = binary_matrix(3, 2000, 5, rate_fn=lambda x: 0.2 + 0.7 * x[:, 2])
        settings = TreeSettings(max_depth=1, alpha=0.01, min_leaf=10)
        tree = fit_tree(m, settings)
        assert isinstance(tree.nodes[0], Split)
        assert tree.nodes[0].feature == 2
        # agrees with exhaustive search over all depth-1 trees
        best = enumerate_trees_best_objective(m.x, m.y, 1, 10, 0.01)
        assert tree_objective(tree, 0.01) == pytest.approx(best, abs=1e-12)

    def test_matches_exhaustive_enumeration_depth2(self):
        for seed in range(6):
            rng = np.random.default_rng(seed + 70)
            p = int(rng.integers(2, 7))
            m = binary_matrix(
                seed, int(rng.integers(80, 250)), p,
                rate_fn=lambda x: 0.25 + 0.5 * x[:, 0] * (1 - x[:, min(1, x.shape[1] - 1)]),
            )
            settings = TreeSettings(max_depth=2, alpha=0.02, min_leaf=5)
            tree = fit_tree(m, settings)
            best = enumerate_trees_best_objective(m.x, m.y, 2, 5, 0.02)
            assert tree_objective(tree, 0.02) == pytest.approx(best, abs=1e-12)

    def test_tie_break_matches_oracle(self):
        # alpha is a multiple of 1/n. For n a power of two alpha * n is exact,
        # so trading one leaf for alpha * n misclassified rows is a tie; for
        # other n the two sides differ only by the float rounding of alpha.
        rng = np.random.default_rng(2024)
        cases = []
        for _ in range(30):
            p = int(rng.integers(2, 7))
            n = int(rng.choice([64, 100, 128, 250, 256]))
            x = (rng.random((n, p)) < rng.uniform(0.3, 0.7, p)).astype(float)
            y = (rng.random(n) < 0.2 + 0.5 * x[:, 0] * (1 - x[:, -1])).astype(int)
            cases.append((x, y, int(rng.integers(1, 4)), int(rng.integers(0, 5)) / n))
        # Labels equal to q1 at alpha = 0: splitting on q0 first already
        # reaches zero cost, with four leaves where q1 alone needs two.
        x = (rng.random((64, 3)) < 0.5).astype(float)
        cases.append((x, x[:, 1].astype(int), 2, 0.0))
        ties = 0
        for x, y, depth, alpha in cases:
            m = FeatureMatrix(x=x, columns=tuple(f"q{j}" for j in range(x.shape[1])), y=y)
            settings = TreeSettings(max_depth=depth, alpha=alpha, min_leaf=4)
            expected = enumerate_trees_best_key(x, y, depth, 4, alpha)
            assert tree_key(fit_tree(m, settings), alpha) == expected
            tied_leaves = {
                leaves for mis, leaves, _ in enumerate_trees(x, y, depth, 4)
                if Fraction(mis, len(y)) + Fraction(alpha) * leaves == expected[0]
            }
            ties += len(tied_leaves) > 1
        assert ties >= 3

    def test_paper_shaped_recovery(self):
        cfg = paper_shaped_config(5000)
        expected = sorted([
            ("accused = yes",),
            ("accused = no", "know_def = yes"),
            ("accused = no", "know_def = no", "fam_accused = yes"),
            ("accused = no", "know_def = no", "fam_accused = no", "death_hesitation = yes"),
            ("accused = no", "know_def = no", "fam_accused = no", "death_hesitation = no"),
        ])
        hits = 0
        for seed in range(3):
            table = synth_generate(cfg, seed=seed + 400)
            m = build_matrix(table).without_race()
            tree = fit_tree(m, TreeSettings())
            paths = sorted(tuple(describe_path(tree, l)) for l in tree.leaf_ids())
            hits += paths == expected
        assert hits >= 2

    def test_leaf_counts_partition_training_rows(self):
        m = binary_matrix(4, 600, 4, rate_fn=lambda x: 0.2 + 0.5 * x[:, 1])
        tree = fit_tree(m, TreeSettings())
        leaves = [tree.nodes[i] for i in tree.leaf_ids()]
        assert sum(l.n for l in leaves) == m.n
        assert all(l.n >= 10 for l in leaves)

    def test_leaf_probabilities_are_empirical_means(self):
        m = binary_matrix(5, 800, 4, rate_fn=lambda x: 0.15 + 0.6 * x[:, 0])
        tree = fit_tree(m, TreeSettings())
        routed = predict_leaves(tree, m.x)
        for leaf_id in tree.leaf_ids():
            rows = routed == leaf_id
            leaf = tree.nodes[leaf_id]
            assert leaf.n == int(rows.sum())
            assert leaf.n_struck == int(m.y[rows].sum())

    def test_no_feature_repeats_on_any_path(self):
        m = binary_matrix(6, 700, 5, rate_fn=lambda x: 0.2 + 0.3 * x[:, 0] + 0.3 * x[:, 2])
        tree = fit_tree(m, TreeSettings())
        for leaf_id in tree.leaf_ids():
            conditions = describe_path(tree, leaf_id)
            names = [c.split(" = ")[0] for c in conditions]
            assert len(names) == len(set(names))
            assert len(names) <= tree.depth

    def test_deterministic_and_thread_invariant(self):
        m = binary_matrix(7, 500, 4, rate_fn=lambda x: 0.2 + 0.5 * x[:, 1])
        settings = TreeSettings()
        a = tree_to_json(fit_tree(m, settings))
        b = tree_to_json(fit_tree(m, settings))
        assert a == b


def route_one(tree, row):
    """The leaf one row reaches, through predict_leaves, and its strike rate."""
    idx = int(predict_leaves(tree, np.array([row], dtype=float))[0])
    return idx, tree.nodes[idx].p_strike


def walk(tree, row):
    """The leaf one row reaches, by walking the nodes from the root."""
    idx = 0
    while isinstance(tree.nodes[idx], Split):
        node = tree.nodes[idx]
        idx = node.right if row[node.feature] else node.left
    return idx


class TestPredict:
    def test_single_leaf_tree_routes_everything(self):
        tree = Tree(nodes=(Leaf(n=50, n_struck=10),), columns=("a",))
        leaf_id, p = route_one(tree, [1])
        assert leaf_id == 0
        assert p == pytest.approx(0.2)

    def test_accused_row_hits_93_percent_leaf(self):
        tree = paper_tree()
        leaf_id, p = route_one(tree, [1, 0, 0, 0])
        assert p == pytest.approx(0.93)
        assert describe_path(tree, leaf_id) == ["accused = yes"]

    def test_all_no_row_hits_17_percent_leaf(self):
        tree = paper_tree()
        leaf_id, p = route_one(tree, [0, 0, 0, 0])
        assert p == pytest.approx(0.17)

    def test_vectorized_routing_matches_scalar(self):
        tree = paper_tree()
        rng = np.random.default_rng(0)
        x = (rng.random((200, 4)) < 0.4).astype(float)
        routed = predict_leaves(tree, x)
        for i in range(200):
            assert routed[i] == walk(tree, x[i])


class TestDescribePath:
    def test_root_only_tree_has_empty_path(self):
        tree = Tree(nodes=(Leaf(n=20, n_struck=5),), columns=())
        assert describe_path(tree, 0) == []
        assert tree.depth == 0

    def test_depth_is_the_longest_path(self):
        tree = paper_tree()
        assert tree.depth == 4 == max(len(describe_path(tree, i)) for i in tree.leaf_ids())

    def test_know_def_leaf_conditions(self):
        tree = paper_tree()
        leaf_id, _ = route_one(tree, [0, 1, 0, 0])
        assert describe_path(tree, leaf_id) == ["accused = no", "know_def = yes"]

    def test_death_hesitation_leaf_has_four_conditions(self):
        tree = paper_tree()
        leaf_id, p = route_one(tree, [0, 0, 0, 1])
        assert p == pytest.approx(1.0)
        conditions = describe_path(tree, leaf_id)
        assert len(conditions) == 4
        assert conditions[-1] == "death_hesitation = yes"

    def test_unknown_leaf_rejected(self):
        tree = paper_tree()
        with pytest.raises(ValueError):
            describe_path(tree, 99)
        with pytest.raises(ValueError):
            describe_path(tree, 0)  # the root: a split, not a leaf


class TestTuneAlpha:
    def test_singleton_grid(self):
        m = binary_matrix(20, 300, 3, rate_fn=lambda x: 0.2 + 0.5 * x[:, 0])
        alpha, tree = tune_alpha(m, [0.02], folds=3, seed=0,
                                 settings=TreeSettings())
        assert alpha == 0.02
        assert tree.n_leaves() >= 1

    @pytest.mark.parametrize("alpha", [-0.1, math.inf, math.nan, True, "0.1"])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            TreeSettings(alpha=alpha)

    @pytest.mark.parametrize("kwargs", [
        {"max_depth": 0}, {"max_depth": 1.5}, {"max_depth": True},
        {"min_leaf": 0}, {"min_leaf": 2.5}, {"min_leaf": True},
    ])
    def test_bad_depth_or_leaf_size_rejected(self, kwargs):
        # A fractional depth never counts down to 0, so the DP would grow
        # trees deeper than asked for.
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            TreeSettings(**kwargs)

    def test_empty_grid_rejected(self):
        m = binary_matrix(21, 200, 3)
        with pytest.raises(ValueError):
            tune_alpha(m, [], folds=3, seed=0)

    def test_pure_noise_prefers_single_leaf(self):
        wins = 0
        for seed in range(5):
            m = binary_matrix(seed + 90, 600, 4)  # y independent of x
            alpha, tree = tune_alpha(
                m, [0.005, 0.05, 0.3], folds=3, seed=seed,
                settings=TreeSettings(),
            )
            if alpha == 0.3 and tree.n_leaves() == 1:
                wins += 1
        assert wins >= 4

    def test_planted_signal_prefers_small_alpha(self):
        wins = 0
        for seed in range(5):
            m = binary_matrix(
                seed + 120, 1500, 4,
                rate_fn=lambda x: 0.1 + 0.5 * x[:, 0] + 0.35 * (1 - x[:, 0]) * x[:, 1],
            )
            alpha, _ = tune_alpha(
                m, [0.001, 0.01, 0.5], folds=3, seed=seed,
                settings=TreeSettings(),
            )
            if alpha <= 0.01:
                wins += 1
        assert wins >= 4


class TestAlphaSharing:
    """tune_alpha lends each fold's fits one table of the alpha-free last
    two split levels; sharing it must change no tree and keep no memory."""

    @staticmethod
    def matrix(seed, n, p, labels):
        """Labels copying a column or their parity tie many trees at zero
        misclassified; random labels tie splits of equal counts."""
        rng = np.random.default_rng(seed)
        x = (rng.random((n, p)) < 0.5).astype(float)
        if labels == "copy":
            y = x[:, -1].astype(int)
        elif labels == "parity":
            y = x[:, 0].astype(int) ^ x[:, -1].astype(int)
        else:
            y = (rng.random(n) < 0.2 + 0.5 * x[:, 0]).astype(int)
        return FeatureMatrix(x=x, columns=tuple(f"q{j}" for j in range(p)), y=y)

    @staticmethod
    def unshared_tune(train, grid, folds, seed, tree_settings):
        """tune_alpha as one fresh fit_tree per (alpha, fold)."""
        fold_idx = stratified_folds(train.y, folds, seed)
        best_alpha = best_error = None
        for alpha in sorted(grid):
            errors = []
            for tr, va in fold_idx:
                t = fit_tree(train.take_rows(tr), replace(tree_settings, alpha=alpha))
                errors.append(float(np.mean(predict_labels(t, train.x[va]) != train.y[va])))
            mean_error = float(np.mean(errors))
            if best_error is None or mean_error <= best_error:
                best_alpha, best_error = alpha, mean_error
        return best_alpha, fit_tree(train, replace(tree_settings, alpha=best_alpha))

    alphas = st.sampled_from([0.0, 1 / 64, 0.01, 0.03, 0.1, 0.2, 0.3, 1.0])

    @given(st.integers(0, 2**32 - 1), st.sampled_from([64, 100, 128, 160]),
           st.integers(1, 5), st.sampled_from(["copy", "parity", "random"]),
           st.integers(1, 4), st.integers(1, 15),
           st.lists(alphas, min_size=1, max_size=4), st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_tune_alpha_matches_unshared_fits(self, seed, n, p, labels, depth, min_leaf,
                                              grid, folds):
        m = self.matrix(seed, n, p, labels)
        assume(min(m.y.sum(), n - m.y.sum()) >= 2 * folds)
        tree_settings = TreeSettings(max_depth=depth, min_leaf=min_leaf)
        alpha, tree = tune_alpha(m, grid, folds, seed, tree_settings)
        expected_alpha, expected_tree = self.unshared_tune(m, grid, folds, seed, tree_settings)
        assert alpha == expected_alpha
        assert tree_to_json(tree) == tree_to_json(expected_tree)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([64, 100, 128]), st.integers(1, 5),
           st.sampled_from(["copy", "parity", "random"]), st.integers(1, 4),
           st.integers(1, 15), st.lists(alphas, min_size=2, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_fit_on_a_filled_table_equals_a_fresh_fit(self, seed, n, p, labels, depth,
                                                      min_leaf, grid):
        m = self.matrix(seed, n, p, labels)
        splits: dict = {}
        for alpha in grid:
            tree_settings = TreeSettings(max_depth=depth, alpha=alpha, min_leaf=min_leaf)
            assert fit_tree(m, tree_settings, _splits=splits) == fit_tree(m, tree_settings)

    @given(st.integers(0, 2**32 - 1), st.integers(8, 40), st.integers(1, 3),
           st.integers(1, 3), st.integers(1, 6), st.lists(alphas, min_size=1, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_shared_fits_follow_the_oracle_under_ties(self, seed, n, p, depth, min_leaf, grid):
        # A copy and a complement of column 0 sit before and after the
        # others, so equal best splits on one row set are common.
        rng = np.random.default_rng(seed)
        x = (rng.random((n, p)) < 0.5).astype(float)
        x = np.column_stack([x[:, 0], x, 1.0 - x[:, 0]])
        y = (rng.random(n) < 0.25 + 0.5 * x[:, 0]).astype(int)
        m = FeatureMatrix(x=x, columns=tuple(f"q{j}" for j in range(p + 2)), y=y)
        assume(n >= 2 * min_leaf)
        splits: dict = {}
        for alpha in grid:
            tree_settings = TreeSettings(max_depth=depth, alpha=alpha, min_leaf=min_leaf)
            tree = fit_tree(m, tree_settings, _splits=splits)
            assert tree_key(tree, alpha) == enumerate_trees_best_key(x, y, depth, min_leaf, alpha)

    @pytest.mark.parametrize("depth", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_alpha_zero_reads_a_table_filled_at_large_alphas(self, depth, seed):
        # Descending alphas: at a large alpha the DP prunes most candidates,
        # so a two-level entry filled only as far as that fit needed would
        # hand alpha = 0 an incomplete list. Column 0 is rare (about 13 of
        # 160 rows), so min_leaf = 8 fails it on one side of most row sets.
        # At alpha >= 0.5 nothing splits (no row set misclassifies more than
        # half of n), so 0.25 and 0.05 are what fill the table. A table that
        # skips the features whose right child cannot beat the leaf fails
        # at seed 0 for depths 2-3 and at seed 1 for depths 2 and 4.
        rng = np.random.default_rng(seed)
        x = (rng.random((160, 6)) < [0.08, 0.5, 0.4, 0.6, 0.3, 0.5]).astype(float)
        y = (rng.random(160) < 0.2 + 0.4 * x[:, 1] + 0.3 * x[:, 0]).astype(int)
        m = FeatureMatrix(x=x, columns=tuple(f"q{j}" for j in range(6)), y=y)
        splits: dict = {}
        for alpha in (1.0, 0.75, 0.25, 0.05, 0.0):
            if alpha == 0.0:
                assert any(isinstance(key, tuple) for key in splits)
            tree_settings = TreeSettings(max_depth=depth, alpha=alpha, min_leaf=8)
            assert fit_tree(m, tree_settings, _splits=splits) == fit_tree(m, tree_settings)

    def test_no_dp_table_outlives_tune_alpha(self):
        # The DP's functions call themselves. If that reference cycle
        # outlived a fit, it would keep the fit's tables (hundreds of KiB
        # here) and bitsets (~3 KiB a fit) until a cyclic collection; with
        # collection off, either shows here. What is left is the result.
        m = binary_matrix(31, 600, 10, rate_fn=lambda x: 0.15 + 0.6 * x[:, 0] * x[:, 1])
        args = (m, (0.001, 0.01, 0.1), 5, 0, TreeSettings(max_depth=4, min_leaf=10))
        tune_alpha(*args)  # warm-up: first-call allocations are not a leak
        was_enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = tune_alpha(*args)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            if was_enabled:
                gc.enable()
        assert result[1].n_leaves() >= 1
        assert grown <= 16 * 1024


class TestSerialization:
    def test_json_round_trip(self):
        tree = paper_tree()
        doc = tree_to_json(tree)
        back = tree_from_json(doc)
        assert back == tree
        assert tree_to_json(back) == doc

    def test_fit_round_trip(self):
        m = binary_matrix(30, 400, 4, rate_fn=lambda x: 0.2 + 0.5 * x[:, 2])
        tree = fit_tree(m, TreeSettings())
        assert tree_from_json(tree_to_json(tree)) == tree

    def test_text_rendering(self):
        text = tree_to_text(paper_tree())
        assert "accused = no:" in text
        assert "p_strike=0.930" in text
        assert text.count("leaf[") == 5

    def test_graph_export(self):
        graph = tree_to_graph(paper_tree())
        splits = [n for n in graph["nodes"] if n["kind"] == "split"]
        leaves = [n for n in graph["nodes"] if n["kind"] == "leaf"]
        assert len(splits) == 4 and len(leaves) == 5
        assert len(graph["edges"]) == 8
        assert graph["root"] == 0

    def test_unknown_feature_rejected(self):
        doc = tree_to_json(paper_tree())
        doc["root"]["feature"] = "mystery"
        with pytest.raises(ValueError):
            tree_from_json(doc)


class TestInvariance:
    """The exact fit depends on the rows as a multiset and on column positions,
    not on row order or column names."""

    @staticmethod
    def matrix(seed, n, p):
        return binary_matrix(seed, n, p, rate_fn=lambda x: 0.15 + 0.6 * x[:, 0] * x[:, -1])

    @given(st.integers(0, 2**32 - 1), st.integers(12, 80), st.integers(1, 4),
           st.sampled_from([0.0, 0.01, 0.05]))
    @settings(max_examples=40, deadline=None)
    def test_row_permutation_gives_the_same_tree(self, seed, n, p, alpha):
        m = self.matrix(seed, n, p)
        tree_settings = TreeSettings(max_depth=3, alpha=alpha, min_leaf=3)
        perm = np.random.default_rng(seed).permutation(n)
        assert fit_tree(m.take_rows(perm), tree_settings) == fit_tree(m, tree_settings)

    @given(st.integers(0, 2**32 - 1), st.integers(12, 80), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_renamed_columns_rename_the_tree(self, seed, n, p):
        m = self.matrix(seed, n, p)
        names = tuple(f"z{p - j}" for j in range(p))  # reverses the names' sort order
        renamed = FeatureMatrix(x=m.x, columns=names, y=m.y)
        tree_settings = TreeSettings(max_depth=3, alpha=0.01, min_leaf=3)
        expected = replace(fit_tree(m, tree_settings), columns=names)
        assert fit_tree(renamed, tree_settings) == expected
