"""Single interpretable binary tree fit by exact objective minimization.

Objective: (misclassified rows under per-leaf majority labels)/n plus alpha
per leaf, over trees no deeper than max_depth whose leaves hold at least
min_leaf rows and that test no feature twice on a path. fit_tree finds the
exact minimum by memoized dynamic programming over row sets held as
Python-int bitsets (the DL8.5 scheme of Aglin, Nijssen & Schaus, AAAI 2020),
comparing objectives in integers so that float rounding never decides a tie.
Ties between equal-objective trees break toward fewer leaves and then the
lexicographically smallest pre-order split sequence, so the result is a
function of the data and the settings alone.

The last two split levels are tabled free of alpha: a row set's best
one-split tree is the first feature with the fewest misclassified rows at
any alpha, and alpha only decides whether it beats the leaf; a row set with
two levels left keeps its children's one-split entries per feature and picks
among them at each alpha with integer arithmetic. tune_alpha therefore lends
one table of both levels to all of a fold's fits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .dataset import FeatureMatrix, RACE_FEATURE_NAMES, stratified_folds
from .errors import (
    ContractViolationError, DegenerateDataError, SchemaError, finite_real, reading_document, whole,
)


@dataclass(frozen=True)
class TreeSettings:
    max_depth: int = 4
    alpha: float = 0.01
    min_leaf: int = 10

    def __post_init__(self):
        for name in ("max_depth", "min_leaf"):
            if not whole(getattr(self, name), 1):
                raise ValueError(f"{name} must be an integer >= 1, got {getattr(self, name)!r}")
        if not (finite_real(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be a finite number >= 0, got {self.alpha!r}")


@dataclass(frozen=True)
class Leaf:
    n: int
    n_struck: int

    @property
    def p_strike(self) -> float:
        return self.n_struck / self.n


@dataclass(frozen=True)
class Split:
    feature: int
    left: int  # feature = 0 branch
    right: int  # feature = 1 branch


@dataclass(frozen=True)
class Tree:
    """nodes in pre-order, left before right: nodes[0] is the root."""

    nodes: tuple
    columns: tuple[str, ...]

    @property
    def depth(self) -> int:
        """Splits on the longest root-to-leaf path."""
        return max(len(conditions) for _, _, conditions in walk(self))

    def leaf_ids(self) -> list[int]:
        return [i for i, node in enumerate(self.nodes) if isinstance(node, Leaf)]

    def n_leaves(self) -> int:
        return len(self.leaf_ids())


def _bitset(mask: np.ndarray) -> int:
    """Row mask as a Python int whose bit i is row i."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def fit_tree(m: FeatureMatrix, settings: TreeSettings = TreeSettings(), *,
             _splits: dict | None = None) -> Tree:
    """Exact minimizer of the penalized misclassification objective.

    Memoized depth-limited dynamic programming over row sets: the best
    subtree on a row set with d levels left is a leaf or, for some feature,
    a split whose two children are the best subtrees on their own row sets
    with d - 1 levels left. A feature already tested on the path is constant
    on the rows below it, so a repeat split leaves an empty child and fails
    min_leaf; the memo key (rows, levels left) therefore needs no path.

    Costs are integers, misclassified * a_den + a_num * n * leaves with
    a_num / a_den = alpha exactly, so float rounding never decides a tie.
    Candidates compare by (cost, leaves, pre-order split features). That
    order decomposes over the two children, because trees with equal leaves
    have equal-length feature sequences, and among a node's candidates with
    equal (cost, leaves) it picks the smallest split feature. Trying
    features in ascending order and keeping only strict improvements in
    (cost, leaves) therefore returns the globally first tree. Every leaf
    costs at least a_num * n, which gives the two prunes: a leaf costing at
    most two leaves' penalty is not split, and a split is dropped once its
    right child plus one leaf exceeds the best.

    The last two split levels read alpha-free entries from one table, so
    the table serves every alpha. A leaf is computed where it is needed and
    never memoized. The table keeps two kinds of entry:
    - Keyed by the bitset of a row set with one level left: (leaf
      misclassified, fewest misclassified over its one-split trees, first
      feature attaining that). All its splits have two leaves, so under the
      order above the first feature with the fewest misclassified is the
      best split, and it wins iff its cost is strictly below the leaf's (at
      equal cost the leaf has fewer leaves), i.e. iff it saves more than
      floor(alpha * n) misclassified rows.
    - Keyed by (rows, 2) for a row set with two levels left: the flat tuple
      of (feature, right child's entry, left child's entry) for every
      feature that keeps min_leaf on both sides, in ascending order. At any
      alpha each child splits by the rule above, and a feature replaces the
      incumbent only on a strict (cost, leaves) improvement, as in the
      general step.
    The floor(alpha * n) comparison is the only place alpha enters either
    entry. The prunes only skip candidates that cannot win, so computing
    every split and every child there changes no result. ``_splits`` lends
    that table to fits of the same matrix and min_leaf at other alphas
    (tune_alpha passes one per fold).

    The matrix must already have race columns removed; leaves keep their
    training counts so p_strike is the empirical rate.
    """
    if m.race_columns or any(c in RACE_FEATURE_NAMES for c in m.columns):
        raise ContractViolationError(
            "fit_tree requires race columns to be removed first"
        )
    min_leaf = settings.min_leaf
    if m.n < 2 * min_leaf:
        raise DegenerateDataError(f"need at least {2 * min_leaf} rows, got {m.n}")
    a_num, a_den = float(settings.alpha).as_integer_ratio()
    leaf_cost = a_num * m.n
    features = [_bitset(m.x[:, j] != 0.0) for j in range(m.p)]
    struck = _bitset(m.y != 0)
    splits = {} if _splits is None else _splits
    # A split beats the leaf iff (mis_leaf - mis_split) * a_den > leaf_cost,
    # that is iff it saves more than floor(alpha * n) misclassified rows.
    gain_floor = leaf_cost // a_den
    memo: dict[tuple[int, int], tuple] = {}

    def best_split(rows: int) -> tuple:
        """(leaf misclassified, fewest misclassified over one-split trees,
        first feature attaining it); (leaf, n + 1, None) when no split keeps
        min_leaf, and n + 1 misclassified never beats the leaf."""
        n_rows = rows.bit_count()
        rows_struck = rows & struck
        n_struck = rows_struck.bit_count()
        best_mis, best_f = n_rows + 1, None
        for f, has_f in enumerate(features):
            n_right = (rows & has_f).bit_count()
            n_left = n_rows - n_right
            if n_right < min_leaf or n_left < min_leaf:
                continue
            r_struck = (rows_struck & has_f).bit_count()
            l_struck = n_struck - r_struck
            mis = ((r_struck if 2 * r_struck <= n_right else n_right - r_struck)
                   + (l_struck if 2 * l_struck <= n_left else n_left - l_struck))
            if mis < best_mis:
                best_mis, best_f = mis, f
        found = splits[rows] = (min(n_struck, n_rows - n_struck), best_mis, best_f)
        return found

    def children(rows: int) -> tuple:
        """(feature, right child's one-split entry, left child's), flat, for
        every feature that keeps min_leaf on both sides, in feature order;
        flat so that the table holds no tuple per feature."""
        n_rows = rows.bit_count()
        found = []
        for f, has_f in enumerate(features):
            right = rows & has_f
            n_right = right.bit_count()
            if n_right < min_leaf or n_rows - n_right < min_leaf:
                continue
            left = rows ^ right
            found += (f, splits.get(right) or best_split(right),
                      splits.get(left) or best_split(left))
        found = splits[rows, 2] = tuple(found)
        return found

    def best(rows: int, levels: int) -> tuple:
        """(cost, leaves, split feature or None) of the best subtree."""
        if levels == 1:
            mis_leaf, mis_split, f = splits.get(rows) or best_split(rows)
            if mis_leaf - mis_split > gain_floor:
                return (mis_split * a_den + 2 * leaf_cost, 2, f)
            return (mis_leaf * a_den + leaf_cost, 1, None)
        if levels and (found := memo.get((rows, levels))) is not None:
            return found
        n_rows = rows.bit_count()
        n_struck = (rows & struck).bit_count()
        result = (min(n_struck, n_rows - n_struck) * a_den + leaf_cost, 1, None)
        if levels and n_rows >= 2 * min_leaf and result[0] > 2 * leaf_cost:
            if levels == 2:
                best_cost, best_leaves = result[:2]
                entries = iter(splits.get((rows, 2)) or children(rows))
                for f, (r_leaf, r_split, _), (l_leaf, l_split, _) in zip(
                        entries, entries, entries):
                    mis, leaves = r_leaf + l_leaf, 2
                    if r_leaf - r_split > gain_floor:
                        mis, leaves = mis - r_leaf + r_split, 3
                    if l_leaf - l_split > gain_floor:
                        mis, leaves = mis - l_leaf + l_split, leaves + 1
                    cost = mis * a_den + leaves * leaf_cost
                    if cost < best_cost or cost == best_cost and leaves < best_leaves:
                        best_cost, best_leaves, result = cost, leaves, (cost, leaves, f)
            else:
                for f, has_f in enumerate(features):
                    right = rows & has_f
                    n_right = right.bit_count()
                    if n_right < min_leaf or n_rows - n_right < min_leaf:
                        continue
                    r = best(right, levels - 1)
                    if r[0] + leaf_cost > result[0]:
                        continue
                    l = best(rows ^ right, levels - 1)
                    candidate = (l[0] + r[0], l[1] + r[1], f)
                    if candidate[:2] < result[:2]:
                        result = candidate
            memo[rows, levels] = result
        return result

    nodes: list = []

    def build(rows: int, level: int) -> int:
        feature = best(rows, settings.max_depth - level)[2]
        idx = len(nodes)
        nodes.append(None)
        if feature is None:
            nodes[idx] = Leaf(n=rows.bit_count(), n_struck=(rows & struck).bit_count())
        else:
            right = rows & features[feature]
            left = build(rows ^ right, level + 1)
            nodes[idx] = Split(feature=feature, left=left, right=build(right, level + 1))
        return idx

    try:
        build((1 << m.n) - 1, 0)
    finally:
        # best() and build() call themselves: a reference cycle that would
        # keep the tables, bitsets and nodes until a cyclic garbage
        # collection. Breaking it lets them die with this frame; a lent
        # table lives as long as its lender holds it.
        del best, build
    return Tree(nodes=tuple(nodes), columns=m.columns)


def predict_leaves(tree: Tree, x: np.ndarray) -> np.ndarray:
    """Vectorized leaf assignment for an n x p matrix."""
    x = np.asarray(x)
    out = np.zeros(x.shape[0], dtype=int)
    # A work list, not a recursive closure: the closure's reference cycle
    # would keep x and out alive until a cyclic garbage collection.
    todo = [(0, np.ones(x.shape[0], dtype=bool))]
    while todo:
        idx, mask = todo.pop()
        node = tree.nodes[idx]
        if isinstance(node, Leaf):
            out[mask] = idx
        else:
            present = x[:, node.feature] != 0.0
            todo += [(node.left, mask & ~present), (node.right, mask & present)]
    return out


def predict_labels(tree: Tree, x: np.ndarray) -> np.ndarray:
    """Majority training label of the leaf each row lands in."""
    labels = np.zeros(len(tree.nodes), dtype=int)
    for i, node in enumerate(tree.nodes):
        if isinstance(node, Leaf):
            labels[i] = 1 if 2 * node.n_struck > node.n else 0
    return labels[predict_leaves(tree, x)]


def walk(tree: Tree):
    """The nodes in pre-order (left before right) as (index, node,
    conditions), conditions being the tests from the root down to the node,
    e.g. ["accused = no", "know_def = yes"]."""
    todo = [(0, [])]
    while todo:
        idx, conditions = todo.pop()
        node = tree.nodes[idx]
        yield idx, node, conditions
        if isinstance(node, Split):
            name = tree.columns[node.feature]
            todo += [(node.right, [*conditions, f"{name} = yes"]),
                     (node.left, [*conditions, f"{name} = no"])]


def describe_path(tree: Tree, leaf_id: int) -> list[str]:
    """Root-to-leaf conditions, e.g. ["accused = no", "know_def = yes"]."""
    for idx, node, conditions in walk(tree):
        if idx == leaf_id and isinstance(node, Leaf):
            return conditions
    raise ValueError(f"no leaf with id {leaf_id}")


def tune_alpha(
    train: FeatureMatrix,
    alpha_grid,
    folds: int,
    seed: int,
    settings: TreeSettings = TreeSettings(),
) -> tuple[float, Tree]:
    """Pick the complexity penalty by out-of-fold misclassification.

    ``seed`` draws the stratified folds. Ties go to the larger alpha
    (simpler trees); the winner is refit on the full training data.
    Folds run in the outer loop and the sorted grid in the inner one: each
    fold's training rows are taken once, and its fits at every alpha share
    one table of the alpha-free last two split levels (see fit_tree).
    """
    grid = tuple(sorted(alpha_grid))
    if not grid:
        raise ValueError("alpha_grid must be non-empty")
    errors: list[list[float]] = [[] for _ in grid]
    for tr, va in stratified_folds(train.y, folds, seed):
        splits: dict = {}  # before take_rows, so the last fold's table goes first
        fold = train.take_rows(tr)
        x_va, y_va = train.x[va], train.y[va]
        for alpha, alpha_errors in zip(grid, errors):
            t = fit_tree(fold, dc_replace(settings, alpha=alpha), _splits=splits)
            alpha_errors.append(float(np.mean(predict_labels(t, x_va) != y_va)))
    del splits  # freed before the refit, which makes its own
    # min keeps the first of equal errors, so scanning the grid from the top
    # sends ties to the larger alpha.
    best_alpha, _ = min(zip(reversed(grid), reversed(errors)), key=lambda ge: np.mean(ge[1]))
    final = fit_tree(train, dc_replace(settings, alpha=best_alpha))
    return best_alpha, final


# ---------------------------------------------------------------------------
# serialization and rendering

def tree_to_json(tree: Tree) -> dict:
    def rec(idx: int) -> dict:
        node = tree.nodes[idx]
        if isinstance(node, Leaf):
            return {"leaf": {"n": node.n, "n_struck": node.n_struck, "p_strike": node.p_strike}}
        return {
            "feature": tree.columns[node.feature],
            "left": rec(node.left),
            "right": rec(node.right),
        }

    return {"columns": list(tree.columns), "root": rec(0)}


def tree_from_json(obj: dict) -> Tree:
    """The tree of a tree_to_json document; a missing key, or leaf counts
    that no fitted tree has, is a SchemaError."""
    nodes: list = []

    def rec(spec: dict) -> int:
        idx = len(nodes)
        nodes.append(None)
        if "leaf" in spec:
            n, n_struck = spec["leaf"]["n"], spec["leaf"]["n_struck"]
            if not (type(n) is int and type(n_struck) is int and n >= 1 and 0 <= n_struck <= n):
                raise SchemaError(
                    f"tree document has a leaf with n={n!r}, n_struck={n_struck!r}; "
                    "a fitted leaf has integers 0 <= n_struck <= n and n >= 1"
                )
            nodes[idx] = Leaf(n=n, n_struck=n_struck)
        else:
            feature = spec["feature"]
            if feature not in index:
                raise ValueError(f"unknown feature in tree document: {feature!r}")
            left = rec(spec["left"])
            right = rec(spec["right"])
            nodes[idx] = Split(feature=index[feature], left=left, right=right)
        return idx

    with reading_document("tree document"):
        columns = tuple(obj["columns"])
        index = {name: j for j, name in enumerate(columns)}
        rec(obj["root"])
    return Tree(nodes=tuple(nodes), columns=columns)


def tree_to_text(tree: Tree) -> str:
    lines: list[str] = []
    for idx, node, conditions in walk(tree):
        indent = "  " * len(conditions)
        if conditions:
            lines.append(f"{indent[2:]}{conditions[-1]}:")
        if isinstance(node, Leaf):
            lines.append(
                f"{indent}leaf[{idx}]: n={node.n} struck={node.n_struck} "
                f"p_strike={node.p_strike:.3f}"
            )
    return "\n".join(lines) + "\n"


def tree_to_graph(tree: Tree) -> dict:
    """Node/edge list for external plotting tools."""
    nodes = []
    edges = []
    for i, node in enumerate(tree.nodes):
        if isinstance(node, Leaf):
            nodes.append(
                {"id": i, "kind": "leaf", "n": node.n, "n_struck": node.n_struck,
                 "p_strike": node.p_strike}
            )
        else:
            nodes.append({"id": i, "kind": "split", "feature": tree.columns[node.feature]})
            edges.append({"from": i, "to": node.left, "value": 0})
            edges.append({"from": i, "to": node.right, "value": 1})
    return {"nodes": nodes, "edges": edges, "root": 0}
