"""Spans around the public functions of each strikeaudit layer.

The library has no hooks, so the tracer patches each name where its caller
looks it up (audit.py imports load_csv, build_matrix, leaf_disparity and
fisher_exact by name; subset.py and tree.py call logreg.fit, stats.auc and
tree.fit_tree through their modules) and restores every name afterwards.
Spans stay in memory, each with its parent, and are written out at the end.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import mean

import strikeaudit.audit
import strikeaudit.logreg
import strikeaudit.stats
import strikeaudit.subset
import strikeaudit.tree


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # id(matrix) -> (matrix, row digest, column digests); the matrix is
        # kept alive so its id cannot be reused while the tracer exists.
        self._fingerprints: dict[int, tuple] = {}
        self._solved: set = set()

    @contextmanager
    def span(self, name: str):
        s = Span(len(self.spans), self._open[-1] if self._open else None, name, 0.0)
        self.spans.append(s)
        self._open.append(s.id)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def patch(self, module, attr: str, name: str, on_result=None) -> None:
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(s, args, result)
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _fingerprint(self, m):
        entry = self._fingerprints.get(id(m))
        if entry is None:
            digest = lambda a: hashlib.blake2b(a.tobytes(), digest_size=16).digest()
            entry = (m, digest(m.y), [digest(m.x[:, j]) for j in range(m.p)])
            self._fingerprints[id(m)] = entry
        return entry

    def _on_fit(self, s: Span, args, model) -> None:
        m, support = args[0], args[1]
        _, rows, cols = self._fingerprint(m)
        key = (rows, frozenset((m.columns[j], cols[j]) for j in support))
        s.info["repeat"] = key in self._solved
        self._solved.add(key)
        s.info["iterations"] = model.diagnostics.iterations
        s.info["converged"] = model.diagnostics.converged

    @staticmethod
    def _on_tune(s: Span, args, result) -> None:
        alpha, tree = result
        leaves = [tree.nodes[i] for i in tree.leaf_ids()]
        n = sum(leaf.n for leaf in leaves)
        misclassified = sum(min(leaf.n_struck, leaf.n - leaf.n_struck) for leaf in leaves)
        s.info["leaves"] = len(leaves)
        s.info["objective"] = misclassified / n + alpha * len(leaves)

    def install(self) -> None:
        audit = strikeaudit.audit
        self.patch(audit, "load_csv", "dataset.load_csv")
        self.patch(audit, "build_matrix", "dataset.build_matrix")
        self.patch(audit, "leaf_disparity", "audit.leaf_disparity")
        self.patch(audit, "fisher_exact", "stats.fisher_exact")
        self.patch(strikeaudit.subset, "subset_path", "subset.subset_path")
        self.patch(strikeaudit.logreg, "fit", "logreg.fit", self._on_fit)
        self.patch(strikeaudit.tree, "fit_tree", "tree.fit_tree")
        self.patch(strikeaudit.tree, "tune_alpha", "tree.tune_alpha", self._on_tune)
        self.patch(strikeaudit.stats, "auc", "stats.auc")


def write_spans(path, traces: list[list[Span]]) -> None:
    """One JSON object per span and line; ``audit`` numbers the traced audit."""
    with open(path, "w", encoding="utf-8") as fh:
        for audit, spans in enumerate(traces, start=1):
            for s in spans:
                fh.write(json.dumps({
                    "audit": audit, "id": s.id, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end, **s.info,
                }) + "\n")


# Children of the "audit" span, in call order, and the stage each one is.
STAGE_ORDER = (
    ("dataset.load_csv", "load"),
    ("dataset.build_matrix", "matrix"),
    ("subset.subset_path", "subset"),
    ("subset.subset_path", "ablation"),
    ("tree.tune_alpha", "tree"),
    ("audit.leaf_disparity", "disparity"),
)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced audit; its first span is the audit.

    Raises ValueError when the stage spans are not the expected disjoint
    children of the audit span, so their sum could not equal its time.
    """
    root = spans[0]
    stages = [s for s in spans if s.parent == root.id]
    names = tuple(s.name for s in stages)
    if names != tuple(name for name, _ in STAGE_ORDER):
        raise ValueError(f"unexpected stage spans under the audit: {names}")
    for before, after in zip(stages, stages[1:]):
        if after.start < before.end:
            raise ValueError(f"stage spans overlap: {before.name}, {after.name}")
    stage_of = {root.id: None}
    for s, (_, stage) in zip(stages, STAGE_ORDER):
        stage_of[s.id] = stage
    for s in spans:
        if s.id not in stage_of:
            stage_of[s.id] = stage_of[s.parent]

    out: dict[str, float] = {}
    for s, (_, stage) in zip(stages, STAGE_ORDER):
        out[f"audit.{stage}_s"] = s.seconds
    out["audit.self_s"] = root.seconds - sum(s.seconds for s in stages)

    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    fits = by_name["logreg.fit"]
    fit_s = sum(s.seconds for s in fits)
    out["logreg.fit_calls"] = len(fits)
    out["logreg.fit_calls.subset"] = sum(stage_of[s.id] == "subset" for s in fits)
    out["logreg.fit_calls.ablation"] = sum(stage_of[s.id] == "ablation" for s in fits)
    out["logreg.fit_s"] = fit_s
    out["logreg.fit_us_mean"] = 1e6 * fit_s / len(fits)
    out["logreg.newton_iters_mean"] = mean(s.info["iterations"] for s in fits)
    out["logreg.unconverged"] = sum(not s.info["converged"] for s in fits)
    out["logreg.fit_repeat_frac"] = sum(s.info["repeat"] for s in fits) / len(fits)

    out["subset.path_s"] = sum(s.seconds for s in by_name["subset.subset_path"])

    trees = by_name["tree.fit_tree"]
    (tune,) = by_name["tree.tune_alpha"]
    out["tree.fit_tree_calls"] = len(trees)
    out["tree.fit_tree_s"] = sum(s.seconds for s in trees)
    out["tree.fit_tree_s_mean"] = out["tree.fit_tree_s"] / len(trees)
    out["tree.leaves"] = tune.info["leaves"]
    out["tree.objective"] = tune.info["objective"]

    for name, key in (("stats.auc", "auc"), ("stats.fisher_exact", "fisher")):
        calls = by_name.get(name, [])
        out[f"stats.{key}_calls"] = len(calls)
        out[f"stats.{key}_s"] = sum(s.seconds for s in calls)
    return out
