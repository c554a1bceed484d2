"""End-to-end audit: subset-selection study, race ablation, tree
segmentation, and per-leaf disparity testing, assembled into one report."""

from __future__ import annotations

import hashlib
import json
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import logreg, stats, subset, tree as tree_mod
from .dataset import (
    MISSING_POLICIES,
    RACE_FEATURE_NAMES,
    FeatureMatrix,
    JurorTable,
    build_matrix,
    filter_eligible,
    load_csv,
    split,
)
from .errors import StageError, StrikeAuditError, UndefinedTestError
from .logreg import FitSettings
from .stats import ContingencyTable, fisher_exact, holm_adjust
from .subset import DEFAULT_NODE_BUDGET, ImportanceProfile, SubsetPath
from .tree import Tree, TreeSettings


@dataclass
class DisparityFinding:
    """Per-leaf comparison of black vs non-black strike rates."""

    leaf: int
    path: tuple[str, ...]
    n_black: int
    struck_black: int
    n_nonblack: int
    struck_nonblack: int
    rate_black: float | None
    rate_nonblack: float | None
    p_raw: float | None
    p_adjusted: float | None
    significant: bool
    skipped: bool
    reason: str | None = None

    def to_json(self) -> dict:
        return {
            "leaf": self.leaf,
            "path": list(self.path),
            "n_black": self.n_black,
            "struck_black": self.struck_black,
            "n_nonblack": self.n_nonblack,
            "struck_nonblack": self.struck_nonblack,
            "rate_black": self.rate_black,
            "rate_nonblack": self.rate_nonblack,
            "p_raw": self.p_raw,
            "p_adjusted": self.p_adjusted,
            "significant": self.significant,
            "skipped": self.skipped,
            "reason": self.reason,
        }


def _table_matrix(table: JurorTable, columns) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows aligned to the given column names (missing answers count as no),
    plus race and struck flags."""
    n = len(table.records)
    x = np.zeros((n, len(columns)))
    is_black = np.zeros(n, dtype=bool)
    struck = np.zeros(n, dtype=bool)
    for i, record in enumerate(table.records):
        for j, name in enumerate(columns):
            if record.answers.get(name):
                x[i, j] = 1.0
        is_black[i] = record.is_black
        struck[i] = record.struck_by_state
    return x, is_black, struck


def leaf_disparity(tree: Tree, table: JurorTable, alpha_level: float = 0.05) -> list[DisparityFinding]:
    """Fisher-test every leaf's black vs non-black strike rates; adjust the
    testable leaves jointly with Holm. Leaves with a degenerate margin are
    skipped and excluded from the Holm family.
    """
    if any(c in RACE_FEATURE_NAMES for c in tree.columns):
        raise StrikeAuditError("disparity testing requires a race-free tree")
    x, is_black, struck = _table_matrix(table, tree.columns)
    routed = tree_mod.predict_leaves(tree, x) if len(table.records) else np.empty(0, dtype=int)
    findings: list[DisparityFinding] = []
    testable: list[int] = []
    raw: list[float] = []
    for leaf_id in tree.leaf_ids():
        here = routed == leaf_id
        n_black = int(np.count_nonzero(here & is_black))
        n_nonblack = int(np.count_nonzero(here & ~is_black))
        struck_black = int(np.count_nonzero(here & is_black & struck))
        struck_nonblack = int(np.count_nonzero(here & ~is_black & struck))
        finding = DisparityFinding(
            leaf=leaf_id,
            path=tuple(tree_mod.describe_path(tree, leaf_id)),
            n_black=n_black,
            struck_black=struck_black,
            n_nonblack=n_nonblack,
            struck_nonblack=struck_nonblack,
            rate_black=struck_black / n_black if n_black else None,
            rate_nonblack=struck_nonblack / n_nonblack if n_nonblack else None,
            p_raw=None,
            p_adjusted=None,
            significant=False,
            skipped=False,
        )
        try:
            if n_black + n_nonblack == 0:
                raise UndefinedTestError("empty leaf")
            p = fisher_exact(
                ContingencyTable(
                    a=struck_black,
                    b=n_black - struck_black,
                    c=struck_nonblack,
                    d=n_nonblack - struck_nonblack,
                )
            )
        except UndefinedTestError:
            finding.skipped = True
            finding.reason = "degenerate margin"
        else:
            finding.p_raw = p
            testable.append(len(findings))
            raw.append(p)
        findings.append(finding)
    if raw:
        adjusted = holm_adjust(raw)
        for idx, p_adj in zip(testable, adjusted):
            findings[idx].p_adjusted = float(p_adj)
            findings[idx].significant = bool(p_adj < alpha_level)
    return findings


def ablation_auc(
    train: FeatureMatrix,
    test: FeatureMatrix,
    k_max: int,
    folds: int,
    seed: int,
    settings: FitSettings = FitSettings(),
    budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[float, float]:
    """Test AUC with all features vs with race columns removed, same seed."""
    if not train.race_columns or not test.race_columns:
        raise ValueError("ablation requires race columns in both matrices")
    full = subset.subset_path(train, test, k_max, folds, seed, settings, budget)
    train_nr = train.without_race()
    ablated = subset.subset_path(
        train_nr,
        test.without_race(),
        min(k_max, train_nr.p),
        folds,
        seed,
        settings,
        budget,
    )
    return full.test_auc, ablated.test_auc


@dataclass
class AuditConfig:
    input_path: str
    catalog: tuple[str, ...]
    seed: int = 0
    train_fraction: float = 0.7
    k_max: int = 20
    folds: int = 5
    missing_policy: str = "as_no"
    ridge: float | None = None  # None -> 1/n
    fit_tolerance: float = 1e-8
    max_iterations: int = 100
    node_budget: int = DEFAULT_NODE_BUDGET
    max_depth: int = 4
    min_leaf: int = 10
    alpha_grid: tuple[float, ...] = (0.001, 0.01, 0.1)
    alpha_level: float = 0.05

    def __post_init__(self):
        # Checked once here, so that a malformed config file is a data error
        # and not a TypeError from deep inside a stage.
        def real(v):
            return isinstance(v, numbers.Real) and not isinstance(v, bool)

        def listed(v, item):
            return isinstance(v, (list, tuple)) and all(map(item, v))

        rules = [
            ("input_path", isinstance(self.input_path, (str, Path)), "a path"),
            ("catalog", listed(self.catalog, lambda c: isinstance(c, str)), "a list of names"),
            ("train_fraction", real(self.train_fraction) and 0 < self.train_fraction < 1,
             "a number in (0, 1)"),
            ("missing_policy", self.missing_policy in MISSING_POLICIES,
             f"one of {', '.join(MISSING_POLICIES)}"),
            ("ridge", self.ridge is None or real(self.ridge) and self.ridge >= 0,
             "null or a number >= 0"),
            ("fit_tolerance", real(self.fit_tolerance) and self.fit_tolerance > 0, "a number > 0"),
            ("alpha_grid", listed(self.alpha_grid, lambda a: real(a) and a >= 0)
             and len(self.alpha_grid) > 0, "a non-empty list of numbers >= 0"),
            ("alpha_level", real(self.alpha_level) and 0 < self.alpha_level < 1,
             "a number in (0, 1)"),
        ]
        for name, low in (("seed", 0), ("k_max", 1), ("folds", 2), ("max_iterations", 1),
                          ("node_budget", 1), ("max_depth", 1), ("min_leaf", 1)):
            v = getattr(self, name)
            ok = isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= low
            rules.append((name, ok, f"an integer >= {low}"))
        for name, ok, want in rules:
            if not ok:
                raise StrikeAuditError(
                    f"audit config {name} must be {want}, got {getattr(self, name)!r}"
                )
        self.catalog = tuple(self.catalog)
        self.alpha_grid = tuple(self.alpha_grid)

    def fit_settings(self) -> FitSettings:
        return FitSettings(
            ridge=self.ridge,
            tolerance=self.fit_tolerance,
            max_iterations=self.max_iterations,
        )

    def tree_settings(self) -> TreeSettings:
        return TreeSettings(
            max_depth=self.max_depth,
            min_leaf=self.min_leaf,
        )

    def to_json(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["input_path"] = str(self.input_path)
        out["catalog"] = list(self.catalog)
        out["alpha_grid"] = list(self.alpha_grid)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "AuditConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(obj) - known)
        if unknown:
            raise StrikeAuditError(
                f"unknown audit config key(s): {', '.join(map(repr, unknown))}"
            )
        return cls(**obj)


@dataclass
class AuditReport:
    config: AuditConfig
    dataset_digest: str
    path: SubsetPath
    importance: ImportanceProfile
    auc_full: float
    auc_ablated: float
    tree_alpha: float
    tree: Tree
    findings: list[DisparityFinding]
    dropped_columns: tuple[str, ...] = field(default=())

    def to_json(self) -> dict:
        return {
            "provenance": {
                "seed": self.config.seed,
                "settings": self.config.to_json(),
                "dataset_digest": self.dataset_digest,
            },
            "dropped_columns": list(self.dropped_columns),
            "subset_path": subset.path_to_json(self.path),
            "chosen_model": logreg.model_to_json(self.path.chosen_model, self.path.columns),
            "importance": {
                "ks": list(self.importance.ks),
                "columns": list(self.importance.columns),
                "values": [[float(v) for v in row] for row in self.importance.values],
            },
            "ablation": {"auc_full": self.auc_full, "auc_ablated": self.auc_ablated},
            "tree": {"alpha": self.tree_alpha, **tree_mod.tree_to_json(self.tree)},
            "findings": [f.to_json() for f in self.findings],
        }


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def run_audit(cfg: AuditConfig) -> AuditReport:
    """Full pipeline: load, filter, encode, split, subset study, ablation,
    race-free tree with tuned complexity, per-leaf disparity tests.

    Deterministic given config + seed; any stage failure is re-raised with
    the stage label.
    """
    with _stage("load"):
        digest = hashlib.sha256(Path(cfg.input_path).read_bytes()).hexdigest()
        table = load_csv(cfg.input_path, cfg.catalog)
    with _stage("filter"):
        eligible = filter_eligible(table)
    with _stage("matrix"):
        m = build_matrix(eligible, cfg.missing_policy)
    with _stage("split"):
        train, test = split(m, cfg.train_fraction, cfg.seed)
    fit_settings = cfg.fit_settings()
    k_max = min(cfg.k_max, train.p)
    with _stage("subset"):
        path = subset.subset_path(
            train, test, k_max, cfg.folds, cfg.seed, fit_settings, cfg.node_budget,
        )
    with _stage("importance"):
        importance = subset.importance_profile(path)
    with _stage("ablation"):
        # subset_path on the full columns is deterministic, so the full-model
        # AUC is the one already computed above; only the ablated run is new.
        train_nr = train.without_race()
        ablated = subset.subset_path(
            train_nr, test.without_race(), min(k_max, train_nr.p), cfg.folds,
            cfg.seed, fit_settings, cfg.node_budget,
        )
        auc_full, auc_ablated = path.test_auc, ablated.test_auc
    with _stage("tree"):
        alpha, fitted = tree_mod.tune_alpha(
            train_nr, cfg.alpha_grid, cfg.folds, cfg.seed, cfg.tree_settings(),
        )
    with _stage("disparity"):
        findings = leaf_disparity(fitted, eligible, cfg.alpha_level)
    return AuditReport(
        config=cfg,
        dataset_digest=digest,
        path=path,
        importance=importance,
        auc_full=auc_full,
        auc_ablated=auc_ablated,
        tree_alpha=alpha,
        tree=fitted,
        findings=findings,
        dropped_columns=m.dropped_columns,
    )


def findings_csv(findings) -> str:
    header = (
        "leaf,path,n_black,struck_black,n_nonblack,struck_nonblack,"
        "rate_black,rate_nonblack,p_raw,p_adjusted,significant,skipped,reason"
    )
    lines = [header]
    for f in findings:
        path = " & ".join(f.path)
        cells = [
            str(f.leaf),
            f'"{path}"',
            str(f.n_black),
            str(f.struck_black),
            str(f.n_nonblack),
            str(f.struck_nonblack),
            "" if f.rate_black is None else repr(f.rate_black),
            "" if f.rate_nonblack is None else repr(f.rate_nonblack),
            "" if f.p_raw is None else repr(f.p_raw),
            "" if f.p_adjusted is None else repr(f.p_adjusted),
            str(int(f.significant)),
            str(int(f.skipped)),
            f.reason or "",
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_outputs(report: AuditReport, outdir) -> None:
    """Emit report.json plus the fixed-name plot data files."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    )
    (out / "ofs_curve.csv").write_text(subset.curve_csv(report.path))
    (out / "importance.csv").write_text(report.importance.to_csv())
    (out / "tree.json").write_text(
        json.dumps(tree_mod.tree_to_json(report.tree), indent=2, sort_keys=True) + "\n"
    )
    (out / "disparity.csv").write_text(findings_csv(report.findings))
