"""End-to-end audit: subset-selection study, race ablation, tree
segmentation, and per-leaf disparity testing, assembled into one report."""

from __future__ import annotations

import hashlib
import json
import numbers
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import logreg, stats, subset, tree as tree_mod
from .dataset import (
    MISSING_POLICIES,
    RACE_FEATURE_NAMES,
    FeatureMatrix,
    JurorTable,
    answer_matrix,
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
        return {**asdict(self), "path": list(self.path)}

    @classmethod
    def from_json(cls, obj: dict) -> "DisparityFinding":
        return cls(**{**obj, "path": tuple(obj["path"])})


def leaf_disparity(tree: Tree, table: JurorTable, alpha_level: float = 0.05) -> list[DisparityFinding]:
    """Fisher-test every leaf's black vs non-black strike rates; adjust the
    testable leaves jointly with Holm. Leaves with a degenerate margin are
    skipped and excluded from the Holm family.
    """
    if any(c in RACE_FEATURE_NAMES for c in tree.columns):
        raise StrikeAuditError("disparity testing requires a race-free tree")
    x, is_black, struck, _ = answer_matrix(table, tree.columns)
    routed = tree_mod.predict_leaves(tree, x)
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
    ablated = _ablated_path(train, test, k_max, folds, seed, settings, budget)
    return full.test_auc, ablated.test_auc


def _ablated_path(train, test, k_max, folds, seed, settings, budget) -> SubsetPath:
    """The subset path with the race columns removed, same folds and seed."""
    train_nr = train.without_race()
    return subset.subset_path(
        train_nr, test.without_race(), min(k_max, train_nr.p), folds, seed, settings, budget,
    )


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
        required = [f.name for f in fields(cls) if f.default is MISSING and f.name not in obj]
        if required:
            raise StrikeAuditError(
                f"audit config is missing required key(s): {', '.join(map(repr, required))}"
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
            "importance": self.importance.to_json(),
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
        ablated = _ablated_path(
            train, test, k_max, cfg.folds, cfg.seed, fit_settings, cfg.node_budget,
        )
    with _stage("tree"):
        alpha, fitted = tree_mod.tune_alpha(
            train.without_race(), cfg.alpha_grid, cfg.folds, cfg.seed, cfg.tree_settings(),
        )
    with _stage("disparity"):
        findings = leaf_disparity(fitted, eligible, cfg.alpha_level)
    return AuditReport(
        config=cfg,
        dataset_digest=digest,
        path=path,
        importance=importance,
        auc_full=path.test_auc,
        auc_ablated=ablated.test_auc,
        tree_alpha=alpha,
        tree=fitted,
        findings=findings,
        dropped_columns=m.dropped_columns,
    )


def findings_csv(findings: list[dict]) -> str:
    """DisparityFinding.to_json documents, one row per leaf."""
    header = (
        "leaf,path,n_black,struck_black,n_nonblack,struck_nonblack,"
        "rate_black,rate_nonblack,p_raw,p_adjusted,significant,skipped,reason"
    )
    lines = [header]
    for f in findings:
        path = " & ".join(f["path"])
        cells = [
            str(f["leaf"]),
            f'"{path}"',
            *(str(f[key]) for key in ("n_black", "struck_black", "n_nonblack", "struck_nonblack")),
            *("" if f[key] is None else repr(f[key])
              for key in ("rate_black", "rate_nonblack", "p_raw", "p_adjusted")),
            str(int(f["significant"])),
            str(int(f["skipped"])),
            f["reason"] or "",
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def json_text(obj) -> str:
    """The one JSON layout of every file written: sorted keys, 2-space indent."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def report_files(doc: dict) -> dict[str, str]:
    """The plot data files derived from a report.json document, by name."""
    return {
        "ofs_curve.csv": subset.curve_csv(doc["subset_path"]),
        "importance.csv": subset.importance_csv(doc["importance"]),
        "tree.json": json_text({k: v for k, v in doc["tree"].items() if k != "alpha"}),
        "disparity.csv": findings_csv(doc["findings"]),
    }


def write_files(outdir, files: dict[str, str]) -> None:
    """Write each named text into outdir, creating it if needed."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)


def write_outputs(report: AuditReport, outdir) -> None:
    """Emit report.json plus the fixed-name files rendered from it."""
    doc = report.to_json()
    write_files(outdir, {"report.json": json_text(doc), **report_files(doc)})
