"""End-to-end audit: subset-selection study, race ablation, tree
segmentation, and per-leaf disparity testing, assembled into one report."""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import subset, tree as tree_mod
from .dataset import (
    MISSING_POLICIES,
    RACE_FEATURE_NAMES,
    JurorTable,
    answer_matrix,
    build_matrix,
    filter_eligible,
    load_csv,
    split,
)
from .errors import (
    StageError, StrikeAuditError, UndefinedTestError, finite_real, reading_document, whole,
)
from .logreg import FitSettings
from .stats import ContingencyTable, fisher_exact, holm_adjust
from .subset import DEFAULT_NODE_BUDGET
from .tree import Tree, TreeSettings


def leaf_disparity(tree: Tree, table: JurorTable, alpha_level: float = 0.05) -> list[dict]:
    """One finding document per leaf: its black vs non-black strike counts
    and rates, Fisher p-value, and Holm-adjusted p-value over the testable
    leaves. Leaves with a degenerate margin are skipped and excluded from
    the Holm family.
    """
    if any(c in RACE_FEATURE_NAMES for c in tree.columns):
        raise StrikeAuditError("disparity testing requires a race-free tree")
    x, is_black, struck, _ = answer_matrix(table, tree.columns)
    routed = tree_mod.predict_leaves(tree, x)
    findings: list[dict] = []
    testable: list[int] = []
    raw: list[float] = []
    for leaf_id in tree.leaf_ids():
        here = routed == leaf_id
        n_black = int(np.count_nonzero(here & is_black))
        n_nonblack = int(np.count_nonzero(here & ~is_black))
        struck_black = int(np.count_nonzero(here & is_black & struck))
        struck_nonblack = int(np.count_nonzero(here & ~is_black & struck))
        finding = dict(
            leaf=leaf_id,
            path=tree_mod.describe_path(tree, leaf_id),
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
            reason=None,
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
            finding.update(skipped=True, reason="degenerate margin")
        else:
            finding["p_raw"] = p
            testable.append(len(findings))
            raw.append(p)
        findings.append(finding)
    if raw:
        adjusted = holm_adjust(raw)
        for idx, p_adj in zip(testable, adjusted):
            findings[idx].update(p_adjusted=float(p_adj), significant=bool(p_adj < alpha_level))
    return findings


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
    node_budget: int = DEFAULT_NODE_BUDGET
    max_depth: int = TreeSettings.max_depth
    min_leaf: int = TreeSettings.min_leaf
    alpha_grid: tuple[float, ...] = (0.001, 0.01, 0.1)
    alpha_level: float = 0.05

    def __post_init__(self):
        # Checked once here, so that a malformed config file is a data error
        # and not a TypeError from deep inside a stage.
        def listed(v, item):
            return isinstance(v, (list, tuple)) and all(map(item, v))

        rules = [
            ("input_path", isinstance(self.input_path, (str, Path)), "a path"),
            ("catalog", listed(self.catalog, lambda c: isinstance(c, str)), "a list of names"),
            ("train_fraction", finite_real(self.train_fraction) and 0 < self.train_fraction < 1,
             "a number in (0, 1)"),
            ("missing_policy", self.missing_policy in MISSING_POLICIES,
             f"one of {', '.join(MISSING_POLICIES)}"),
            ("alpha_grid", listed(self.alpha_grid, lambda a: finite_real(a) and a >= 0)
             and len(self.alpha_grid) > 0, "a non-empty list of finite numbers >= 0"),
            ("alpha_level", finite_real(self.alpha_level) and 0 < self.alpha_level < 1,
             "a number in (0, 1)"),
        ]
        for name, low in (("seed", 0), ("k_max", 1), ("folds", 2), ("node_budget", 1)):
            rules.append((name, whole(getattr(self, name), low), f"an integer >= {low}"))
        for name, ok, want in rules:
            if not ok:
                raise StrikeAuditError(
                    f"audit config {name} must be {want}, got {getattr(self, name)!r}"
                )
        # ridge, max_depth and min_leaf are checked by the settings they feed.
        try:
            self.fit_settings()
            self.tree_settings()
        except ValueError as exc:
            raise StrikeAuditError(f"audit config {exc}") from None
        self.catalog = tuple(self.catalog)
        self.alpha_grid = tuple(self.alpha_grid)

    def fit_settings(self) -> FitSettings:
        return FitSettings(ridge=self.ridge)

    def tree_settings(self) -> TreeSettings:
        return TreeSettings(max_depth=self.max_depth, min_leaf=self.min_leaf)

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


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def run_audit(cfg: AuditConfig) -> dict:
    """Full pipeline: load, filter, encode, split, subset study with its race
    ablation (one stage), race-free tree with tuned complexity, per-leaf
    disparity tests. Returns the report.json document.

    Deterministic given config + seed; any stage failure is re-raised with
    the stage label.
    """
    with _stage("load"):
        data = Path(cfg.input_path).read_bytes()  # read once: the input may be a pipe
        digest = hashlib.sha256(data).hexdigest()
        table = load_csv(io.BytesIO(data), cfg.catalog)
        del data  # not held through the audit
    with _stage("filter"):
        eligible = filter_eligible(table)
        del table  # only the eligible rows are used from here on
    with _stage("matrix"):
        m = build_matrix(eligible, cfg.missing_policy)
    with _stage("split"):
        train, test = split(m, cfg.train_fraction, cfg.seed)
    with _stage("subset"):
        # The race ablation's second search reuses the first one's fits.
        path, ablated = subset.race_ablation(
            train, test, cfg.k_max, cfg.folds, cfg.seed, cfg.fit_settings(), cfg.node_budget,
        )
    with _stage("tree"):
        alpha, fitted = tree_mod.tune_alpha(
            train.without_race(), cfg.alpha_grid, cfg.folds, cfg.seed, cfg.tree_settings(),
        )
    with _stage("disparity"):
        findings = leaf_disparity(fitted, eligible, cfg.alpha_level)
    return {
        "provenance": {"settings": cfg.to_json(), "dataset_digest": digest},
        "dropped_columns": list(m.dropped_columns),
        "subset_path": subset.path_to_json(path),
        "importance": subset.importance_profile(path),
        "ablation": {
            "auc_full": path.test_auc,
            "auc_ablated": ablated.test_auc,
            "search": asdict(ablated.search),
        },
        "tree": {"alpha": alpha, **tree_mod.tree_to_json(fitted)},
        "findings": findings,
    }


def findings_csv(findings: list[dict]) -> str:
    """leaf_disparity's finding documents, one row per leaf."""
    header = (
        "leaf,path,n_black,struck_black,n_nonblack,struck_nonblack,"
        "rate_black,rate_nonblack,p_raw,p_adjusted,significant,skipped,reason"
    )
    lines = [header]
    for f in findings:
        path = " & ".join(f["path"]).replace('"', '""')
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
    """The plot data files derived from a report.json document, by name; a
    missing key is a SchemaError."""
    with reading_document("report document"):
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


def write_outputs(doc: dict, outdir) -> None:
    """Emit the report.json document plus the fixed-name files rendered from it."""
    write_files(outdir, {"report.json": json_text(doc), **report_files(doc)})
