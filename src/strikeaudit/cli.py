"""Command-line entry point: one subcommand per pipeline stage plus the
full audit. All randomness is governed by --seed; outputs are plot-ready
CSV and JSON files written under --out."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import audit as audit_mod
from . import dataset, logreg, subset, tree as tree_mod
from .audit import json_text, write_files
from .errors import StrikeAuditError, reading_document

USAGE_EXIT = 1
DATA_EXIT = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _load_catalog(path) -> tuple[str, ...]:
    text = Path(path).read_text(encoding="utf-8")
    obj = json.loads(text)
    if not isinstance(obj, list) or not all(isinstance(c, str) for c in obj):
        raise StrikeAuditError(f"catalog file {path} must hold a JSON array of names")
    return tuple(obj)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


# The flag of each AuditConfig field that one sets, in --help order: its
# option, help and argparse keywords. The field is the flag's dest, and its
# default is AuditConfig's.
_SETTINGS = {
    "missing_policy": ("--missing-policy", "how to encode missing voir dire answers",
                       dict(choices=dataset.MISSING_POLICIES)),
    "seed": ("--seed", "random seed", dict(type=int)),
    "train_fraction": ("--train-fraction", "training share of the stratified split",
                       dict(type=float)),
    "k_max": ("--k-max", "largest subset size to consider", dict(type=int)),
    "folds": ("--folds", "cross-validation folds", dict(type=int)),
    "ridge": ("--ridge", "ridge strength; default 1/n", dict(type=float)),
    "node_budget": ("--budget", "branch-and-bound node budget",
                    dict(type=int, metavar="BUDGET")),
    "max_depth": ("--max-depth", "tree depth cap", dict(type=int)),
    "min_leaf": ("--min-leaf", "minimum rows per leaf", dict(type=int)),
    "alpha_grid": ("--alpha-grid", "comma-separated complexity penalties to tune over",
                   dict(type=_floats)),
    "alpha_level": ("--alpha-level", "significance level for Holm-adjusted p-values",
                    dict(type=float)),
}
# The settings of ofs and ablate: the stratified split and the subset search.
_SEARCH = ("missing_policy", "seed", "train_fraction", "k_max", "folds", "ridge", "node_budget")


def _stage_command(commands, name: str, help: str, func, *flags) -> None:
    """Add the stage subcommand ``name``: --input, --catalog and --out, then
    ``flags`` in order. A field name adds that field's setting flag, and an
    (option, keywords) pair a flag of the command's own. A setting flag has
    no default, so args holds only the settings given on the command line,
    and _config can layer them over a config file."""
    sub = commands.add_parser(name, help=help)
    sub.add_argument("--input", required=True, help="juror CSV file")
    sub.add_argument("--catalog", required=True, help="JSON array of feature names")
    sub.add_argument("--out", default="out", help="output directory (default out/)")
    for flag in flags:
        if isinstance(flag, str):
            option, text, kwargs = _SETTINGS[flag]
            default = getattr(audit_mod.AuditConfig, flag)  # the field's default
            if default is not None:
                shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
                text = f"{text} (default {shown})"
            flag = option, dict(kwargs, dest=flag, default=argparse.SUPPRESS, help=text)
        sub.add_argument(flag[0], **flag[1])
    sub.set_defaults(func=func)


def _config(args, settings=None) -> audit_mod.AuditConfig:
    """The settings of a command: the flags given on the command line, over
    ``settings`` (a config file's object), over AuditConfig's defaults.
    AuditConfig checks every value, so a bad one is a data error."""
    given = {name: value for name, value in vars(args).items() if name in _SETTINGS}
    return audit_mod.AuditConfig.from_json({
        **(settings or {}),
        **given,
        "input_path": args.input,
        "catalog": _load_catalog(args.catalog),
    })


def _matrix(cfg: audit_mod.AuditConfig) -> dataset.FeatureMatrix:
    table = dataset.filter_eligible(dataset.load_csv(cfg.input_path, cfg.catalog))
    return dataset.build_matrix(table, cfg.missing_policy)


def _cmd_synth(args) -> int:
    cfg = dataset.SynthConfig.from_json(json.loads(Path(args.config).read_text()))
    if args.n is not None:
        cfg = replace(cfg, n=args.n)
    table = dataset.synth_generate(cfg, args.seed)
    dataset.write_csv(table, args.out)
    if args.catalog_out:
        Path(args.catalog_out).write_text(json_text(list(table.feature_catalog)))
    print(f"wrote {len(table)} synthetic jurors to {args.out}")
    return 0


def _uncertified(path_doc: dict) -> str:
    """Summary-line suffix naming the subset sizes of a path_to_json document
    not certified optimal."""
    ks = [e["k"] for e in path_doc["entries"] if not e["certified"]]
    return f" uncertified_k={ks}" if ks else ""


def _finding_line(f: dict) -> str:
    """One line for a leaf_disparity finding document."""
    where = " & ".join(f["path"]) or "(root)"
    if f["skipped"]:
        return f"leaf {f['leaf']} [{where}]: skipped ({f['reason']})"
    return (
        f"leaf {f['leaf']} [{where}]: black {f['struck_black']}/{f['n_black']} vs "
        f"non-black {f['struck_nonblack']}/{f['n_nonblack']}, "
        f"p={f['p_raw']:.4g} adj={f['p_adjusted']:.4g}"
        + (" SIGNIFICANT" if f["significant"] else "")
    )


def _cmd_ofs(args) -> int:
    cfg = _config(args)
    train, test = dataset.split(_matrix(cfg), cfg.train_fraction, cfg.seed)
    path = subset.subset_path(
        train, test, cfg.k_max, cfg.folds, cfg.seed, cfg.fit_settings(), cfg.node_budget,
    )
    path_doc = subset.path_to_json(path)
    write_files(args.out, {
        "subset_path.json": json_text(path_doc),
        "ofs_curve.csv": subset.curve_csv(path_doc),
        "importance.csv": subset.importance_csv(subset.importance_profile(path)),
    })
    print(f"chosen_k={path.chosen_k} test_auc={path.test_auc:.4f}{_uncertified(path_doc)}")
    return 0


def _cmd_stepwise(args) -> int:
    m = _matrix(_config(args))
    model = subset.backward_stepwise(m, thresholds=args.thresholds)
    write_files(args.out, {"stepwise.json": json_text(logreg.model_to_json(model, m.columns))})
    survivors = [m.columns[j] for j in model.support]
    print("surviving features: " + (", ".join(survivors) if survivors else "(none)"))
    return 0


def _cmd_tree(args) -> int:
    cfg = _config(args)
    train, _ = dataset.split(_matrix(cfg), cfg.train_fraction, cfg.seed)
    alpha, fitted = tree_mod.tune_alpha(
        train.without_race(), cfg.alpha_grid, cfg.folds, cfg.seed, cfg.tree_settings(),
    )
    text = tree_mod.tree_to_text(fitted)
    write_files(args.out, {
        "tree.json": json_text(tree_mod.tree_to_json(fitted)),
        "tree_graph.json": json_text(tree_mod.tree_to_graph(fitted)),
        "tree.txt": text,
    })
    print(f"alpha={alpha} leaves={fitted.n_leaves()} depth={fitted.depth}")
    print(text, end="")
    return 0


def _cmd_disparity(args) -> int:
    cfg = _config(args)
    eligible = dataset.filter_eligible(dataset.load_csv(cfg.input_path, cfg.catalog))
    fitted = tree_mod.tree_from_json(json.loads(Path(args.tree).read_text()))
    findings = audit_mod.leaf_disparity(fitted, eligible, cfg.alpha_level)
    write_files(args.out, {
        "disparity.csv": audit_mod.findings_csv(findings),
        "disparity.json": json_text(findings),
    })
    for f in findings:
        print(_finding_line(f))
    return 0


def _cmd_ablate(args) -> int:
    cfg = _config(args)
    train, test = dataset.split(_matrix(cfg), cfg.train_fraction, cfg.seed)
    full, ablated = subset.race_ablation(
        train, test, cfg.k_max, cfg.folds, cfg.seed, cfg.fit_settings(), cfg.node_budget,
    )
    write_files(args.out, {
        "ablation.json": json_text({"auc_full": full.test_auc, "auc_ablated": ablated.test_auc}),
    })
    print(f"auc_full={full.test_auc:.4f} auc_ablated={ablated.test_auc:.4f}")
    return 0


def _cmd_audit(args) -> int:
    settings = json.loads(Path(args.config).read_text()) if args.config else {}
    if not isinstance(settings, dict):
        raise StrikeAuditError(f"config file {args.config} must hold a JSON object")
    doc = audit_mod.run_audit(_config(args, settings))
    audit_mod.write_outputs(doc, args.out)
    path_doc, ablation = doc["subset_path"], doc["ablation"]
    flagged = [f["leaf"] for f in doc["findings"] if f["significant"]]
    print(f"report written to {Path(args.out) / 'report.json'}")
    print(
        f"chosen_k={path_doc['chosen_k']} auc_full={ablation['auc_full']:.4f} "
        f"auc_ablated={ablation['auc_ablated']:.4f} significant_leaves={flagged}"
        f"{_uncertified(path_doc)}"
    )
    return 0


def _cmd_report(args) -> int:
    doc = json.loads(Path(args.report).read_text())
    files = audit_mod.report_files(doc)
    with reading_document("report document"):
        model = doc["subset_path"]["chosen_model"]
        lines = [
            f"model AUC (test): {doc['subset_path']['test_auc']:.4f}",
            f"ablated AUC:      {doc['ablation']['auc_ablated']:.4f}",
            "chosen model:",
            *(f"  {name:24s} {beta:+.5f}" for name, beta in zip(model["support"], model["beta"])),
            f"  {'intercept':24s} {model['intercept']:+.5f}",
            "tree:",
            tree_mod.tree_to_text(tree_mod.tree_from_json(doc["tree"])).rstrip("\n"),
            "findings:",
            *("  " + _finding_line(f) for f in doc["findings"]),
        ]
    write_files(args.out, files)
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="strikeaudit", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    synth = commands.add_parser("synth", help="generate a synthetic juror CSV")
    synth.add_argument("--config", required=True, help="SynthConfig JSON file")
    synth.add_argument("--n", type=int, default=None, help="override config row count")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True, help="CSV file to write")
    synth.add_argument("--catalog-out", default=None,
                       help="also write the feature catalog as a JSON array")
    synth.set_defaults(func=_cmd_synth)

    _stage_command(commands, "ofs", "subset-size study with CV and importance profile",
                   _cmd_ofs, *_SEARCH)
    _stage_command(commands, "stepwise", "backward stepwise baseline", _cmd_stepwise,
                   "missing_policy",
                   ("--thresholds", dict(type=_floats, default=(0.1, 0.05),
                                         help="p-value thresholds per pass (default 0.1,0.05)")))
    _stage_command(commands, "tree",
                   "fit the segmentation tree (race excluded) on the training split", _cmd_tree,
                   "missing_policy", "seed", "train_fraction", "max_depth", "min_leaf",
                   "alpha_grid", "folds")
    _stage_command(commands, "disparity", "per-leaf disparity tests for a saved tree",
                   _cmd_disparity,
                   ("--tree", dict(required=True, help="tree.json from the tree subcommand")),
                   "alpha_level")
    _stage_command(commands, "ablate", "test AUC with and without race features", _cmd_ablate,
                   *_SEARCH)
    _stage_command(commands, "audit", "run the full audit pipeline", _cmd_audit, *_SETTINGS,
                   ("--config", dict(default=None, help="JSON config; flags take precedence")))

    report = commands.add_parser("report", help="render a report.json to tables and CSVs")
    report.add_argument("--report", required=True, help="path to report.json")
    report.add_argument("--out", default="out")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        return args.func(args)
    except (StrikeAuditError, ValueError, OSError) as exc:
        print(f"strikeaudit: {exc}", file=sys.stderr)
        return DATA_EXIT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
