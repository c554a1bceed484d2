"""Command-line entry point: one subcommand per pipeline stage plus the
full audit. All randomness is governed by --seed; outputs are plot-ready
CSV and JSON files written under --out."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import audit as audit_mod
from . import dataset, logreg, subset, tree as tree_mod
from .errors import StrikeAuditError
from .logreg import FitSettings
from .tree import TreeSettings

USAGE_EXIT = 1
DATA_EXIT = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.exit_with(message))

    def exit_with(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return USAGE_EXIT


def _load_catalog(path) -> tuple[str, ...]:
    text = Path(path).read_text(encoding="utf-8")
    obj = json.loads(text)
    if not isinstance(obj, list) or not all(isinstance(c, str) for c in obj):
        raise StrikeAuditError(f"catalog file {path} must hold a JSON array of names")
    return tuple(obj)


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _add_common(sub):
    sub.add_argument("--input", required=True, help="juror CSV file")
    sub.add_argument("--catalog", required=True, help="JSON array of feature names")
    sub.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    sub.add_argument("--out", default="out", help="output directory (default out/)")
    sub.add_argument(
        "--missing-policy", choices=dataset.MISSING_POLICIES, default="as_no",
        help="how to encode missing voir dire answers (default as_no)",
    )


def _add_ofs_flags(sub):
    sub.add_argument("--train-fraction", type=float, default=0.7,
                     help="training share of the stratified split (default 0.7)")
    sub.add_argument("--k-max", type=int, default=20,
                     help="largest subset size to consider (default 20)")
    sub.add_argument("--folds", type=int, default=5,
                     help="cross-validation folds (default 5)")
    sub.add_argument("--ridge", type=float, default=None,
                     help="ridge strength; default 1/n")
    sub.add_argument("--budget", type=int, default=subset.DEFAULT_NODE_BUDGET,
                     help="branch-and-bound node budget")


def _add_tree_flags(sub):
    sub.add_argument("--max-depth", type=int, default=4, help="tree depth cap (default 4)")
    sub.add_argument("--min-leaf", type=int, default=10, help="minimum rows per leaf (default 10)")
    sub.add_argument("--alpha-grid", type=lambda s: tuple(float(a) for a in s.split(",")),
                     default=(0.001, 0.01, 0.1),
                     help="comma-separated complexity penalties to tune over")


def _prepared_matrix(args):
    table = dataset.load_csv(args.input, _load_catalog(args.catalog))
    eligible = dataset.filter_eligible(table)
    return eligible, dataset.build_matrix(eligible, args.missing_policy)


def _cmd_synth(args) -> int:
    cfg = dataset.SynthConfig.from_json(json.loads(Path(args.config).read_text()))
    if args.n is not None:
        cfg.n = args.n
    table = dataset.synth_generate(cfg, args.seed)
    dataset.write_csv(table, args.out)
    if args.catalog_out:
        _write_json(args.catalog_out, list(table.feature_catalog))
    print(f"wrote {len(table)} synthetic jurors to {args.out}")
    return 0


def _uncertified(path: subset.SubsetPath) -> str:
    """Summary-line suffix naming the subset sizes not certified optimal."""
    ks = [e.k for e in path.entries if not e.certified]
    return f" uncertified_k={ks}" if ks else ""


def _cmd_ofs(args) -> int:
    _, m = _prepared_matrix(args)
    train, test = dataset.split(m, args.train_fraction, args.seed)
    settings = FitSettings(ridge=args.ridge)
    path = subset.subset_path(
        train, test, min(args.k_max, train.p), args.folds, args.seed, settings, args.budget,
    )
    profile = subset.importance_profile(path)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "subset_path.json", subset.path_to_json(path))
    (out / "ofs_curve.csv").write_text(subset.curve_csv(path))
    (out / "importance.csv").write_text(profile.to_csv())
    print(f"chosen_k={path.chosen_k} test_auc={path.test_auc:.4f}{_uncertified(path)}")
    return 0


def _cmd_stepwise(args) -> int:
    _, m = _prepared_matrix(args)
    model = subset.backward_stepwise(m, thresholds=args.thresholds)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "stepwise.json", logreg.model_to_json(model, m.columns))
    survivors = [m.columns[j] for j in model.support]
    print("surviving features: " + (", ".join(survivors) if survivors else "(none)"))
    return 0


def _cmd_tree(args) -> int:
    _, m = _prepared_matrix(args)
    settings = TreeSettings(max_depth=args.max_depth, min_leaf=args.min_leaf)
    alpha, fitted = tree_mod.tune_alpha(
        m.without_race(), args.alpha_grid, args.folds, args.seed, settings,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "tree.json", tree_mod.tree_to_json(fitted))
    _write_json(out / "tree_graph.json", tree_mod.tree_to_graph(fitted))
    (out / "tree.txt").write_text(tree_mod.tree_to_text(fitted))
    print(f"alpha={alpha} leaves={fitted.n_leaves()} depth={fitted.depth}")
    print(tree_mod.tree_to_text(fitted), end="")
    return 0


def _cmd_disparity(args) -> int:
    table = dataset.load_csv(args.input, _load_catalog(args.catalog))
    eligible = dataset.filter_eligible(table)
    fitted = tree_mod.tree_from_json(json.loads(Path(args.tree).read_text()))
    findings = audit_mod.leaf_disparity(fitted, eligible, args.alpha_level)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "disparity.csv").write_text(audit_mod.findings_csv(findings))
    _write_json(out / "disparity.json", [f.to_json() for f in findings])
    for f in findings:
        where = " & ".join(f.path) or "(root)"
        if f.skipped:
            print(f"leaf {f.leaf} [{where}]: skipped ({f.reason})")
        else:
            print(
                f"leaf {f.leaf} [{where}]: black {f.struck_black}/{f.n_black} vs "
                f"non-black {f.struck_nonblack}/{f.n_nonblack}, "
                f"p={f.p_raw:.4g} adj={f.p_adjusted:.4g}"
                + (" SIGNIFICANT" if f.significant else "")
            )
    return 0


def _cmd_ablate(args) -> int:
    _, m = _prepared_matrix(args)
    train, test = dataset.split(m, args.train_fraction, args.seed)
    auc_full, auc_ablated = audit_mod.ablation_auc(
        train, test, min(args.k_max, train.p), args.folds, args.seed,
        FitSettings(ridge=args.ridge), args.budget,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "ablation.json", {"auc_full": auc_full, "auc_ablated": auc_ablated})
    print(f"auc_full={auc_full:.4f} auc_ablated={auc_ablated:.4f}")
    return 0


# Flags of the audit subcommand that set an AuditConfig field (--budget sets
# node_budget; the others share the field's name).
_AUDIT_FLAGS = (
    "seed", "missing_policy", "train_fraction", "k_max", "folds", "ridge", "budget",
    "max_depth", "min_leaf", "alpha_grid", "alpha_level",
)


def _cmd_audit(args) -> int:
    # args holds only the config flags given on the command line: they
    # override the config file, which overrides AuditConfig's defaults.
    settings = json.loads(Path(args.config).read_text()) if args.config else {}
    if not isinstance(settings, dict):
        raise StrikeAuditError(f"config file {args.config} must hold a JSON object")
    for dest in _AUDIT_FLAGS:
        if hasattr(args, dest):
            settings["node_budget" if dest == "budget" else dest] = getattr(args, dest)
    settings["input_path"] = args.input
    settings["catalog"] = _load_catalog(args.catalog)
    cfg = audit_mod.AuditConfig.from_json(settings)
    report = audit_mod.run_audit(cfg)
    audit_mod.write_outputs(report, args.out)
    flagged = [f.leaf for f in report.findings if f.significant]
    print(f"report written to {Path(args.out) / 'report.json'}")
    print(
        f"chosen_k={report.path.chosen_k} auc_full={report.auc_full:.4f} "
        f"auc_ablated={report.auc_ablated:.4f} significant_leaves={flagged}"
        f"{_uncertified(report.path)}"
    )
    return 0


def _cmd_report(args) -> int:
    obj = json.loads(Path(args.report).read_text())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    entries = obj["subset_path"]["entries"]
    lines = ["k,cv_auc_mean,cv_auc_sd"]
    lines += [f'{e["k"]},{e["cv_auc_mean"]!r},{e["cv_auc_sd"]!r}' for e in entries]
    (out / "ofs_curve.csv").write_text("\n".join(lines) + "\n")
    imp = obj["importance"]
    lines = ["k," + ",".join(imp["columns"])]
    for k, row in zip(imp["ks"], imp["values"]):
        lines.append(str(k) + "," + ",".join(repr(float(v)) for v in row))
    (out / "importance.csv").write_text("\n".join(lines) + "\n")
    fitted = tree_mod.tree_from_json(obj["tree"])
    _write_json(out / "tree.json", tree_mod.tree_to_json(fitted))
    findings = [
        audit_mod.DisparityFinding(
            leaf=f["leaf"], path=tuple(f["path"]), n_black=f["n_black"],
            struck_black=f["struck_black"], n_nonblack=f["n_nonblack"],
            struck_nonblack=f["struck_nonblack"], rate_black=f["rate_black"],
            rate_nonblack=f["rate_nonblack"], p_raw=f["p_raw"],
            p_adjusted=f["p_adjusted"], significant=f["significant"],
            skipped=f["skipped"], reason=f["reason"],
        )
        for f in obj["findings"]
    ]
    (out / "disparity.csv").write_text(audit_mod.findings_csv(findings))
    print(f"model AUC (test): {obj['subset_path']['test_auc']:.4f}")
    print(f"ablated AUC:      {obj['ablation']['auc_ablated']:.4f}")
    print("chosen model:")
    model = obj["chosen_model"]
    for name, beta in zip(model["support"], model["beta"]):
        print(f"  {name:24s} {beta:+.5f}")
    print(f"  {'intercept':24s} {model['intercept']:+.5f}")
    print("tree:")
    print(tree_mod.tree_to_text(fitted), end="")
    print("findings:")
    for f in findings:
        where = " & ".join(f.path) or "(root)"
        if f.skipped:
            print(f"  leaf {f.leaf} [{where}]: skipped ({f.reason})")
        else:
            mark = " SIGNIFICANT" if f.significant else ""
            print(
                f"  leaf {f.leaf} [{where}]: black rate "
                f"{f.rate_black:.2f} vs non-black {f.rate_nonblack:.2f} "
                f"(adj p={f.p_adjusted:.4g}){mark}"
            )
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

    ofs = commands.add_parser("ofs", help="subset-size study with CV and importance profile")
    _add_common(ofs)
    _add_ofs_flags(ofs)
    ofs.set_defaults(func=_cmd_ofs)

    stepwise = commands.add_parser("stepwise", help="backward stepwise baseline")
    _add_common(stepwise)
    stepwise.add_argument(
        "--thresholds", type=lambda s: tuple(float(t) for t in s.split(",")),
        default=(0.1, 0.05), help="p-value thresholds per pass (default 0.1,0.05)",
    )
    stepwise.set_defaults(func=_cmd_stepwise)

    tree_cmd = commands.add_parser("tree", help="fit the segmentation tree (race excluded)")
    _add_common(tree_cmd)
    _add_tree_flags(tree_cmd)
    tree_cmd.add_argument("--folds", type=int, default=5,
                          help="cross-validation folds for alpha tuning (default 5)")
    tree_cmd.set_defaults(func=_cmd_tree)

    disparity = commands.add_parser("disparity", help="per-leaf disparity tests for a saved tree")
    disparity.add_argument("--input", required=True)
    disparity.add_argument("--catalog", required=True)
    disparity.add_argument("--tree", required=True, help="tree.json from the tree subcommand")
    disparity.add_argument("--alpha-level", type=float, default=0.05)
    disparity.add_argument("--out", default="out")
    disparity.set_defaults(func=_cmd_disparity)

    ablate = commands.add_parser("ablate", help="test AUC with and without race features")
    _add_common(ablate)
    _add_ofs_flags(ablate)
    ablate.set_defaults(func=_cmd_ablate)

    audit_cmd = commands.add_parser("audit", help="run the full audit pipeline")
    _add_common(audit_cmd)
    _add_ofs_flags(audit_cmd)
    _add_tree_flags(audit_cmd)
    audit_cmd.add_argument("--alpha-level", type=float, default=0.05)
    audit_cmd.add_argument("--config", default=None,
                           help="JSON config; flags take precedence")
    # Without defaults, args holds only the config flags given on the command
    # line (set_defaults would put SUPPRESS into args as a value).
    for action in audit_cmd._actions:
        if action.dest in _AUDIT_FLAGS:
            action.default = argparse.SUPPRESS
    audit_cmd.set_defaults(func=_cmd_audit)

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
