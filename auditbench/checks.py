"""Correctness checks on one audit's report.json.

None of them compares against a stored digest: a legitimate tie-break fix
may change the report bytes, so digests are recorded for information only.
"""

from __future__ import annotations

# B&B is exact over supports of size <= k, so the path's training NLL cannot
# rise with k; the slack only absorbs the from-zeros refit of each winner.
NLL_SLACK = 1e-9


def _leaf_count(node: dict) -> int:
    if "leaf" in node:
        return 1
    return _leaf_count(node["left"]) + _leaf_count(node["right"])


def report_problems(report: dict, n_eligible: int) -> list[str]:
    """Broken invariants of a report, as readable lines (empty if none)."""
    problems = []
    nll = [e["train_nll"] for e in report["subset_path"]["entries"]]
    for k, (before, after) in enumerate(zip(nll, nll[1:]), start=2):
        if after > before + NLL_SLACK * max(1.0, abs(before)):
            problems.append(f"train_nll rises from k={k - 1} to k={k}: {before!r} -> {after!r}")

    findings = report["findings"]
    covered = sum(f["n_black"] + f["n_nonblack"] for f in findings)
    if covered != n_eligible:
        problems.append(f"findings cover {covered} rows, not the {n_eligible} eligible")
    leaves = _leaf_count(report["tree"]["root"])
    if len({f["leaf"] for f in findings}) != len(findings) or len(findings) != leaves:
        problems.append(f"{len(findings)} findings for a tree with {leaves} leaves")
    for f in findings:
        if f["skipped"]:
            continue
        if f["p_raw"] is None or f["p_adjusted"] is None or f["p_adjusted"] < f["p_raw"]:
            problems.append(f"leaf {f['leaf']}: p_adjusted {f['p_adjusted']} < p_raw {f['p_raw']}")

    aucs = {
        "test_auc": report["subset_path"]["test_auc"],
        "auc_full": report["ablation"]["auc_full"],
        "auc_ablated": report["ablation"]["auc_ablated"],
    }
    for name, value in aucs.items():
        if not 0.0 <= value <= 1.0:
            problems.append(f"{name} = {value} outside [0, 1]")
    return problems
