"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (bypassing pytest capture) so a plain
`pytest tests/test_acceptance.py` run shows the per-criterion verdicts.
"""

import json
import math
import os
import sys
import time
from math import comb

import numpy as np
import pytest

from strikeaudit import logreg
from strikeaudit.audit import (
    AuditConfig,
    leaf_disparity,
    run_audit,
    write_outputs,
)
from strikeaudit.dataset import FeatureMatrix, build_matrix, split, synth_generate, write_csv
from strikeaudit.logreg import FitSettings
from strikeaudit.stats import ContingencyTable, auc, fisher_exact, holm_adjust
from strikeaudit.subset import backward_stepwise, best_subset, race_ablation, subset_path
from strikeaudit.tree import TreeSettings, describe_path, fit_tree, predict_leaves

from conftest import random_binary_matrix
from oracles import (
    auc_pairwise_outer,
    central_difference_gradient,
    enumerate_best_subset,
    enumerate_trees_best_objective,
    gradient,
    holm_by_hand,
    nll,
    roc_points,
)
from test_audit import disparity_audit_config
from test_dataset import paper_shaped_config
from test_tree import tree_objective


def report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"[{verdict}] criterion {num:>2}: {name}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_01_fisher_exact_oracle():
    """Exhaustive sweep of all 2x2 tables with total <= 40 against
    rational-arithmetic enumeration, tolerance 1e-12."""
    start = time.time()
    slack_num, slack_den = 10**7 + 1, 10**7
    worst = 0.0
    checked = 0
    for n in range(2, 41):
        for r1 in range(1, n):
            r2 = n - r1
            for c1 in range(1, n):
                c2 = n - c1
                lo = max(0, c1 - r2)
                hi = min(r1, c1)
                # exact integer point masses: comb(r1, x) * comb(r2, c1 - x)
                nums = np.array(
                    [comb(r1, x) * comb(r2, c1 - x) for x in range(lo, hi + 1)],
                    dtype=np.int64,
                )
                denom = comb(n, c1)
                for i, a in enumerate(range(lo, hi + 1)):
                    expected = int(nums[nums * slack_den <= nums[i] * slack_num].sum()) / denom
                    table = ContingencyTable(a, r1 - a, c1 - a, r2 - (c1 - a))
                    worst = max(worst, abs(fisher_exact(table) - expected))
                    checked += 1
    elapsed = time.time() - start
    report(
        1, "Fisher exact matches rational enumeration (all totals <= 40)",
        worst <= 1e-12 and elapsed < 30.0,
        f"{checked} tables, max err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_holm_correctness():
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(400):
        m = int(rng.integers(1, 51))
        p = np.round(rng.random(m), 3)
        adjusted = holm_adjust(p)
        ok &= bool(np.all(adjusted >= p - 1e-15))
        order = np.argsort(p, kind="mergesort")
        ok &= bool(np.all(np.diff(adjusted[order]) >= -1e-15))
        ok &= np.allclose(adjusted, holm_by_hand(p.tolist()), atol=1e-12)
        const = float(rng.random())
        ok &= np.allclose(holm_adjust([const] * m), min(1.0, m * const), atol=1e-12)
    worked = holm_adjust([0.01, 0.04, 0.03])
    ok &= bool(np.max(np.abs(worked - np.array([0.03, 0.06, 0.06]))) <= 1e-15)
    report(2, "Holm adjustment properties and worked example", ok)


def test_criterion_03_auc_oracle():
    rng = np.random.default_rng(77)
    worst_auc = worst_roc = 0.0
    done = 0
    while done < 1000:
        n = int(rng.integers(2, 201))
        # coarse score alphabet forces ties
        scores = np.round(rng.random(n), int(rng.integers(1, 3)))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            continue
        got = auc(scores, labels)
        worst_auc = max(worst_auc, abs(got - auc_pairwise_outer(scores, labels)))
        worst_roc = max(worst_roc, abs(roc_points(scores, labels).auc - got))
        done += 1
    report(
        3, "AUC matches O(n^2) pairwise oracle; ROC trapezoid matches AUC",
        worst_auc <= 1e-12 and worst_roc <= 1e-12,
        f"max errs {worst_auc:.2e} / {worst_roc:.2e}",
    )


def test_criterion_04_logistic_fit():
    rng = np.random.default_rng(41)
    worst_grad = 0.0
    for instance in range(50):
        p = int(rng.integers(1, 5))
        m = random_binary_matrix(instance + 7000, int(rng.integers(30, 90)), p)
        support = tuple(range(p))
        ridge = float(rng.random())
        for _ in range(20):
            theta = rng.normal(0.0, 1.5, p + 1)
            model = logreg.LogisticModel(
                support=support, beta=theta[1:], intercept=float(theta[0]),
                ridge=ridge, diagnostics=logreg.FitDiagnostics(0, 0, True, 0),
            )

            def f(t):
                trial = logreg.LogisticModel(
                    support=support, beta=t[1:], intercept=float(t[0]),
                    ridge=ridge, diagnostics=logreg.FitDiagnostics(0, 0, True, 0),
                )
                return nll(trial, m)

            fd = central_difference_gradient(f, theta)
            worst_grad = max(worst_grad, float(np.max(np.abs(gradient(model, m) - fd))))
    grad_ok = worst_grad <= 1e-6

    x = np.random.default_rng(1).integers(0, 2, (64, 2)).astype(float)
    balanced = FeatureMatrix(x=x, columns=("a", "b"), y=np.array([0, 1] * 32))
    m_balanced = logreg.fit(balanced, (), FitSettings(ridge=0.0))
    quarter = FeatureMatrix(x=x, columns=("a", "b"), y=np.array([1] * 16 + [0] * 48))
    m_quarter = logreg.fit(quarter, (), FitSettings(ridge=0.0))
    closed_ok = (
        abs(m_balanced.intercept) <= 1e-8
        and abs(m_quarter.intercept - math.log(1 / 3)) <= 1e-8
    )

    from scipy import optimize

    sep_ok = True
    for cols in (1, 2):
        n = 60
        x = np.zeros((n, cols))
        x[: n // 2, 0] = 1.0
        if cols == 2:
            x[:, 1] = np.random.default_rng(3).integers(0, 2, n)
        y = np.zeros(n, dtype=int)
        y[: n // 2] = 1
        m_sep = FeatureMatrix(x=x, columns=tuple("sf"[:cols]), y=y)
        model = logreg.fit(m_sep, tuple(range(cols)), FitSettings(ridge=1e-3))
        sep_ok &= model.diagnostics.converged and bool(np.isfinite(model.beta).all())

        def objective(theta, m_sep=m_sep, cols=cols):
            trial = logreg.LogisticModel(
                support=tuple(range(cols)), beta=theta[1:], intercept=float(theta[0]),
                ridge=1e-3, diagnostics=logreg.FitDiagnostics(0, 0, True, 0),
            )
            return nll(trial, m_sep)

        result = optimize.minimize(
            objective, np.zeros(cols + 1), method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 50000, "maxfev": 50000},
        )
        sep_ok &= abs(model.diagnostics.final_nll - result.fun) <= 1e-8
    report(
        4, "logistic gradient/closed forms/separable-vs-convex-oracle",
        grad_ok and closed_ok and sep_ok,
        f"max grad err {worst_grad:.2e}",
    )


def test_criterion_05_best_subset_exactness():
    start = time.time()
    rng = np.random.default_rng(505)
    ok = True
    worst = 0.0
    for instance in range(50):
        p = int(rng.integers(5, 13))
        k = int(rng.integers(1, min(6, p) + 1))
        n = int(rng.integers(50, 120))
        planted = {int(j): float(rng.normal(0, 1.5)) for j in rng.choice(p, 2, replace=False)}
        m = random_binary_matrix(instance + 3000, n, p, signal=planted)
        settings = FitSettings()
        result = best_subset(m, k, settings)
        _, expected = enumerate_best_subset(m, k, settings)
        ok &= result.certified_optimal
        worst = max(worst, abs(result.model.diagnostics.final_nll - expected))
    elapsed = time.time() - start
    report(
        5, "branch-and-bound equals exhaustive enumeration (p <= 12, k <= 6)",
        ok and worst <= 1e-6 and elapsed < 120.0,
        f"max gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_06_subset_path_recovery():
    hits = 0
    for seed in range(20):
        m = random_binary_matrix(
            seed, 3000, 15, signal={0: 2.0, 1: 2.0, 2: 2.0}, intercept=-1.5
        )
        train, test = split(m, 0.7, seed)
        path = subset_path(train, test, k_max=5, folds=5, seed=seed)
        chosen = path.models[path.chosen_k - 1]
        hits += path.chosen_k in (3, 4, 5) and {0, 1, 2} <= set(chosen.support)
    report(
        6, "CV subset path recovers a planted size-3 support (n=3000, p=15)",
        hits >= 18, f"{hits}/20 seeds",
    )


def test_criterion_07_stepwise_baseline():
    m_strong = random_binary_matrix(
        77, 2000, 3, signal={0: 2.0, 1: -1.5, 2: 1.0}, intercept=-0.2
    )
    identity_ok = backward_stepwise(m_strong).support == (0, 1, 2)

    removed = 0
    for seed in range(20):
        m = random_binary_matrix(
            seed + 600, 3000, 6, signal={j: 1.5 for j in range(5)}, intercept=-2.0
        )
        model = backward_stepwise(m)
        removed += 5 not in model.support
    report(
        7, "backward stepwise removes the planted-noise feature",
        identity_ok and removed >= 18, f"{removed}/20 removed, identity {identity_ok}",
    )


def test_criterion_08_tree_recovery():
    expected_paths = sorted([
        ("accused = yes",),
        ("accused = no", "know_def = yes"),
        ("accused = no", "know_def = no", "fam_accused = yes"),
        ("accused = no", "know_def = no", "fam_accused = no", "death_hesitation = yes"),
        ("accused = no", "know_def = no", "fam_accused = no", "death_hesitation = no"),
    ])
    target_rate = {
        ("accused = yes",): 0.93,
        ("accused = no", "know_def = yes"): 0.65,
        ("accused = no", "know_def = no", "fam_accused = yes"): 0.56,
        ("accused = no", "know_def = no", "fam_accused = no", "death_hesitation = yes"): 1.0,
        ("accused = no", "know_def = no", "fam_accused = no", "death_hesitation = no"): 0.17,
    }
    cfg = paper_shaped_config(5000)
    hits = 0
    for seed in range(20):
        table = synth_generate(cfg, seed=seed)
        m = build_matrix(table).without_race()
        tree = fit_tree(m, TreeSettings(max_depth=4, alpha=0.01, min_leaf=10))
        paths = sorted(tuple(describe_path(tree, l)) for l in tree.leaf_ids())
        if paths != expected_paths:
            continue
        if all(
            abs(tree.nodes[l].p_strike - target_rate[tuple(describe_path(tree, l))]) <= 0.05
            for l in tree.leaf_ids()
        ):
            hits += 1
    structure_ok = hits >= 16

    exhaustive_ok = True
    rng = np.random.default_rng(88)
    for instance in range(10):
        p = int(rng.integers(2, 9))
        n = int(rng.integers(80, 220))
        x = (rng.random((n, p)) < 0.5).astype(float)
        rates = 0.25 + 0.5 * x[:, 0] * (1 - x[:, p - 1])
        y = (rng.random(n) < rates).astype(int)
        m = FeatureMatrix(x=x, columns=tuple(f"q{j}" for j in range(p)), y=y)
        for depth in (2, 3):
            tree = fit_tree(m, TreeSettings(max_depth=depth, alpha=0.02, min_leaf=5))
            best = enumerate_trees_best_objective(x, y, depth, 5, 0.02)
            exhaustive_ok &= abs(tree_objective(tree, 0.02) - best) <= 1e-12
    report(
        8, "tree recovery of the published 5-leaf segmentation + exhaustive equality",
        structure_ok and exhaustive_ok,
        f"{hits}/20 recovered, exhaustive {'ok' if exhaustive_ok else 'FAIL'}",
    )


def test_criterion_09_disparity_power_and_calibration():
    node4_rates = {
        "accused_yes": (0.93, 0.93),
        "knows_def": (0.85, 0.20),
        "fam_accused_yes": (0.56, 0.56),
        "death_hesitant": (1.0, 1.0),
        "remainder": (0.17, 0.17),
    }
    power = 0
    for seed in range(20):
        cfg = paper_shaped_config(4000, rates=node4_rates, black_fraction=0.7)
        table = synth_generate(cfg, seed=seed + 50)
        m = build_matrix(table)
        tree = fit_tree(m.without_race(), TreeSettings())
        findings = leaf_disparity(tree, table, alpha_level=0.05)
        node4_row = [1.0 if c == "know_def" else 0.0 for c in tree.columns]
        leaf_id = predict_leaves(tree, np.array([node4_row]))[0]
        power += bool(next(f for f in findings if f["leaf"] == leaf_id)["significant"])

    null_clean = 0
    for seed in range(20):
        cfg = paper_shaped_config(4000, black_fraction=0.5)
        table = synth_generate(cfg, seed=seed + 300)
        m = build_matrix(table)
        tree = fit_tree(m.without_race(), TreeSettings())
        findings = leaf_disparity(tree, table, alpha_level=0.05)
        null_clean += not any(f["significant"] for f in findings)
    report(
        9, "planted 85%-vs-20% leaf flagged after Holm; null stays clean",
        power >= 18 and null_clean >= 18,
        f"power {power}/20, null {null_clean}/20",
    )


def test_criterion_10_ablation_direction():
    rng = np.random.default_rng(10)
    n = 3000
    is_black = (rng.random(n) < 0.5).astype(float)
    noise = (rng.random((n, 5)) < 0.5).astype(float)
    x = np.column_stack([is_black, noise])
    y = (rng.random(n) < np.where(is_black == 1.0, 0.8, 0.1)).astype(int)
    m = FeatureMatrix(
        x=x, columns=("is_black", "q0", "q1", "q2", "q3", "q4"), y=y,
        race_columns=frozenset({0}),
    )
    train, test = split(m, 0.7, 0)
    full, ablated = race_ablation(train, test, k_max=3, folds=3, seed=0)
    auc_full, auc_ablated = full.test_auc, ablated.test_auc
    race_only_ok = auc_full >= 0.70 and auc_ablated <= 0.55

    diffs = []
    for seed in range(20):
        r = np.random.default_rng(seed + 900)
        x = (r.random((n, 6)) < 0.5).astype(float)
        eta = -1.0 + 2.0 * x[:, 1] + 1.5 * x[:, 3]
        y = (r.random(n) < 1 / (1 + np.exp(-eta))).astype(int)
        m = FeatureMatrix(
            x=x, columns=("is_black", "a", "b", "c", "d", "e"), y=y,
            race_columns=frozenset({0}),
        )
        train, test = split(m, 0.7, seed)
        full, ablated = race_ablation(train, test, k_max=3, folds=3, seed=seed)
        diffs.append(abs(full.test_auc - ablated.test_auc))
    irrelevant_ok = float(np.mean(diffs)) <= 0.02
    report(
        10, "race ablation collapses race-only AUC, preserves race-free AUC",
        race_only_ok and irrelevant_ok,
        f"race-only {auc_full:.3f}->{auc_ablated:.3f}, mean |diff| {np.mean(diffs):.4f}",
    )


def test_criterion_11_end_to_end_determinism(tmp_path):
    cfg = disparity_audit_config(tmp_path, seed=17, n=1000)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    write_outputs(run_audit(cfg), out_a)
    write_outputs(run_audit(cfg), out_b)
    identical = (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    report(11, "identical config + seed produce byte-identical report.json", identical)


def test_criterion_12_external_court_records():
    """Optional external check against the published court-records dataset.

    Runs only when STRIKEAUDIT_COURT_DATA (CSV) and STRIKEAUDIT_COURT_CATALOG
    (JSON array) point at a local copy; the dataset is not shipped."""
    data = os.environ.get("STRIKEAUDIT_COURT_DATA")
    catalog_path = os.environ.get("STRIKEAUDIT_COURT_CATALOG")
    if not data or not catalog_path:
        print(
            "[SKIP] criterion 12: external court-records dataset not supplied",
            file=sys.__stdout__, flush=True,
        )
        pytest.skip("external dataset not supplied")
    catalog = tuple(json.loads(open(catalog_path).read()))
    cfg = AuditConfig(input_path=data, catalog=catalog, seed=0)
    report_obj = run_audit(cfg)
    stepwise_model = backward_stepwise(
        build_matrix(
            __import__("strikeaudit.dataset", fromlist=["filter_eligible"]).filter_eligible(
                __import__("strikeaudit.dataset", fromlist=["load_csv"]).load_csv(data, catalog)
            )
        )
    )
    survivors = {
        report_obj["importance"]["columns"][j] for j in stepwise_model.support
    }
    expected_survivors = {
        "is_black", "accused", "fam_accused", "fam_law_enforcement",
        "death_hesitation", "know_def", "same_race",
    }
    ok = (
        abs(report_obj["subset_path"]["chosen_k"] - 11) <= 2
        and abs(report_obj["subset_path"]["test_auc"] - 0.815) <= 0.03
        and abs(report_obj["ablation"]["auc_ablated"] - 0.672) <= 0.03
        and survivors == expected_survivors
    )
    report(12, "published dataset reproduces headline numbers", ok)
