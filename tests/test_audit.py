import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strikeaudit.audit import (
    AuditConfig,
    DisparityFinding,
    ablation_auc,
    findings_csv,
    leaf_disparity,
    run_audit,
    write_outputs,
)
from strikeaudit.dataset import (
    FeatureMatrix,
    JurorRecord,
    JurorTable,
    split,
    synth_generate,
    write_csv,
)
from strikeaudit.errors import SchemaError, StageError, StrikeAuditError
from strikeaudit.tree import tree_from_json

from oracles import fisher_two_sided_exact
from test_dataset import paper_shaped_config
from test_tree import paper_tree

TREE_FEATURES = ("accused", "know_def", "fam_accused", "death_hesitation")


def records_for_leaf(prefix, answers, n_black, struck_black, n_nonblack, struck_nonblack):
    """Jurors that all route to one leaf of the paper tree."""
    out = []
    for i in range(n_black):
        out.append(JurorRecord(
            trial_id="t1", juror_id=f"{prefix}b{i}", is_black=True,
            struck_by_state=i < struck_black, eligible=True, answers=dict(answers),
        ))
    for i in range(n_nonblack):
        out.append(JurorRecord(
            trial_id="t1", juror_id=f"{prefix}n{i}", is_black=False,
            struck_by_state=i < struck_nonblack, eligible=True, answers=dict(answers),
        ))
    return out


LEAF_ANSWERS = {
    "accused_yes": {"accused": True, "know_def": False, "fam_accused": False, "death_hesitation": False},
    "knows_def": {"accused": False, "know_def": True, "fam_accused": False, "death_hesitation": False},
    "fam_accused_yes": {"accused": False, "know_def": False, "fam_accused": True, "death_hesitation": False},
    "death_hesitant": {"accused": False, "know_def": False, "fam_accused": False, "death_hesitation": True},
    "remainder": {"accused": False, "know_def": False, "fam_accused": False, "death_hesitation": False},
}


def five_leaf_table(knows_def_counts=(20, 17, 40, 8), null_counts=(10, 5, 20, 10)):
    records = []
    for leaf, answers in LEAF_ANSWERS.items():
        counts = knows_def_counts if leaf == "knows_def" else null_counts
        records.extend(records_for_leaf(leaf, answers, *counts))
    return JurorTable(records=records, feature_catalog=TREE_FEATURES)


class TestLeafDisparity:
    def test_identical_rates_give_p_one(self):
        # a leaf at 5/10 black vs 10/20 non-black shows no association
        table = five_leaf_table(knows_def_counts=(10, 5, 20, 10))
        findings = leaf_disparity(paper_tree(), table)
        assert len(findings) == 5
        for f in findings:
            assert not f.skipped
            assert f.p_raw == pytest.approx(1.0, abs=1e-12)
            assert not f.significant

    def test_planted_node4_disparity_significant(self):
        # black 17/20 struck vs non-black 8/40: 85% vs 20%
        table = five_leaf_table()
        findings = leaf_disparity(paper_tree(), table, alpha_level=0.05)
        by_path = {f.path: f for f in findings}
        node4 = by_path[("accused = no", "know_def = yes")]
        assert node4.rate_black == pytest.approx(0.85)
        assert node4.rate_nonblack == pytest.approx(0.20)
        expected_p = float(fisher_two_sided_exact(17, 3, 8, 32))
        assert node4.p_raw == pytest.approx(expected_p, abs=1e-12)
        # Holm across the 5 testable leaves keeps it significant
        assert node4.p_adjusted == pytest.approx(min(1.0, 5 * expected_p), abs=1e-9)
        assert node4.significant
        others = [f for f in findings if f.path != node4.path]
        assert not any(f.significant for f in others)

    def test_single_race_leaf_is_skipped(self):
        records = []
        for leaf, answers in LEAF_ANSWERS.items():
            if leaf == "remainder":
                records.extend(records_for_leaf(leaf, answers, 15, 5, 0, 0))
            else:
                records.extend(records_for_leaf(leaf, answers, 10, 5, 20, 10))
        table = JurorTable(records=records, feature_catalog=TREE_FEATURES)
        findings = leaf_disparity(paper_tree(), table)
        flagged = [f for f in findings if f.skipped]
        assert len(flagged) == 1
        assert flagged[0].reason == "degenerate margin"
        assert flagged[0].p_adjusted is None
        assert not flagged[0].significant
        # the Holm family is only the testable leaves
        testable = [f for f in findings if not f.skipped]
        assert all(f.p_adjusted >= f.p_raw - 1e-15 for f in testable)

    def test_findings_partition_the_table(self):
        table = five_leaf_table()
        findings = leaf_disparity(paper_tree(), table)
        assert sum(f.n_black + f.n_nonblack for f in findings) == len(table.records)

    def test_missing_answers_route_as_no(self):
        records = records_for_leaf("x", {"accused": None, "know_def": None,
                                         "fam_accused": None, "death_hesitation": None},
                                   10, 5, 12, 6)
        table = JurorTable(records=records, feature_catalog=TREE_FEATURES)
        findings = leaf_disparity(paper_tree(), table)
        remainder = {f.path: f for f in findings}[
            ("accused = no", "know_def = no", "fam_accused = no", "death_hesitation = no")
        ]
        assert remainder.n_black + remainder.n_nonblack == 22

    def test_tree_column_outside_catalog_rejected(self):
        # Without the check every juror reads know_def = no: the biased leaf
        # goes untested and its jurors inflate the know_def = no branch.
        catalog = tuple(c for c in TREE_FEATURES if c != "know_def")
        records = [replace(r, answers={c: r.answers[c] for c in catalog})
                   for r in five_leaf_table().records]
        with pytest.raises(SchemaError, match="know_def"):
            leaf_disparity(paper_tree(), JurorTable(records=records, feature_catalog=catalog))

    def test_json_round_trip(self):
        # no non-black juror in the remainder leaf, so its test is skipped
        records = [r for r in five_leaf_table().records if not r.juror_id.startswith("remaindern")]
        table = JurorTable(records=records, feature_catalog=TREE_FEATURES)
        findings = leaf_disparity(paper_tree(), table)
        assert any(f.skipped for f in findings) and any(f.significant for f in findings)
        for f in findings:
            assert DisparityFinding.from_json(json.loads(json.dumps(f.to_json()))) == f

    def test_csv_rendering(self):
        table = five_leaf_table()
        findings = leaf_disparity(paper_tree(), table)
        text = findings_csv([f.to_json() for f in findings])
        lines = text.strip().splitlines()
        assert lines[0].startswith("leaf,path,")
        assert len(lines) == 1 + len(findings)


class TestDisparityProperties:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 80))
    @settings(max_examples=50, deadline=None)
    def test_findings_partition_rows_and_ignore_record_order(self, seed, n):
        rng = np.random.default_rng(seed)
        records = [
            JurorRecord(
                trial_id="t1", juror_id=f"j{i}", is_black=bool(rng.random() < 0.5),
                struck_by_state=bool(rng.random() < 0.4), eligible=True,
                answers={c: (None, False, True)[rng.integers(3)] for c in TREE_FEATURES},
            )
            for i in range(n)
        ]
        findings = leaf_disparity(paper_tree(), JurorTable(records, TREE_FEATURES))
        # Each juror is counted in the one leaf whose path it satisfies, with
        # a missing answer read as no.
        for f in findings:
            conditions = [c.split(" = ") for c in f.path]
            here = [r for r in records
                    if all(bool(r.answers[name]) == (value == "yes") for name, value in conditions)]
            black = [r for r in here if r.is_black]
            assert (f.n_black, f.n_nonblack) == (len(black), len(here) - len(black))
            assert f.struck_black == sum(r.struck_by_state for r in black)
            assert f.struck_nonblack == sum(r.struck_by_state for r in here) - f.struck_black
        assert sum(f.n_black + f.n_nonblack for f in findings) == n
        shuffled = [records[i] for i in rng.permutation(n)]
        assert leaf_disparity(paper_tree(), JurorTable(shuffled, TREE_FEATURES)) == findings


def race_only_matrix(seed, n=3000, p_noise=5):
    rng = np.random.default_rng(seed)
    is_black = (rng.random(n) < 0.5).astype(float)
    noise = (rng.random((n, p_noise)) < 0.5).astype(float)
    x = np.column_stack([is_black, noise])
    rates = np.where(is_black == 1.0, 0.8, 0.1)
    y = (rng.random(n) < rates).astype(int)
    return FeatureMatrix(
        x=x,
        columns=("is_black",) + tuple(f"q{j}" for j in range(p_noise)),
        y=y,
        race_columns=frozenset({0}),
    )


class TestAblation:
    def test_race_only_outcome_collapses_without_race(self):
        m = race_only_matrix(0)
        train, test = split(m, 0.7, 0)
        auc_full, auc_ablated = ablation_auc(train, test, k_max=3, folds=3, seed=1)
        assert auc_full >= 0.70
        assert auc_ablated <= 0.55

    def test_race_irrelevant_outcome_keeps_auc(self):
        rng = np.random.default_rng(5)
        n = 2000
        x = (rng.random((n, 5)) < 0.5).astype(float)
        eta = -1.0 + 2.0 * x[:, 1] + 1.5 * x[:, 2]
        y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(int)
        m = FeatureMatrix(x=x, columns=("is_black", "a", "b", "c", "d"), y=y,
                          race_columns=frozenset({0}))
        train, test = split(m, 0.7, 0)
        auc_full, auc_ablated = ablation_auc(train, test, k_max=3, folds=3, seed=2)
        assert abs(auc_full - auc_ablated) <= 0.05

    def test_requires_race_columns(self):
        m = race_only_matrix(1).without_race()
        train, test = split(m, 0.7, 0)
        with pytest.raises(ValueError):
            ablation_auc(train, test, k_max=2, folds=3, seed=0)


def disparity_audit_config(tmp_path, seed=0, n=900):
    rates = {
        "accused_yes": (0.93, 0.93),
        "knows_def": (0.85, 0.20),
        "fam_accused_yes": (0.56, 0.56),
        "death_hesitant": (1.0, 1.0),
        "remainder": (0.17, 0.17),
    }
    cfg = paper_shaped_config(n, rates=rates, black_fraction=0.7)
    table = synth_generate(cfg, seed=seed)
    path = tmp_path / "jurors.csv"
    write_csv(table, path)
    return AuditConfig(
        input_path=str(path),
        catalog=table.feature_catalog,
        seed=seed,
        k_max=3,
        folds=3,
        alpha_grid=(0.01,),
        min_leaf=10,
    )


class TestRunAudit:
    def test_end_to_end_report(self, tmp_path):
        cfg = disparity_audit_config(tmp_path, seed=3, n=1200)
        report = run_audit(cfg)
        assert len(report.dataset_digest) == 64
        assert report.path.chosen_k in (1, 2, 3)
        # every leaf has exactly one finding
        assert sorted(f.leaf for f in report.findings) == sorted(report.tree.leaf_ids())
        assert sum(f.n_black + f.n_nonblack for f in report.findings) == 1200
        assert 0.0 <= report.auc_ablated <= report.auc_full <= 1.0
        doc = report.to_json()
        assert doc["provenance"]["dataset_digest"] == report.dataset_digest
        assert doc["ablation"]["auc_full"] == report.auc_full

    def test_determinism_byte_identical(self, tmp_path):
        cfg = disparity_audit_config(tmp_path, seed=4, n=900)
        a = json.dumps(run_audit(cfg).to_json(), indent=2, sort_keys=True)
        b = json.dumps(run_audit(cfg).to_json(), indent=2, sort_keys=True)
        assert a == b

    def test_digest_tracks_input_bytes(self, tmp_path):
        cfg = disparity_audit_config(tmp_path, seed=5, n=900)
        first = run_audit(cfg).dataset_digest
        again = run_audit(cfg).dataset_digest
        assert first == again
        # regenerate with another seed: different bytes, different digest
        other = disparity_audit_config(tmp_path, seed=6, n=900)
        assert run_audit(other).dataset_digest != first

    def test_stage_error_labels_the_stage(self, tmp_path):
        cfg = disparity_audit_config(tmp_path, seed=7, n=900)
        cfg.input_path = str(tmp_path / "missing.csv")
        with pytest.raises(StageError, match=r"\[load\]"):
            run_audit(cfg)
        cfg2 = disparity_audit_config(tmp_path, seed=8, n=900)
        cfg2.train_fraction = 2.0
        with pytest.raises(StageError, match=r"\[split\]"):
            run_audit(cfg2)

    def test_write_outputs_fixed_names(self, tmp_path):
        cfg = disparity_audit_config(tmp_path, seed=9, n=900)
        report = run_audit(cfg)
        out = tmp_path / "out"
        write_outputs(report, out)
        for name in ("report.json", "ofs_curve.csv", "importance.csv", "tree.json", "disparity.csv"):
            assert (out / name).exists(), name
        doc = json.loads((out / "tree.json").read_text())
        assert tree_from_json(doc) == report.tree

    def test_config_json_round_trip(self, tmp_path):
        cfg = disparity_audit_config(tmp_path, seed=10, n=900)
        back = AuditConfig.from_json(cfg.to_json())
        assert back == cfg

    @pytest.mark.parametrize(
        "key, value",
        [
            ("k_max", "3"), ("k_max", 0), ("k_max", True), ("seed", -1), ("seed", 1.5),
            ("folds", 1), ("train_fraction", 1.0), ("train_fraction", "0.7"),
            ("missing_policy", "zero"), ("ridge", -0.1), ("ridge", "1"),
            ("fit_tolerance", 0), ("max_iterations", 0), ("node_budget", 0),
            ("max_depth", 0), ("min_leaf", 0), ("alpha_grid", []),
            ("alpha_grid", [0.01, -1]), ("alpha_grid", "0.01"), ("alpha_level", 0),
            ("catalog", "accused"), ("catalog", [1, 2]), ("input_path", 7),
        ],
    )
    def test_config_bad_value_rejected(self, key, value):
        doc = AuditConfig(input_path="x.csv", catalog=("a",)).to_json()
        doc[key] = value
        with pytest.raises(StrikeAuditError, match=key):
            AuditConfig.from_json(doc)

    def test_config_missing_required_key_rejected(self):
        with pytest.raises(StrikeAuditError, match="'input_path', 'catalog'"):
            AuditConfig.from_json({"k_max": 3})

    def test_config_unknown_key_rejected(self, tmp_path):
        doc = disparity_audit_config(tmp_path, seed=10, n=900).to_json()
        doc["restarts"] = 100
        with pytest.raises(StrikeAuditError, match="'restarts'"):
            AuditConfig.from_json(doc)
