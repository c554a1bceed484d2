import csv
import hashlib
import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strikeaudit import logreg
from strikeaudit.audit import (
    AuditConfig,
    findings_csv,
    leaf_disparity,
    run_audit,
    write_outputs,
)
from strikeaudit.dataset import (
    FeatureMatrix,
    split,
    synth_generate,
    write_csv,
)
from strikeaudit.errors import SchemaError, StageError, StrikeAuditError
from strikeaudit.subset import race_ablation
from strikeaudit.tree import tree_from_json

from conftest import fresh_python
from oracles import fisher_two_sided_exact, table_from_records
from test_dataset import paper_shaped_config
from test_tree import paper_tree

TREE_FEATURES = ("accused", "know_def", "fam_accused", "death_hesitation")


def records_for_leaf(prefix, answers, n_black, struck_black, n_nonblack, struck_nonblack):
    """Jurors that all route to one leaf of the paper tree."""
    out = []
    for i in range(n_black):
        out.append(dict(
            trial_id="t1", juror_id=f"{prefix}b{i}", is_black=True,
            struck_by_state=i < struck_black, eligible=True, answers=dict(answers),
        ))
    for i in range(n_nonblack):
        out.append(dict(
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


def five_leaf_records(knows_def_counts=(20, 17, 40, 8), null_counts=(10, 5, 20, 10)):
    records = []
    for leaf, answers in LEAF_ANSWERS.items():
        counts = knows_def_counts if leaf == "knows_def" else null_counts
        records.extend(records_for_leaf(leaf, answers, *counts))
    return records


def five_leaf_table(**counts):
    return table_from_records(five_leaf_records(**counts), TREE_FEATURES)


class TestLeafDisparity:
    def test_identical_rates_give_p_one(self):
        # a leaf at 5/10 black vs 10/20 non-black shows no association
        table = five_leaf_table(knows_def_counts=(10, 5, 20, 10))
        findings = leaf_disparity(paper_tree(), table)
        assert len(findings) == 5
        for f in findings:
            assert not f["skipped"]
            assert f["p_raw"] == pytest.approx(1.0, abs=1e-12)
            assert not f["significant"]

    def test_planted_node4_disparity_significant(self):
        # black 17/20 struck vs non-black 8/40: 85% vs 20%
        table = five_leaf_table()
        findings = leaf_disparity(paper_tree(), table, alpha_level=0.05)
        by_path = {tuple(f["path"]): f for f in findings}
        node4 = by_path[("accused = no", "know_def = yes")]
        assert node4["rate_black"] == pytest.approx(0.85)
        assert node4["rate_nonblack"] == pytest.approx(0.20)
        expected_p = float(fisher_two_sided_exact(17, 3, 8, 32))
        assert node4["p_raw"] == pytest.approx(expected_p, abs=1e-12)
        # Holm across the 5 testable leaves keeps it significant
        assert node4["p_adjusted"] == pytest.approx(min(1.0, 5 * expected_p), abs=1e-9)
        assert node4["significant"]
        others = [f for f in findings if f["path"] != node4["path"]]
        assert not any(f["significant"] for f in others)

    def test_single_race_leaf_is_skipped(self):
        records = []
        for leaf, answers in LEAF_ANSWERS.items():
            if leaf == "remainder":
                records.extend(records_for_leaf(leaf, answers, 15, 5, 0, 0))
            else:
                records.extend(records_for_leaf(leaf, answers, 10, 5, 20, 10))
        table = table_from_records(records, TREE_FEATURES)
        findings = leaf_disparity(paper_tree(), table)
        flagged = [f for f in findings if f["skipped"]]
        assert len(flagged) == 1
        assert flagged[0]["reason"] == "degenerate margin"
        assert flagged[0]["p_adjusted"] is None
        assert not flagged[0]["significant"]
        # the Holm family is only the testable leaves
        testable = [f for f in findings if not f["skipped"]]
        assert all(f["p_adjusted"] >= f["p_raw"] - 1e-15 for f in testable)

    def test_findings_partition_the_table(self):
        table = five_leaf_table()
        findings = leaf_disparity(paper_tree(), table)
        assert sum(f["n_black"] + f["n_nonblack"] for f in findings) == len(table.is_black)

    def test_missing_answers_route_as_no(self):
        records = records_for_leaf("x", {"accused": None, "know_def": None,
                                         "fam_accused": None, "death_hesitation": None},
                                   10, 5, 12, 6)
        table = table_from_records(records, TREE_FEATURES)
        findings = leaf_disparity(paper_tree(), table)
        remainder = {tuple(f["path"]): f for f in findings}[
            ("accused = no", "know_def = no", "fam_accused = no", "death_hesitation = no")
        ]
        assert remainder["n_black"] + remainder["n_nonblack"] == 22

    def test_tree_column_outside_catalog_rejected(self):
        # Without the check every juror reads know_def = no: the biased leaf
        # goes untested and its jurors inflate the know_def = no branch.
        catalog = tuple(c for c in TREE_FEATURES if c != "know_def")
        records = [{**r, "answers": {c: r["answers"][c] for c in catalog}}
                   for r in five_leaf_records()]
        with pytest.raises(SchemaError, match="know_def"):
            leaf_disparity(paper_tree(), table_from_records(records, catalog))

    def test_json_round_trip(self):
        # no non-black juror in the remainder leaf, so its test is skipped
        records = [r for r in five_leaf_records() if not r["juror_id"].startswith("remaindern")]
        table = table_from_records(records, TREE_FEATURES)
        findings = leaf_disparity(paper_tree(), table)
        assert any(f["skipped"] for f in findings) and any(f["significant"] for f in findings)
        for f in findings:
            assert json.loads(json.dumps(f)) == f

    def test_csv_rendering(self):
        table = five_leaf_table()
        findings = leaf_disparity(paper_tree(), table)
        text = findings_csv(findings)
        lines = text.strip().splitlines()
        assert lines[0].startswith("leaf,path,")
        assert len(lines) == 1 + len(findings)


class TestDisparityProperties:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 80))
    @settings(max_examples=50, deadline=None)
    def test_findings_partition_rows_and_ignore_record_order(self, seed, n):
        rng = np.random.default_rng(seed)
        records = [
            dict(
                trial_id="t1", juror_id=f"j{i}", is_black=bool(rng.random() < 0.5),
                struck_by_state=bool(rng.random() < 0.4), eligible=True,
                answers={c: (None, False, True)[rng.integers(3)] for c in TREE_FEATURES},
            )
            for i in range(n)
        ]
        findings = leaf_disparity(paper_tree(), table_from_records(records, TREE_FEATURES))
        # Each juror is counted in the one leaf whose path it satisfies, with
        # a missing answer read as no.
        for f in findings:
            conditions = [c.split(" = ") for c in f["path"]]
            here = [r for r in records
                    if all(bool(r["answers"][name]) == (value == "yes") for name, value in conditions)]
            black = [r for r in here if r["is_black"]]
            assert (f["n_black"], f["n_nonblack"]) == (len(black), len(here) - len(black))
            assert f["struck_black"] == sum(r["struck_by_state"] for r in black)
            assert (f["struck_nonblack"]
                    == sum(r["struck_by_state"] for r in here) - f["struck_black"])
        assert sum(f["n_black"] + f["n_nonblack"] for f in findings) == n
        shuffled = [records[i] for i in rng.permutation(n)]
        assert leaf_disparity(paper_tree(), table_from_records(shuffled, TREE_FEATURES)) == findings


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
        full, ablated = race_ablation(train, test, k_max=3, folds=3, seed=1)
        assert full.test_auc >= 0.70
        assert ablated.test_auc <= 0.55

    def test_race_irrelevant_outcome_keeps_auc(self):
        rng = np.random.default_rng(5)
        n = 2000
        x = (rng.random((n, 5)) < 0.5).astype(float)
        eta = -1.0 + 2.0 * x[:, 1] + 1.5 * x[:, 2]
        y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(int)
        m = FeatureMatrix(x=x, columns=("is_black", "a", "b", "c", "d"), y=y,
                          race_columns=frozenset({0}))
        train, test = split(m, 0.7, 0)
        full, ablated = race_ablation(train, test, k_max=3, folds=3, seed=2)
        assert abs(full.test_auc - ablated.test_auc) <= 0.05

    def test_requires_race_columns(self):
        m = race_only_matrix(1).without_race()
        train, test = split(m, 0.7, 0)
        with pytest.raises(ValueError, match="ablation requires race columns"):
            race_ablation(train, test, k_max=2, folds=3, seed=0)


# The caterpillar's strike rates (black, non-black) with a know_def disparity.
DISPARITY_RATES = {
    "accused_yes": (0.93, 0.93),
    "knows_def": (0.85, 0.20),
    "fam_accused_yes": (0.56, 0.56),
    "death_hesitant": (1.0, 1.0),
    "remainder": (0.17, 0.17),
}


def disparity_audit_config(tmp_path, seed=0, n=900):
    cfg = paper_shaped_config(n, rates=DISPARITY_RATES, black_fraction=0.7)
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


def _renamed(doc, names):
    """doc with every column name, alone or in an "name = yes/no" condition,
    mapped through names."""
    if isinstance(doc, dict):
        return {key: _renamed(value, names) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_renamed(value, names) for value in doc]
    if isinstance(doc, str):
        name, sep, rest = doc.partition(" = ")
        return names.get(name, name) + sep + rest
    return doc


class TestRenamingProperty:
    @pytest.fixture(scope="class")
    def audited(self, tmp_path_factory):
        cfg = disparity_audit_config(tmp_path_factory.mktemp("rename"), seed=2, n=600)
        return cfg, run_audit(cfg)

    # Letters a-j and "_" spell no required column and no race feature name.
    @given(st.lists(st.text(alphabet="abcdefghij_", min_size=1, max_size=8),
                    min_size=4, max_size=4, unique=True))
    @settings(max_examples=15, deadline=None)
    def test_renaming_catalog_renames_report_and_nothing_else(self, audited, new_names):
        cfg, doc = audited
        names = dict(zip(cfg.catalog, new_names))
        path = Path(cfg.input_path).with_name("renamed.csv")
        header, body = Path(cfg.input_path).read_text().split("\n", 1)
        path.write_text(",".join(names.get(c, c) for c in header.split(",")) + "\n" + body)
        renamed = run_audit(replace(cfg, input_path=str(path), catalog=tuple(new_names)))
        want = _renamed(doc, names)
        want["provenance"]["settings"]["input_path"] = str(path)
        want["provenance"]["dataset_digest"] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert json.dumps(renamed) == json.dumps(want)


def subset_heavy_population(tmp_path):
    """Population 1 of the benchmark's subset-heavy workload at --seed 1
    (synth seed 4): 700 jurors, the disparity caterpillar and eight noise
    answers with marginals drawn U(0.1, 0.6) from rng 0, searched up to
    k = 12 with one depth-2 tree."""
    base = paper_shaped_config(700, rates=DISPARITY_RATES)
    rng = np.random.default_rng(0)
    noise = {f"noise_{i:02d}": float(rng.uniform(0.1, 0.6)) for i in range(8)}
    marginals = {**base.feature_marginals, **noise}
    table = synth_generate(replace(base, feature_marginals=marginals), seed=4)
    path = tmp_path / "jurors.csv"
    write_csv(table, path)
    return AuditConfig(input_path=str(path), catalog=table.feature_catalog, k_max=12,
                       max_depth=2, alpha_grid=(0.01,))


def coding_invariants(doc):
    """What swapping yes and no in one answer leaves unchanged: supports,
    chosen_k, certificates, every AUC, alpha, and the leaves' counts and
    p-values (a leaf's path and pre-order id may change)."""
    path = doc["subset_path"]
    return {
        "entries": [(e["k"], e["support"], e["cv_auc_mean"], e["cv_auc_sd"], e["certified"])
                    for e in path["entries"]],
        "chosen_k": path["chosen_k"],
        "aucs": (path["test_auc"], doc["ablation"]["auc_full"], doc["ablation"]["auc_ablated"]),
        "alpha": doc["tree"]["alpha"],
        "leaves": sorted((f["n_black"], f["struck_black"], f["n_nonblack"], f["struck_nonblack"],
                          f["p_raw"], f["p_adjusted"]) for f in doc["findings"]),
    }


class TestCodingFlip:
    # In exact arithmetic a flip moves no optimum: the intercept absorbs the
    # shift and |beta| keeps its penalty. On this population a BLAS product
    # once scored two validation rows of one answer pattern 1 ulp apart, and
    # flipping accused moved two CV AUCs.
    @pytest.fixture(scope="class")
    def audited(self, tmp_path_factory):
        cfg = subset_heavy_population(tmp_path_factory.mktemp("flip"))
        return cfg, run_audit(cfg)

    @pytest.mark.parametrize("answer", ["accused", "noise_01"])
    def test_flipping_an_answer_moves_no_finding(self, audited, answer):
        cfg, doc = audited
        with open(cfg.input_path, newline="") as fh:
            header, *rows = csv.reader(fh)
        j = header.index(answer)
        for row in rows:
            row[j] = {"0": "1", "1": "0"}.get(row[j], row[j])
        path = Path(cfg.input_path).with_name(f"flipped-{answer}.csv")
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        flipped = run_audit(replace(cfg, input_path=str(path)))
        assert coding_invariants(flipped) == coding_invariants(doc)


class TestRunAudit:
    def test_end_to_end_report(self, tmp_path):
        cfg = disparity_audit_config(tmp_path, seed=3, n=1200)
        doc = run_audit(cfg)
        assert len(doc["provenance"]["dataset_digest"]) == 64
        assert doc["subset_path"]["chosen_k"] in (1, 2, 3)
        # every leaf has exactly one finding
        leaf_ids = tree_from_json(doc["tree"]).leaf_ids()
        assert sorted(f["leaf"] for f in doc["findings"]) == sorted(leaf_ids)
        assert sum(f["n_black"] + f["n_nonblack"] for f in doc["findings"]) == 1200
        test_auc = doc["subset_path"]["test_auc"]
        assert 0.0 <= doc["ablation"]["auc_ablated"] <= test_auc <= 1.0
        assert doc["ablation"]["auc_full"] == test_auc

    def test_one_owner_per_value(self, tmp_path):
        # The chosen model is only under subset_path, the seed only under
        # provenance.settings, which holds AuditConfig's fields and no more.
        doc = run_audit(disparity_audit_config(tmp_path, seed=3, n=600))
        assert sorted(doc) == ["ablation", "dropped_columns", "findings", "importance",
                               "provenance", "subset_path", "tree"]
        assert sorted(doc["provenance"]) == ["dataset_digest", "settings"]
        recorded = doc["provenance"]["settings"]
        assert sorted(recorded) == sorted(f.name for f in fields(AuditConfig))
        assert len(recorded) == 13

    def test_determinism_byte_identical(self, tmp_path):
        cfg = disparity_audit_config(tmp_path, seed=4, n=900)
        a = json.dumps(run_audit(cfg), indent=2, sort_keys=True)
        b = json.dumps(run_audit(cfg), indent=2, sort_keys=True)
        assert a == b

    def test_report_bytes_ignore_earlier_audits_in_the_process(self, tmp_path):
        code = (
            "import json, sys\n"
            "from strikeaudit.audit import AuditConfig, json_text, run_audit\n"
            "for path in sys.argv[1:]:\n"
            "    doc = run_audit(AuditConfig.from_json(json.loads(open(path).read())))\n"
            "print(json_text(doc))\n"
        )
        paths = []
        for seed, n in ((1, 100), (2, 1000)):
            (tmp_path / str(seed)).mkdir()
            cfg = disparity_audit_config(tmp_path / str(seed), seed=seed, n=n)
            path = tmp_path / f"{seed}.json"
            path.write_text(json.dumps(cfg.to_json()))
            paths.append(str(path))
        earlier, audited = paths
        assert fresh_python(code, audited) == fresh_python(code, earlier, audited)

    def test_digest_tracks_input_bytes(self, tmp_path):
        cfg = disparity_audit_config(tmp_path, seed=5, n=900)
        digest = lambda c: run_audit(c)["provenance"]["dataset_digest"]
        first = digest(cfg)
        again = digest(cfg)
        assert first == again
        # regenerate with another seed: different bytes, different digest
        other = disparity_audit_config(tmp_path, seed=6, n=900)
        assert digest(other) != first

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
        assert tree_from_json(doc) == tree_from_json(report["tree"])
        # The returned document is the report.json written from it.
        assert json.loads((out / "report.json").read_text()) == report

    def test_derived_csvs_read_back_names_that_need_quoting(self, tmp_path):
        cfg = disparity_audit_config(tmp_path, seed=2, n=600)
        names = dict(zip(TREE_FEATURES, ("acc,used", 'kn"ow', "fam\naccused", "death\r\nhes")))
        with open(cfg.input_path, newline="") as fh:
            header, *rows = csv.reader(fh)
        with open(cfg.input_path, "w", newline="") as fh:
            csv.writer(fh).writerows([[names.get(c, c) for c in header], *rows])
        doc = run_audit(replace(cfg, catalog=tuple(names.get(c, c) for c in cfg.catalog)))
        paths = [" & ".join(f["path"]) for f in doc["findings"]]
        assert 'kn"ow = no' in " ".join(paths)
        write_outputs(doc, tmp_path / "out")
        with open(tmp_path / "out" / "importance.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["k", *doc["importance"]["columns"]]
        assert "acc,used" in header and {len(row) for row in rows} == {len(header)}
        with open(tmp_path / "out" / "disparity.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert [row[header.index("path")] for row in rows] == paths
        assert {len(row) for row in rows} == {len(header)}

    def test_search_counts_in_report(self, tmp_path, monkeypatch):
        solved = []
        real_fit = logreg.fit

        def counting_fit(m, support, *args, **kwargs):
            model = real_fit(m, support, *args, **kwargs)
            solved.append(model.diagnostics.converged)
            return model

        monkeypatch.setattr(logreg, "fit", counting_fit)
        doc = run_audit(disparity_audit_config(tmp_path, seed=11, n=900))
        full, ablation = doc["subset_path"]["search"], doc["ablation"]["search"]
        assert set(full) == set(ablation) == {"fits", "memo_hits", "unconverged"}
        assert full["fits"] + ablation["fits"] == len(solved)
        assert full["unconverged"] + ablation["unconverged"] == solved.count(False)
        # The ablated search reuses the full search's fits.
        assert ablation["memo_hits"] > 0
        assert ablation["fits"] < full["fits"]

    def test_each_problem_solved_once(self, tmp_path, monkeypatch):
        # A problem is the rows' targets and the support's named columns; it
        # is solved once, from zeros only when it holds every non-race column.
        solved = []
        cold_holds_non_race = []
        real_fit = logreg.fit

        def recording_fit(m, support, settings=logreg.FitSettings(), *, start=None):
            columns = frozenset((m.columns[j], m.x[:, j].tobytes()) for j in support)
            solved.append((m.y.tobytes(), columns))
            if start is None:
                cold_holds_non_race.append(set(range(m.p)) - m.race_columns <= set(support))
            return real_fit(m, support, settings, start=start)

        monkeypatch.setattr(logreg, "fit", recording_fit)
        run_audit(disparity_audit_config(tmp_path, seed=12, n=900))
        assert solved
        assert len(set(solved)) == len(solved)
        assert cold_holds_non_race and all(cold_holds_non_race)

    def test_config_json_round_trip(self, tmp_path):
        cfg = disparity_audit_config(tmp_path, seed=10, n=900)
        back = AuditConfig.from_json(cfg.to_json())
        assert back == cfg

    @pytest.mark.parametrize(
        "key, value",
        [
            ("k_max", "3"), ("k_max", 0), ("k_max", True), ("seed", -1), ("seed", 1.5),
            ("folds", 1), ("train_fraction", 1.0), ("train_fraction", "0.7"),
            ("missing_policy", "zero"), ("ridge", -0.1), ("ridge", "1"), ("ridge", math.inf),
            ("ridge", True), ("node_budget", 0), ("max_depth", 0), ("max_depth", 2.5),
            ("max_depth", "4"), ("min_leaf", 0), ("min_leaf", True), ("alpha_grid", []),
            ("alpha_grid", [math.inf]),
            ("alpha_grid", [0.01, -1]), ("alpha_grid", "0.01"), ("alpha_level", 0),
            ("catalog", "accused"), ("catalog", [1, 2]), ("input_path", 7),
        ],
    )
    def test_config_bad_value_rejected(self, key, value):
        # ridge, max_depth and min_leaf are checked by FitSettings and
        # TreeSettings; the error still names the field.
        doc = AuditConfig(input_path="x.csv", catalog=("a",)).to_json()
        doc[key] = value
        with pytest.raises(StrikeAuditError, match=rf"^audit config {key} must be "):
            AuditConfig.from_json(doc)

    @pytest.mark.parametrize("key, value", [("fit_tolerance", 1e-8), ("max_iterations", 100)])
    def test_config_removed_fit_key_is_unknown(self, key, value):
        # A looser tolerance or fewer iterations could only void or falsify
        # a certificate, so a config may no longer set either.
        doc = AuditConfig(input_path="x.csv", catalog=("a",)).to_json()
        doc[key] = value
        with pytest.raises(StrikeAuditError, match=rf"unknown audit config key\(s\): '{key}'"):
            AuditConfig.from_json(doc)

    def test_config_missing_required_key_rejected(self):
        with pytest.raises(StrikeAuditError, match="'input_path', 'catalog'"):
            AuditConfig.from_json({"k_max": 3})

    def test_config_unknown_key_rejected(self, tmp_path):
        doc = disparity_audit_config(tmp_path, seed=10, n=900).to_json()
        doc["restarts"] = 100
        with pytest.raises(StrikeAuditError, match="'restarts'"):
            AuditConfig.from_json(doc)
