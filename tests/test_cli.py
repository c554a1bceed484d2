import csv
import hashlib
import io
import json
import os
import threading
from contextlib import contextmanager

import pytest

from strikeaudit.cli import main

SYNTH_CONFIG = {
    "n": 900,
    "black_fraction": 0.7,
    "tree_spec": {
        "feature": "accused",
        "right": {"leaf": "accused_yes"},
        "left": {
            "feature": "know_def",
            "right": {"leaf": "knows_def"},
            "left": {
                "feature": "fam_accused",
                "right": {"leaf": "fam_accused_yes"},
                "left": {
                    "feature": "death_hesitation",
                    "right": {"leaf": "death_hesitant"},
                    "left": {"leaf": "remainder"},
                },
            },
        },
    },
    "leaf_rates": {
        "accused_yes": [0.93, 0.93],
        "knows_def": [0.85, 0.20],
        "fam_accused_yes": [0.56, 0.56],
        "death_hesitant": [1.0, 1.0],
        "remainder": [0.17, 0.17],
    },
    "feature_marginals": {
        "accused": 0.25,
        "know_def": 0.25,
        "fam_accused": 0.45,
        "death_hesitation": 0.25,
    },
}

FAST_FLAGS = ["--k-max", "3", "--folds", "3"]
FAST_TREE_FLAGS = ["--alpha-grid", "0.01", "--folds", "3"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "synth.json"
    config.write_text(json.dumps(SYNTH_CONFIG))
    data = root / "jurors.csv"
    catalog = root / "catalog.json"
    code = main([
        "synth", "--config", str(config), "--seed", "11",
        "--out", str(data), "--catalog-out", str(catalog),
    ])
    assert code == 0
    return {"root": root, "config": config, "data": data, "catalog": catalog}


def io_flags(workdir, outname):
    out = workdir["root"] / outname
    return ["--input", str(workdir["data"]), "--catalog", str(workdir["catalog"]),
            "--out", str(out)], out


@contextmanager
def pipe_holding(data: bytes):
    """A /dev/fd path to the read end of a pipe that a thread fills with data;
    like /dev/stdin under a shell pipe, it can be read once."""
    read, write = os.pipe()

    def fill():
        with os.fdopen(write, "wb") as fh:
            fh.write(data)

    filler = threading.Thread(target=fill)
    filler.start()
    try:
        yield f"/dev/fd/{read}"
    finally:
        os.close(read)
        filler.join()


def rewritten(path, quoting) -> bytes:
    """The CSV file's bytes, written again by csv.writer with the given quoting."""
    text = io.StringIO()
    with open(path, newline="") as fh:
        csv.writer(text, quoting=quoting).writerows(csv.reader(fh))
    return text.getvalue().encode()


class TestSynth:
    def test_deterministic(self, workdir, tmp_path):
        again = tmp_path / "again.csv"
        code = main([
            "synth", "--config", str(workdir["config"]), "--seed", "11",
            "--out", str(again),
        ])
        assert code == 0
        assert again.read_bytes() == workdir["data"].read_bytes()

    def test_n_override(self, workdir, tmp_path):
        out = tmp_path / "small.csv"
        assert main([
            "synth", "--config", str(workdir["config"]), "--seed", "1",
            "--n", "25", "--out", str(out),
        ]) == 0
        assert len(out.read_text().strip().splitlines()) == 26

    def test_negative_n_override_is_data_error(self, workdir, tmp_path, capsys):
        out = tmp_path / "neg.csv"
        assert main([
            "synth", "--config", str(workdir["config"]), "--n", "-3", "--out", str(out),
        ]) == 2
        assert "n must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("change, message", [
        ({"n": None}, "synth config is missing key 'n'"),
        ({"n": 2.7}, "n must be an integer, got 2.7"),
        ({"n": True}, "n must be an integer, got True"),
    ])
    def test_malformed_config_is_data_error(self, tmp_path, capsys, change, message):
        obj = {**SYNTH_CONFIG, **change}
        if obj["n"] is None:
            del obj["n"]
        config = tmp_path / "synth.json"
        config.write_text(json.dumps(obj))
        assert main([
            "synth", "--config", str(config), "--out", str(tmp_path / "x.csv"),
        ]) == 2
        assert message in capsys.readouterr().err


class TestOfs:
    def test_outputs(self, workdir, capsys):
        flags, out = io_flags(workdir, "ofs_out")
        assert main(["ofs", *flags, "--seed", "3", *FAST_FLAGS]) == 0
        assert "uncertified" not in capsys.readouterr().out
        curve = (out / "ofs_curve.csv").read_text().strip().splitlines()
        assert curve[0] == "k,cv_auc_mean,cv_auc_sd"
        assert len(curve) == 4  # header + k = 1..3
        path_doc = json.loads((out / "subset_path.json").read_text())
        assert path_doc["chosen_k"] in (1, 2, 3)
        assert (out / "importance.csv").exists()


class TestStepwise:
    def test_runs_and_writes_model(self, workdir):
        flags, out = io_flags(workdir, "stepwise_out")
        assert main(["stepwise", *flags]) == 0
        doc = json.loads((out / "stepwise.json").read_text())
        assert "support" in doc and "beta" in doc

    def test_seed_is_usage_error(self, workdir, capsys):
        # stepwise fits every eligible row and draws nothing at random.
        flags, _ = io_flags(workdir, "stepwise_seed")
        assert main(["stepwise", *flags, "--seed", "1"]) == 1

    def test_nan_threshold_is_data_error(self, workdir, capsys):
        flags, out = io_flags(workdir, "stepwise_bad_thresholds")
        assert main(["stepwise", *flags, "--thresholds", "nan"]) == 2
        assert "thresholds" in capsys.readouterr().err
        assert not (out / "stepwise.json").exists()


class TestTreeAndDisparity:
    def test_tree_then_disparity(self, workdir):
        flags, out = io_flags(workdir, "tree_out")
        assert main(["tree", *flags, "--seed", "2", *FAST_TREE_FLAGS]) == 0
        tree_doc = json.loads((out / "tree.json").read_text())
        assert "root" in tree_doc
        assert (out / "tree.txt").read_text().count("leaf[") >= 1

        dflags, dout = io_flags(workdir, "disp_out")
        code = main([
            "disparity", "--input", str(workdir["data"]),
            "--catalog", str(workdir["catalog"]),
            "--tree", str(out / "tree.json"), "--out", str(dout),
        ])
        assert code == 0
        lines = (dout / "disparity.csv").read_text().strip().splitlines()
        assert len(lines) >= 2

    @pytest.mark.parametrize("split", [[], ["--train-fraction", "0.6"]])
    def test_tree_then_disparity_reproduce_the_audit(self, workdir, split):
        # tree tunes on the audit's training split, so the two stage commands
        # write the audit's tree.json and disparity.csv.
        tail = ["--seed", "1", "--folds", "3", *split]
        flags, audit_out = io_flags(workdir, "stages_audit")
        assert main(["audit", *flags, *tail, "--k-max", "1"]) == 0
        flags, tree_out = io_flags(workdir, "stages_tree")
        assert main(["tree", *flags, *tail]) == 0
        flags, disparity_out = io_flags(workdir, "stages_disparity")
        assert main(["disparity", *flags, "--tree", str(tree_out / "tree.json")]) == 0
        for out, name in ((tree_out, "tree.json"), (disparity_out, "disparity.csv")):
            assert (out / name).read_bytes() == (audit_out / name).read_bytes(), name

    def test_tree_column_outside_catalog_is_data_error(self, workdir, capsys):
        flags, out = io_flags(workdir, "tree_know_def")
        assert main(["tree", *flags, "--seed", "2", *FAST_TREE_FLAGS]) == 0
        assert '"feature": "know_def"' in (out / "tree.json").read_text()
        catalog = workdir["root"] / "catalog_without_know_def.json"
        full = json.loads(workdir["catalog"].read_text())
        catalog.write_text(json.dumps([c for c in full if c != "know_def"]))
        capsys.readouterr()
        code = main([
            "disparity", "--input", str(workdir["data"]), "--catalog", str(catalog),
            "--tree", str(out / "tree.json"), "--out", str(workdir["root"] / "disp_bad"),
        ])
        assert code == 2
        assert "know_def" in capsys.readouterr().err


class TestAblate:
    def test_outputs(self, workdir):
        flags, out = io_flags(workdir, "ablate_out")
        assert main(["ablate", *flags, "--seed", "4", *FAST_FLAGS]) == 0
        doc = json.loads((out / "ablation.json").read_text())
        assert set(doc) == {"auc_full", "auc_ablated"}

    def test_aucs_match_the_audit_report(self, workdir):
        flags, out = io_flags(workdir, "ablate_vs_audit")
        assert main(["ablate", *flags, "--seed", "5", *FAST_FLAGS]) == 0
        ablation = json.loads((out / "ablation.json").read_text())
        flags, out = io_flags(workdir, "audit_vs_ablate")
        assert main(["audit", *flags, "--seed", "5", *FAST_FLAGS, *FAST_TREE_FLAGS]) == 0
        report = json.loads((out / "report.json").read_text())
        assert {key: report["ablation"][key] for key in ablation} == ablation


class TestAudit:
    def test_byte_identical_reruns(self, workdir):
        flags_a, out_a = io_flags(workdir, "audit_a")
        flags_b, out_b = io_flags(workdir, "audit_b")
        argv_tail = ["--seed", "7", *FAST_FLAGS, *FAST_TREE_FLAGS]
        assert main(["audit", *flags_a, *argv_tail]) == 0
        assert main(["audit", *flags_b, *argv_tail]) == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()

    def test_reads_a_pipe(self, workdir):
        # run_audit hashes and decodes one read of its input, on the array
        # decoder's path (quote-free) and on csv.reader's (quoted)
        tail = ["--catalog", str(workdir["catalog"]), "--seed", "7", *FAST_FLAGS,
                *FAST_TREE_FLAGS]
        flags, want = io_flags(workdir, "audit_file")
        assert main(["audit", *flags, "--seed", "7", *FAST_FLAGS, *FAST_TREE_FLAGS]) == 0
        want_doc = json.loads((want / "report.json").read_text())
        del want_doc["provenance"]["settings"]["input_path"]
        del want_doc["provenance"]["dataset_digest"]
        for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
            data = rewritten(workdir["data"], quoting)
            assert (b'"' in data) == (quoting == csv.QUOTE_ALL)
            out = workdir["root"] / f"audit_pipe_{quoting}"
            with pipe_holding(data) as stdin:
                assert main(["audit", "--input", stdin, "--out", str(out), *tail]) == 0
            for name in ("ofs_curve.csv", "importance.csv", "tree.json", "disparity.csv"):
                assert (out / name).read_bytes() == (want / name).read_bytes(), name
            doc = json.loads((out / "report.json").read_text())
            assert doc["provenance"]["settings"].pop("input_path") == stdin
            assert doc["provenance"].pop("dataset_digest") == hashlib.sha256(data).hexdigest()
            assert doc == want_doc

    def test_config_file_fills_defaults(self, workdir):
        cfg_file = workdir["root"] / "audit_cfg.json"
        cfg_file.write_text(json.dumps({"k_max": 2, "folds": 3, "min_leaf": 8,
                                        "alpha_grid": [0.01]}))
        flags, out = io_flags(workdir, "audit_cfg_out")
        assert main(["audit", *flags, "--seed", "7", "--config", str(cfg_file)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["provenance"]["settings"]["k_max"] == 2
        assert report["provenance"]["settings"]["min_leaf"] == 8

    def test_explicit_flag_equal_to_default_beats_config(self, workdir):
        cfg_file = workdir["root"] / "audit_seed_cfg.json"
        cfg_file.write_text(json.dumps({"seed": 5, "k_max": 2, "folds": 3,
                                        "alpha_grid": [0.01]}))
        flags, out = io_flags(workdir, "audit_seed_out")
        assert main(["audit", *flags, "--seed", "0", "--folds", "5",
                     "--config", str(cfg_file)]) == 0
        settings = json.loads((out / "report.json").read_text())["provenance"]["settings"]
        assert settings["seed"] == 0
        assert settings["folds"] == 5
        assert settings["k_max"] == 2

    def test_unknown_config_key_is_data_error(self, workdir, capsys):
        cfg_file = workdir["root"] / "audit_bad_cfg.json"
        cfg_file.write_text(json.dumps({"restarts": 8}))
        flags, _ = io_flags(workdir, "audit_bad_out")
        assert main(["audit", *flags, "--config", str(cfg_file)]) == 2
        assert "'restarts'" in capsys.readouterr().err

    def test_config_file_of_a_non_object_is_data_error(self, workdir, capsys):
        cfg_file = workdir["root"] / "audit_list_cfg.json"
        cfg_file.write_text(json.dumps([["k_max", 3]]))
        flags, out = io_flags(workdir, "audit_list_out")
        assert main(["audit", *flags, "--config", str(cfg_file)]) == 2
        assert capsys.readouterr().err == (
            f"strikeaudit: config file {cfg_file} must hold a JSON object\n")
        assert not out.exists()

    def test_mistyped_config_value_is_data_error(self, workdir, capsys):
        cfg_file = workdir["root"] / "audit_typed_cfg.json"
        cfg_file.write_text(json.dumps({"k_max": "3"}))
        flags, _ = io_flags(workdir, "audit_typed_out")
        assert main(["audit", *flags, "--config", str(cfg_file)]) == 2
        assert "k_max" in capsys.readouterr().err

    def test_summary_names_uncertified_sizes(self, workdir, capsys):
        flags, out = io_flags(workdir, "audit_starved")
        argv = ["audit", *flags, "--seed", "7", *FAST_FLAGS, *FAST_TREE_FLAGS, "--budget", "1"]
        assert main(argv) == 0
        entries = json.loads((out / "report.json").read_text())["subset_path"]["entries"]
        uncertified = [e["k"] for e in entries if not e["certified"]]
        assert uncertified
        assert f"uncertified_k={uncertified}" in capsys.readouterr().out

    def test_report_rendering(self, workdir, capsys):
        flags, out = io_flags(workdir, "audit_render")
        assert main(["audit", *flags, "--seed", "7", *FAST_FLAGS, *FAST_TREE_FLAGS]) == 0
        rendered = workdir["root"] / "rendered"
        capsys.readouterr()
        assert main(["report", "--report", str(out / "report.json"),
                     "--out", str(rendered)]) == 0
        report_out = capsys.readouterr().out
        assert "model AUC" in report_out
        for name in ("ofs_curve.csv", "importance.csv", "tree.json", "disparity.csv"):
            assert (rendered / name).read_bytes() == (out / name).read_bytes(), name
        # The findings print as the disparity subcommand prints them, indented.
        assert main(["disparity", "--input", str(workdir["data"]),
                     "--catalog", str(workdir["catalog"]), "--tree", str(out / "tree.json"),
                     "--out", str(workdir["root"] / "render_disp")]) == 0
        disparity_lines = capsys.readouterr().out.splitlines()
        assert disparity_lines
        findings = report_out.split("findings:\n", 1)[1].splitlines()
        assert findings == ["  " + line for line in disparity_lines]


    def test_report_reads_reports_with_duplicate_keys(self, workdir, capsys):
        # Reports written before the chosen model and the seed had one key
        # each also hold them at the top level and in provenance.
        flags, out = io_flags(workdir, "audit_one_owner")
        assert main(["audit", *flags, "--seed", "7", *FAST_FLAGS, *FAST_TREE_FLAGS]) == 0
        doc = json.loads((out / "report.json").read_text())
        old = {**doc, "chosen_model": doc["subset_path"]["chosen_model"],
               "provenance": {**doc["provenance"], "seed": doc["provenance"]["settings"]["seed"]}}
        old_path = workdir["root"] / "report_with_duplicates.json"
        old_path.write_text(json.dumps(old))
        files = ("ofs_curve.csv", "importance.csv", "tree.json", "disparity.csv")
        rendered = []
        for name, path in (("render_new", out / "report.json"), ("render_old", old_path)):
            capsys.readouterr()
            assert main(["report", "--report", str(path), "--out", str(workdir["root"] / name)]) == 0
            rendered.append((capsys.readouterr().out,
                             [(workdir["root"] / name / file).read_bytes() for file in files]))
        assert "chosen model:" in rendered[0][0]
        assert rendered[0] == rendered[1]


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["ofs"]) == 1

    def test_unknown_flag_is_usage_error(self, workdir, capsys):
        flags, _ = io_flags(workdir, "x")
        assert main(["ofs", *flags, "--bogus"]) == 1

    def test_missing_input_file_is_data_error(self, workdir, capsys):
        out = workdir["root"] / "missing_out"
        assert main([
            "ofs", "--input", str(workdir["root"] / "nope.csv"),
            "--catalog", str(workdir["catalog"]), "--out", str(out),
        ]) == 2

    def test_bad_catalog_is_data_error(self, workdir, capsys):
        bad = workdir["root"] / "bad_catalog.json"
        bad.write_text('{"not": "a list"}')
        out = workdir["root"] / "bad_out"
        assert main([
            "ofs", "--input", str(workdir["data"]), "--catalog", str(bad),
            "--out", str(out),
        ]) == 2

    @pytest.mark.parametrize("command", ["ofs", "ablate", "audit"])
    @pytest.mark.parametrize("flag, value, field", [
        ("--budget", "0", "node_budget"), ("--k-max", "0", "k_max"), ("--seed", "-1", "seed"),
    ])
    def test_bad_setting_is_data_error(self, workdir, capsys, command, flag, value, field):
        flags, _ = io_flags(workdir, f"bad_{command}")
        assert main([command, *flags, flag, value]) == 2
        assert field in capsys.readouterr().err

    def test_infinite_ridge_is_data_error(self, workdir, capsys):
        flags, out = io_flags(workdir, "inf_ridge")
        assert main(["audit", *flags, "--ridge", "inf"]) == 2
        assert "ridge" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_header_column_is_data_error(self, workdir, capsys):
        lines = workdir["data"].read_text().splitlines(keepends=True)
        header = lines[0].rstrip("\r\n").split(",")
        data = workdir["root"] / "duplicate_header.csv"
        # the last column named again: the old reader took the copy's values
        data.write_text("".join([",".join(header + header[-1:]) + "\r\n",
                                 *(line.rstrip("\r\n") + ",1\r\n" for line in lines[1:])]))
        out = workdir["root"] / "duplicate_header_out"
        assert main([
            "ofs", "--input", str(data), "--catalog", str(workdir["catalog"]), "--out", str(out),
            *FAST_FLAGS,
        ]) == 2
        assert f"column {header[-1]!r} appears more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("command, stage", [("tree", ""), ("audit", "[load] ")])
    def test_field_over_the_limit_is_data_error(self, workdir, capsys, command, stage):
        # csv.reader's own error, not a traceback: the message names the line
        limit = csv.field_size_limit()
        with open(workdir["data"], newline="") as fh:
            header, *records = csv.reader(fh)
        records[2][header.index("juror_id")] = "j" * (limit + 1)
        data = workdir["root"] / "long_field.csv"
        with open(data, "w", newline="") as fh:
            csv.writer(fh).writerows([header, *records])
        out = workdir["root"] / f"long_field_{command}"
        assert main([
            command, "--input", str(data), "--catalog", str(workdir["catalog"]),
            "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == (
            f"strikeaudit: {stage}line 4: field larger than field limit ({limit})\n"
        )

    def test_catalog_naming_a_column_twice_is_data_error(self, workdir, capsys):
        catalog = workdir["root"] / "duplicate_catalog.json"
        catalog.write_text(json.dumps(
            ["accused", "know_def", "accused", "fam_accused", "death_hesitation"]
        ))
        out = workdir["root"] / "duplicate_catalog_out"
        assert main([
            "audit", "--input", str(workdir["data"]), "--catalog", str(catalog),
            "--out", str(out), *FAST_FLAGS, *FAST_TREE_FLAGS,
        ]) == 2
        assert "'accused' more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["audit", "ablate"])
    def test_only_race_columns_left_is_data_error(self, tmp_path, capsys, command):
        # The one catalog answer is constant, so it is dropped and only
        # is_black is left; the ablated search has no column to search.
        data = tmp_path / "race_only.csv"
        data.write_text("trial_id,juror_id,is_black,struck_by_state,eligible,q\n" + "".join(
            f"t1,j{i:03d},{i % 2},{int(i // 2 % 3 == 0)},1,0\n" for i in range(60)
        ))
        catalog = tmp_path / "catalog.json"
        catalog.write_text(json.dumps(["q"]))
        out = tmp_path / "out"
        assert main([command, "--input", str(data), "--catalog", str(catalog),
                     "--out", str(out), "--folds", "3"]) == 2
        err = capsys.readouterr().err
        assert "no non-race column is left to search" in err
        assert "k_max" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["audit", "ablate"])
    def test_no_race_column_left_is_data_error(self, tmp_path, capsys, command):
        # Every juror is black, so is_black is dropped as constant and the
        # ablation has no race column to remove.
        data = tmp_path / "all_black.csv"
        data.write_text("trial_id,juror_id,is_black,struck_by_state,eligible,q,r\n" + "".join(
            f"t1,j{i:03d},1,{int(i % 3 == 0)},1,{i % 2},{int(i // 2 % 2 == 0)}\n"
            for i in range(90)
        ))
        catalog = tmp_path / "catalog.json"
        catalog.write_text(json.dumps(["q", "r"]))
        out = tmp_path / "out"
        assert main([command, "--input", str(data), "--catalog", str(catalog),
                     "--out", str(out), "--folds", "3"]) == 2
        assert "ablation requires race columns" in capsys.readouterr().err
        assert not out.exists()

    def test_report_missing_key_is_data_error(self, workdir, capsys):
        doc = workdir["root"] / "empty_report.json"
        doc.write_text("{}")
        out = workdir["root"] / "empty_report_out"
        assert main(["report", "--report", str(doc), "--out", str(out)]) == 2
        assert "'subset_path'" in capsys.readouterr().err
        assert not out.exists()

    def test_disparity_tree_missing_key_is_data_error(self, workdir, capsys):
        tree_doc = workdir["root"] / "tree_without_n_struck.json"
        tree_doc.write_text(json.dumps({"columns": ["accused"], "root": {"leaf": {"n": 5}}}))
        assert main([
            "disparity", "--input", str(workdir["data"]), "--catalog", str(workdir["catalog"]),
            "--tree", str(tree_doc), "--out", str(workdir["root"] / "disp_no_n_struck"),
        ]) == 2
        assert "'n_struck'" in capsys.readouterr().err

    def test_report_with_empty_leaf_is_data_error(self, workdir, capsys):
        flags, out = io_flags(workdir, "audit_empty_leaf")
        assert main(["audit", *flags, "--seed", "7", *FAST_FLAGS, *FAST_TREE_FLAGS]) == 0
        doc = json.loads((out / "report.json").read_text())
        node = doc["tree"]["root"]
        while "leaf" not in node:
            node = node["left"]
        node["leaf"].update(n=0, n_struck=0)
        bad = workdir["root"] / "empty_leaf_report.json"
        bad.write_text(json.dumps(doc))
        rendered = workdir["root"] / "empty_leaf_rendered"
        assert main(["report", "--report", str(bad), "--out", str(rendered)]) == 2
        assert "n=0" in capsys.readouterr().err
        assert not rendered.exists()

    @pytest.mark.parametrize("n, n_struck", [(0, 0), (5, 6), (5, -1), (5.0, 2), ("5", 2)])
    def test_disparity_tree_with_impossible_leaf_is_data_error(self, workdir, capsys,
                                                               n, n_struck):
        tree_doc = workdir["root"] / "tree_impossible_leaf.json"
        tree_doc.write_text(json.dumps({"columns": ["accused"], "root": {
            "feature": "accused",
            "left": {"leaf": {"n": n, "n_struck": n_struck}},
            "right": {"leaf": {"n": 5, "n_struck": 2}},
        }}))
        out = workdir["root"] / "disp_impossible_leaf"
        assert main([
            "disparity", "--input", str(workdir["data"]), "--catalog", str(workdir["catalog"]),
            "--tree", str(tree_doc), "--out", str(out),
        ]) == 2
        assert f"n={n!r}, n_struck={n_struck!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["audit", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--seed" in out
