import json

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


class TestAudit:
    def test_byte_identical_reruns(self, workdir):
        flags_a, out_a = io_flags(workdir, "audit_a")
        flags_b, out_b = io_flags(workdir, "audit_b")
        argv_tail = ["--seed", "7", *FAST_FLAGS, *FAST_TREE_FLAGS]
        assert main(["audit", *flags_a, *argv_tail]) == 0
        assert main(["audit", *flags_b, *argv_tail]) == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()

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

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["audit", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--seed" in out
