import numpy as np
import pytest

from strikeaudit.dataset import (
    FeatureMatrix,
    JurorRecord,
    JurorTable,
    SplitSpec,
    SynthConfig,
    answer_matrix,
    build_matrix,
    filter_eligible,
    load_csv,
    split,
    stratified_folds,
    synth_generate,
    write_csv,
)
from strikeaudit.errors import (
    DegenerateDataError,
    ParseError,
    SchemaError,
    StratificationError,
)
from strikeaudit.stats import ContingencyTable, fisher_exact


def make_record(i, trial="t1", black=False, struck=False, eligible=True, answers=None):
    return JurorRecord(
        trial_id=trial,
        juror_id=f"j{i}",
        is_black=black,
        struck_by_state=struck,
        eligible=eligible,
        answers=answers or {},
    )


CATALOG = ("accused", "know_def", "medical")


def small_table():
    records = [
        make_record(0, black=True, struck=True,
                    answers={"accused": True, "know_def": False, "medical": False}),
        make_record(1, struck=False,
                    answers={"accused": False, "know_def": True, "medical": None}),
        make_record(2, black=True, struck=False, eligible=False,
                    answers={"accused": False, "know_def": False, "medical": True}),
        make_record(3, struck=True,
                    answers={"accused": True, "know_def": True, "medical": False}),
    ]
    return JurorTable(records=records, feature_catalog=CATALOG)


class TestCsv:
    def test_full_round_trip(self, tmp_path):
        table = small_table()
        path = tmp_path / "jurors.csv"
        write_csv(table, path)
        back = load_csv(path, CATALOG)
        assert back.records == table.records
        assert back.feature_catalog == table.feature_catalog

    def test_three_rows_no_missing(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            "trial_id,juror_id,is_black,struck_by_state,eligible,accused\n"
            "t1,j1,0,1,1,1\nt1,j2,1,0,1,0\nt2,j1,0,0,1,0\n"
        )
        table = load_csv(path, ("accused",))
        assert len(table) == 3
        assert all(v is not None for r in table.records for v in r.answers.values())

    def test_empty_cell_maps_to_missing(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            "trial_id,juror_id,is_black,struck_by_state,eligible,medical\n"
            "t1,j1,0,1,1,\n"
        )
        table = load_csv(path, ("medical",))
        assert len(table) == 1
        assert table.records[0].answers["medical"] is None

    def test_missing_required_column_is_schema_error(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("trial_id,juror_id,is_black,eligible,accused\nt1,j1,0,1,1\n")
        with pytest.raises(SchemaError, match="struck_by_state"):
            load_csv(path, ("accused",))

    def test_missing_feature_column_is_schema_error(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            "trial_id,juror_id,is_black,struck_by_state,eligible\nt1,j1,0,1,1\n"
        )
        with pytest.raises(SchemaError, match="accused"):
            load_csv(path, ("accused",))

    def test_bad_cell_is_parse_error_with_location(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            "trial_id,juror_id,is_black,struck_by_state,eligible,accused\n"
            "t1,j1,0,1,1,2\n"
        )
        with pytest.raises(ParseError, match="row 2.*accused"):
            load_csv(path, ("accused",))

    def test_duplicate_juror_within_trial_rejected(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            "trial_id,juror_id,is_black,struck_by_state,eligible,accused\n"
            "t1,j1,0,1,1,1\nt1,j1,0,0,1,0\n"
        )
        with pytest.raises(ParseError, match="duplicate"):
            load_csv(path, ("accused",))


class TestFilterEligible:
    def test_all_eligible_identity(self):
        table = JurorTable(
            records=[make_record(i, answers={"accused": False}) for i in range(3)],
            feature_catalog=("accused",),
        )
        assert filter_eligible(table).records == table.records

    def test_none_eligible_empty(self):
        table = JurorTable(
            records=[make_record(i, eligible=False, answers={}) for i in range(3)],
            feature_catalog=("accused",),
        )
        assert len(filter_eligible(table)) == 0

    def test_mixed_preserves_order(self):
        records = [
            make_record(i, eligible=(i % 2 == 0), answers={}) for i in range(8)
        ]
        table = JurorTable(records=records, feature_catalog=("accused",))
        kept = filter_eligible(table).records
        assert [r.juror_id for r in kept] == [f"j{i}" for i in range(0, 8, 2)]


class TestAnswerMatrix:
    def test_named_columns_flags_and_missing_as_no(self):
        x, is_black, struck, complete = answer_matrix(small_table(), ("medical", "accused"))
        assert x.tolist() == [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        assert is_black.tolist() == [True, False, True, False]
        assert struck.tolist() == [True, False, False, True]
        assert complete.tolist() == [True, False, True, True]

    def test_unanswered_key_is_missing(self):
        table = JurorTable(records=[make_record(0, answers={"accused": True})],
                           feature_catalog=("accused", "know_def"))
        x, _, _, complete = answer_matrix(table, ("accused", "know_def"))
        assert x.tolist() == [[1.0, 0.0]]
        assert complete.tolist() == [False]

    def test_column_outside_catalog_rejected(self):
        with pytest.raises(SchemaError, match="fam_accused"):
            answer_matrix(small_table(), ("accused", "fam_accused"))

    def test_empty_table(self):
        x, is_black, struck, complete = answer_matrix(JurorTable([], CATALOG), CATALOG)
        assert x.shape == (0, 3) and is_black.size == struck.size == complete.size == 0


class TestBuildMatrix:
    def test_no_missing(self):
        table = small_table()
        m = build_matrix(table)
        assert m.x.shape == (4, 1 + len(CATALOG))
        assert m.columns[0] == "is_black"
        assert m.y.tolist() == [1, 0, 0, 1]
        assert m.race_columns == frozenset({0})

    def test_as_no_maps_missing_to_zero(self):
        table = small_table()
        m = build_matrix(table, "as_no")
        medical = m.columns.index("medical")
        assert m.x[1, medical] == 0.0

    def test_drop_row_removes_incomplete_rows(self):
        table = small_table()
        m = build_matrix(table, "drop_row")
        assert m.n == 3  # record j2 has a missing medical answer

    def test_drop_row_all_dropped_is_degenerate(self):
        records = [make_record(0, answers={"accused": None})]
        table = JurorTable(records=records, feature_catalog=("accused",))
        with pytest.raises(DegenerateDataError):
            build_matrix(table, "drop_row")

    def test_constant_column_dropped_and_reported(self):
        records = [
            make_record(i, struck=(i % 2 == 0),
                        answers={"accused": bool(i % 2), "know_def": False})
            for i in range(6)
        ]
        table = JurorTable(records=records, feature_catalog=("accused", "know_def"))
        m = build_matrix(table)
        assert "know_def" in m.dropped_columns
        assert "is_black" in m.dropped_columns  # constant too in this table
        assert "know_def" not in m.columns

    def test_empty_table_rejected(self):
        table = JurorTable(records=[], feature_catalog=("accused",))
        with pytest.raises(DegenerateDataError):
            build_matrix(table)

    def test_same_race_marked_as_race_column(self):
        records = [
            make_record(i, black=(i % 2 == 0), struck=(i % 3 == 0),
                        answers={"same_race": bool(i % 2), "accused": i < 3})
            for i in range(6)
        ]
        table = JurorTable(records=records, feature_catalog=("same_race", "accused"))
        m = build_matrix(table)
        names = {m.columns[j] for j in m.race_columns}
        assert names == {"is_black", "same_race"}
        assert set(m.without_race().columns) == {"accused"}


def balanced_matrix(n=100, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, (n, 3)).astype(float)
    y = np.array([0, 1] * (n // 2))
    return FeatureMatrix(x=x, columns=("a", "b", "c"), y=y)


class TestSplit:
    def test_stratified_counts(self):
        m = balanced_matrix(100)
        train, test = split(m, 0.7, seed=1)
        assert train.n == 70 and test.n == 30
        assert train.y.sum() == 35 and test.y.sum() == 15

    def test_same_seed_identical(self):
        m = balanced_matrix(100)
        a_train, a_test = split(m, 0.7, seed=5)
        b_train, b_test = split(m, 0.7, seed=5)
        assert np.array_equal(a_train.x, b_train.x)
        assert np.array_equal(a_test.x, b_test.x)

    def test_different_seeds_differ(self):
        m = balanced_matrix(100, seed=3)
        differing = 0
        for s in range(10):
            a, _ = split(m, 0.7, seed=2 * s)
            b, _ = split(m, 0.7, seed=2 * s + 1)
            if not np.array_equal(a.x, b.x):
                differing += 1
        assert differing >= 9

    def test_partition_property(self):
        m = balanced_matrix(50, seed=7)
        train, test = split(m, 0.6, seed=2)
        combined = np.vstack([np.column_stack([train.x, train.y]),
                              np.column_stack([test.x, test.y])])
        original = np.column_stack([m.x, m.y])
        assert sorted(map(tuple, combined)) == sorted(map(tuple, original))

    def test_small_input_rejected(self):
        m = balanced_matrix(8)
        with pytest.raises(ValueError):
            split(m, 0.7, seed=0)

    def test_tiny_stratum_rejected(self):
        x = np.random.default_rng(0).integers(0, 2, (12, 2)).astype(float)
        y = np.zeros(12, dtype=int)
        y[0] = 1
        m = FeatureMatrix(x=x, columns=("a", "b"), y=y)
        with pytest.raises(StratificationError):
            split(m, 0.7, seed=0)


class TestStratifiedFolds:
    def test_partition_and_stratification(self):
        y = np.array([0, 1] * 30)
        folds = stratified_folds(y, 5, seed=0)
        all_val = np.concatenate([va for _, va in folds])
        assert sorted(all_val.tolist()) == list(range(60))
        for tr, va in folds:
            assert set(np.unique(y[va])) == {0, 1}
            assert set(np.unique(y[tr])) == {0, 1}

    def test_single_class_fold_rejected(self):
        y = np.array([0] * 20 + [1] * 2)
        with pytest.raises(StratificationError):
            stratified_folds(y, 5, seed=0)


def paper_shaped_spec():
    """Depth-4 caterpillar: accused, then know_def, then fam_accused,
    then death_hesitation; rates from the published node list."""
    leaf = lambda name: SplitSpec(leaf_id=name)
    tree = SplitSpec(
        feature="accused",
        right=leaf("accused_yes"),
        left=SplitSpec(
            feature="know_def",
            right=leaf("knows_def"),
            left=SplitSpec(
                feature="fam_accused",
                right=leaf("fam_accused_yes"),
                left=SplitSpec(
                    feature="death_hesitation",
                    right=leaf("death_hesitant"),
                    left=leaf("remainder"),
                ),
            ),
        ),
    )
    return tree


def paper_shaped_config(n, rates=None, black_fraction=0.5):
    rates = rates or {
        "accused_yes": (0.93, 0.93),
        "knows_def": (0.65, 0.65),
        "fam_accused_yes": (0.56, 0.56),
        "death_hesitant": (1.0, 1.0),
        "remainder": (0.17, 0.17),
    }
    return SynthConfig(
        n=n,
        tree_spec=paper_shaped_spec(),
        leaf_rates=rates,
        black_fraction=black_fraction,
        feature_marginals={
            "accused": 0.25,
            "know_def": 0.30,
            "fam_accused": 0.35,
            "death_hesitation": 0.30,
        },
    )


def leaf_counts(table, cfg):
    """(black struck/total, nonblack struck/total) per leaf id."""
    out = {leaf: [0, 0, 0, 0] for leaf in cfg.tree_spec.leaves()}
    for r in table.records:
        node = cfg.tree_spec
        while not node.is_leaf:
            node = node.right if r.answers[node.feature] else node.left
        tally = out[node.leaf_id]
        if r.is_black:
            tally[0] += int(r.struck_by_state)
            tally[1] += 1
        else:
            tally[2] += int(r.struck_by_state)
            tally[3] += 1
    return out


class TestSynthGenerate:
    def test_empty(self):
        cfg = paper_shaped_config(0)
        table = synth_generate(cfg, seed=0)
        assert len(table) == 0
        assert table.feature_catalog == tuple(cfg.feature_marginals)

    def test_determinism(self):
        cfg = paper_shaped_config(500)
        a = synth_generate(cfg, seed=9)
        b = synth_generate(cfg, seed=9)
        assert a.records == b.records

    def test_disparate_leaf_rates_recovered(self):
        # the knows-defendant leaf planted at 85% black vs 20% non-black
        rates = {
            "accused_yes": (0.93, 0.93),
            "knows_def": (0.85, 0.20),
            "fam_accused_yes": (0.56, 0.56),
            "death_hesitant": (1.0, 1.0),
            "remainder": (0.17, 0.17),
        }
        cfg = paper_shaped_config(100_000, rates=rates)
        table = synth_generate(cfg, seed=13)
        sb, nb, sn, nn = leaf_counts(table, cfg)["knows_def"]
        assert sb / nb == pytest.approx(0.85, abs=0.02)
        assert sn / nn == pytest.approx(0.20, abs=0.02)

    def test_equal_rates_ignore_race_mix(self):
        # a 17% leaf stays at 17% overall regardless of the race mix
        for bf in (0.2, 0.8):
            cfg = paper_shaped_config(60_000, black_fraction=bf)
            table = synth_generate(cfg, seed=3)
            sb, nb, sn, nn = leaf_counts(table, cfg)["remainder"]
            assert (sb + sn) / (nb + nn) == pytest.approx(0.17, abs=0.02)

    def test_race_conditioned_marginals(self):
        cfg = SynthConfig(
            n=40_000,
            tree_spec=SplitSpec(leaf_id="all"),
            leaf_rates={"all": (0.3, 0.3)},
            black_fraction=0.5,
            feature_marginals={"know_def": {"black": 0.6, "nonblack": 0.1}},
        )
        table = synth_generate(cfg, seed=21)
        by_race = {True: [0, 0], False: [0, 0]}
        for r in table.records:
            by_race[r.is_black][0] += int(r.answers["know_def"])
            by_race[r.is_black][1] += 1
        assert by_race[True][0] / by_race[True][1] == pytest.approx(0.6, abs=0.02)
        assert by_race[False][0] / by_race[False][1] == pytest.approx(0.1, abs=0.02)

    def test_missing_leaf_rate_rejected(self):
        with pytest.raises(ValueError, match="leaf_rates"):
            SynthConfig(
                n=10,
                tree_spec=paper_shaped_spec(),
                leaf_rates={"accused_yes": (0.9, 0.9)},
                black_fraction=0.5,
                feature_marginals={f: 0.3 for f in paper_shaped_spec().features()},
            )

    def test_json_round_trip(self):
        cfg = paper_shaped_config(100)
        back = SynthConfig.from_json(cfg.to_json())
        assert back.to_json() == cfg.to_json()
        assert synth_generate(back, 5).records == synth_generate(cfg, 5).records

    def test_null_rates_do_not_plant_bias(self):
        # equal rates for both races: Fisher p-values behave like a null.
        cfg = SynthConfig(
            n=2000,
            tree_spec=SplitSpec(leaf_id="all"),
            leaf_rates={"all": (0.3, 0.3)},
            black_fraction=0.5,
            feature_marginals={"accused": 0.25},
        )
        significant = 0
        for seed in range(100):
            table = synth_generate(cfg, seed=seed)
            a = sum(r.is_black and r.struck_by_state for r in table.records)
            b = sum(r.is_black and not r.struck_by_state for r in table.records)
            c = sum((not r.is_black) and r.struck_by_state for r in table.records)
            d = sum((not r.is_black) and not r.struck_by_state for r in table.records)
            if fisher_exact(ContingencyTable(a, b, c, d)) < 0.05:
                significant += 1
        assert significant <= 10
