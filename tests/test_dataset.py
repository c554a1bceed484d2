import csv
import dataclasses
import io
import sys
from contextlib import contextmanager
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strikeaudit.dataset import (
    MISSING_POLICIES,
    REQUIRED_COLUMNS,
    FeatureMatrix,
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
    _decode_csv,
    _decode_plain,
)
from strikeaudit.errors import (
    DegenerateDataError,
    ParseError,
    SchemaError,
    StratificationError,
    StrikeAuditError,
)
from strikeaudit.stats import ContingencyTable, fisher_exact

from oracles import (
    reference_answer_matrix,
    reference_build_matrix,
    reference_load_csv,
    table_from_records,
    table_records,
)


def make_record(i, trial="t1", black=False, struck=False, eligible=True, answers=None):
    return {
        "trial_id": trial,
        "juror_id": f"j{i}",
        "is_black": black,
        "struck_by_state": struck,
        "eligible": eligible,
        "answers": answers or {},
    }


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
    return table_from_records(records, CATALOG)


class TestCsv:
    def test_full_round_trip(self, tmp_path):
        table = small_table()
        path = tmp_path / "jurors.csv"
        write_csv(table, path)
        back = load_csv(path, CATALOG)
        assert table_records(back) == table_records(table)
        assert back.feature_catalog == table.feature_catalog

    def test_three_rows_no_missing(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            "trial_id,juror_id,is_black,struck_by_state,eligible,accused\n"
            "t1,j1,0,1,1,1\nt1,j2,1,0,1,0\nt2,j1,0,0,1,0\n"
        )
        table = load_csv(path, ("accused",))
        assert len(table) == 3
        assert table.answers.tolist() == [[1], [0], [0]]

    def test_empty_cell_maps_to_missing(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            "trial_id,juror_id,is_black,struck_by_state,eligible,medical\n"
            "t1,j1,0,1,1,\n"
        )
        table = load_csv(path, ("medical",))
        assert len(table) == 1
        assert table.answers.tolist() == [[-1]]

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
        with pytest.raises(ParseError, match="line 2.*accused"):
            load_csv(path, ("accused",))

    def test_duplicate_juror_within_trial_rejected(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            "trial_id,juror_id,is_black,struck_by_state,eligible,accused\n"
            "t1,j1,0,1,1,1\nt1,j1,0,0,1,0\n"
        )
        with pytest.raises(ParseError, match="duplicate"):
            load_csv(path, ("accused",))

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = "trial_id,juror_id,is_black,struck_by_state,eligible,accused\nt1,j1,0,1,1,1\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert table_records(load_csv(marked, ("accused",))) == table_records(
            load_csv(plain, ("accused",))
        )

    def test_duplicate_header_column_is_schema_error(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            "trial_id,juror_id,is_black,struck_by_state,eligible,accused,accused\n"
            "t1,j1,0,1,1,1,0\n"
        )
        with pytest.raises(SchemaError, match="'accused' appears more than once"):
            load_csv(path, ("accused",))

    def test_catalog_naming_a_column_twice_is_schema_error(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            "trial_id,juror_id,is_black,struck_by_state,eligible,accused,know_def\n"
            "t1,j1,0,1,1,1,0\n"
        )
        with pytest.raises(SchemaError, match="'accused' more than once"):
            load_csv(path, ("accused", "know_def", "accused"))

    def test_error_names_file_line_after_blank_line(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            "trial_id,juror_id,is_black,struck_by_state,eligible,accused\n"
            "t1,j1,0,1,1,1\n"
            "\n"
            "t1,j2,0,1,1,2\n"
        )
        with pytest.raises(ParseError, match=r"^line 4, column 'accused': expected 0 or 1, got '2'$"):
            load_csv(path, ("accused",))

    def test_error_names_file_line_after_quoted_newline(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            "trial_id,juror_id,is_black,struck_by_state,eligible,accused\n"
            't1,"j\n1",0,1,1,1\n'
            "t1,j2,0,x,1,0\n"
        )
        with pytest.raises(ParseError, match=r"^line 4, column 'struck_by_state'"):
            load_csv(path, ("accused",))

    def test_short_row_names_its_field_count(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            "trial_id,juror_id,is_black,struck_by_state,eligible,accused\n"
            "t1,j1,0,1,1,1\n"
            "t1,j2,0,1\n"
        )
        with pytest.raises(ParseError, match=r"^line 3 has 4 fields, header has 6$"):
            load_csv(path, ("accused",))

    def test_long_row_names_its_field_count(self, tmp_path):
        # an unquoted id holding a comma: its row used to load shifted, the
        # juror read as ineligible
        path = tmp_path / "in.csv"
        path.write_text(
            "trial_id,juror_id,is_black,struck_by_state,eligible,accused\n"
            "t1,j1,0,1,1,1\n"
            "t1,j2,1,1,0,1,0\n"
        )
        with pytest.raises(ParseError, match=r"^line 3 has 7 fields, header has 6$"):
            load_csv(path, ("accused",))

    def test_bad_cell_before_short_row_is_reported_first(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            "trial_id,juror_id,is_black,struck_by_state,eligible,accused\n"
            "t1,j1,0,1,,1\n"
            "t1,j2\n"
        )
        with pytest.raises(ParseError, match=r"^line 2, column 'eligible': .* got ''$"):
            load_csv(path, ("accused",))

    def test_quote_free_file_loads_without_csv_reader(self, tmp_path, monkeypatch):
        table = small_table()
        path = tmp_path / "jurors.csv"
        write_csv(table, path)

        def no_reader(*args, **kwargs):
            raise AssertionError("csv.reader called")

        monkeypatch.setattr(csv, "reader", no_reader)
        assert table_records(load_csv(path, CATALOG)) == table_records(table)

    def test_binary_file_object_is_read_once(self, tmp_path):
        table = small_table()
        path = tmp_path / "jurors.csv"
        write_csv(table, path)
        quoted = io.StringIO()
        csv.writer(quoted, quoting=csv.QUOTE_ALL).writerows(csv.reader(io.StringIO(path.read_text())))
        for data in (path.read_bytes(), quoted.getvalue().encode()):
            source = io.BytesIO(data)
            assert table_records(load_csv(source, CATALOG)) == table_records(table)
            assert source.read() == b""

    def test_field_over_the_limit_is_parse_error_naming_its_line(self, tmp_path):
        limit = csv.field_size_limit()
        path = tmp_path / "in.csv"
        head = "trial_id,juror_id,is_black,struck_by_state,eligible,accused\n"
        path.write_text(head + "t1,j1,0,1,1,1\n" + f"t1,{'j' * limit},0,1,1,0\n")
        assert len(load_csv(path, ("accused",))) == 2
        path.write_text(head + "t1,j1,0,1,1,1\n" + f"t1,{'j' * (limit + 1)},0,1,1,0\n")
        with pytest.raises(ParseError, match=rf"^line 3: field larger than field limit \({limit}\)$"):
            load_csv(path, ("accused",))

    def test_bad_cell_before_a_field_over_the_limit_is_reported_first(self, tmp_path):
        limit = csv.field_size_limit()
        path = tmp_path / "in.csv"
        path.write_text(
            "trial_id,juror_id,is_black,struck_by_state,eligible,accused\n"
            "t1,j1,0,1,1,2\n"
            "t1,j2,0,1,1,1\n"
            f"t1,{'j' * (limit + 1)},0,1,1,0\n"
        )
        with pytest.raises(ParseError, match=r"^line 2, column 'accused': expected 0 or 1, got '2'$"):
            load_csv(path, ("accused",))

    def test_field_over_the_limit_before_a_bad_cell_is_reported_first(self, tmp_path):
        limit = csv.field_size_limit()
        path = tmp_path / "in.csv"
        path.write_text(
            "trial_id,juror_id,is_black,struck_by_state,eligible,accused\n"
            f"t1,{'j' * (limit + 1)},0,1,1,0\n"
            "t1,j2,0,1,1,1\n"
            "t1,j1,0,1,1,2\n"
        )
        with pytest.raises(ParseError, match=rf"^line 2: field larger than field limit \({limit}\)$"):
            load_csv(path, ("accused",))

    def test_line_over_the_field_limit_loads(self, tmp_path):
        # the array decoder declines a line longer than the field limit;
        # csv.reader reads it, as no field is over the limit
        with field_size_limit(len("struck_by_state")):
            path = tmp_path / "in.csv"
            path.write_text("trial_id,juror_id,is_black,struck_by_state,eligible,accused\n"
                            "t1,j1,0,1,1,1\n")
            assert _decode_plain(path.read_bytes(), ("accused",)) is None
            assert load_csv(path, ("accused",)).juror_id.tolist() == ["j1"]

    def test_nul_byte(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_bytes(b"trial_id,juror_id,is_black,struck_by_state,eligible,accused\n"
                         b"t1,j1\0,0,1,1,1\n")
        if sys.version_info < (3, 11):  # csv.reader rejects NUL before 3.11
            with pytest.raises(ParseError, match=r"^line 2: line contains NUL$"):
                load_csv(path, ("accused",))
        else:
            assert load_csv(path, ("accused",)).juror_id.tolist() == ["j1\0"]

    @pytest.mark.parametrize("data", [
        b"trial_id,juror_id,is_black,struck_by_state,eligible,accused\r\nt1,j1,0,1,1,1\n",
        b"trial_id,juror_id,is_black,struck_by_state,eligible,accused\nt1,j1,0,1,1,1\r",
        b"trial_id,juror_id,is_black,struck_by_state,eligible,accused\nt1,j\r1,0,1,1,1\n",
        b"trial_id,juror_id,is_black,struck_by_state,eligible,accused\n\nt1,j1,0,1,1,1\n",
        b"trial_id,juror_id,is_black,struck_by_state,eligible,accused\nt1,j1,0,1,1,1\n\n",
        b"trial_id,juror_id,is_black,struck_by_state,eligible,accused\nt1,\"j1\",0,1,1,1\n",
        b"trial_id,juror_id,is_black,struck_by_state,eligible,accused\nt1,j1,0,1,1,10\n",
        b"trial_id,juror_id,is_black,struck_by_state,eligible,accused\nt1,j1,0,1,1,/\n",
        b"trial_id,juror_id,is_black,struck_by_state,eligible,accused\nt1,j\xff,0,1,1,1\n",
        b"trial_id,juror_id,is_black,struck_by_state,eligible,accused\nt1,j1,0,1,,1\n",
        b"trial_id,juror_id,is_black,struck_by_state,eligible,accused\nt1,j1,0,1,1\n",
        b"trial_id,juror_id,is_black,struck_by_state,eligible\nt1,j1,0,1,1\n",
        b"trial_id,juror_id,is_black,struck_by_state,eligible,accused\n",
    ])
    def test_array_decoder_declines_what_csv_reader_must_read(self, data):
        assert _decode_plain(data, ("accused",)) is None

    @pytest.mark.parametrize("data", [
        b"trial_id,juror_id,is_black,struck_by_state,eligible,accused\r\nt1,j1,0,1,1,\r\n",
        b"\xef\xbb\xbftrial_id,juror_id,is_black,struck_by_state,eligible,accused\nt1,j1,0,1,1,1",
        b"accused,trial_id,juror_id,is_black,struck_by_state,eligible\n,t1,,0,1,1",
        b"accused,is_black,struck_by_state,eligible,trial_id,juror_id\r\n1,0,1,1,t1,j1\r\n"
        b"0,0,1,1,t1,",
        "trial_id,juror_id,is_black,struck_by_state,eligible,accused\nt\u00e9,j 1,0,1,1,0\n"
        .encode(),
    ])
    def test_array_decoder_reads_what_csv_reader_reads(self, data):
        table = _decode_plain(data, ("accused",))
        assert table is not None
        assert_same_fields(table, _decode_csv(data, ("accused",)))


# csv.writer cannot write a NUL before Python 3.11, nor csv.reader read one
NUL_IDS = ["j1\0"] if sys.version_info >= (3, 11) else []


@contextmanager
def field_size_limit(limit):
    """csv.field_size_limit set to limit inside the block, restored after."""
    old = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


# every catalog of one to three of the answer columns, in every order
CATALOGS = [list(c) for k in (1, 2, 3) for c in permutations(["a1", "a2", "a3"], k)]


@st.composite
def juror_files(draw, faults=True):
    """(file bytes, catalog, csv field size limit): a header in random order
    with an unused column, ids that repeat across trials, flags, answers
    1/0/"", line ends \\r\\n or \\n (now and then a lone \\r), and now and then
    a blank line, a malformed cell, a short or long row, a last record
    without a line end, a byte-order mark or a catalog name that collides
    with a flag. Now and then the limit is lowered to no less than the
    longest header name, and an id may be one character over it. Half the
    files hold cells that only csv.reader reads: quoted ones (an id holding a
    comma, an id or note holding a newline) and, where csv can write and
    read it, an id holding a NUL. The other half are for the array decoder.

    With faults=False every file is one that load_csv and build_matrix
    accept: a sorted header, no fault, no lone \\r, no id repeated within a
    trial, and an eligible last record.

    Hypothesis mutates a draw by copying another span with the same label
    over it, and the copy overruns the draw when it changes how many values
    follow. So the catalog and the record count come from sampled_from
    strategies of their own, and each record draws every cell."""
    catalog = list(draw(st.sampled_from(CATALOGS)))
    if faults and draw(st.integers(0, 9)) == 0:
        catalog.append("eligible")
    header = sorted({*REQUIRED_COLUMNS, *catalog, "note"})
    if faults:
        header = draw(st.permutations(header))
    csv_only = draw(st.booleans())
    cells = {
        "trial_id": st.sampled_from(["t1", "t2"]),
        "juror_id": st.sampled_from([f"j{i}" for i in range(12)]
                                    + ["j,12", "j\n13", *NUL_IDS] * csv_only),
        "note": st.text(alphabet="ab \n" if csv_only else "ab ", max_size=3),
        **{c: st.sampled_from(["0", "1"]) for c in REQUIRED_COLUMNS[2:]},
        **{c: st.sampled_from(["1", "0", ""]) for c in ("a1", "a2", "a3")},
    }
    limit = csv.field_size_limit()
    if draw(st.integers(0, 4)) == 0:
        limit = draw(st.integers(max(map(len, header)), 20))
    eol = draw(st.sampled_from(["\r\n"] * 3 + ["\n"] * 3 + ["\r"] * faults))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=eol)
    writer.writerow(header)
    n_rows = draw(st.sampled_from(range(0 if faults else 1, 9)))
    for i in range(n_rows):
        if draw(st.integers(0, 9)) == 0:
            out.write(eol)
        cell = draw(st.fixed_dictionaries(cells))
        if not faults:  # the record number ends each id, so none repeats
            cell["juror_id"] += str(i)
            if i == n_rows - 1:
                cell["eligible"] = "1"
        row = [cell[c] for c in header]
        fault = draw(st.integers(0, 29)) if faults else 29  # 6 and over: none
        if fault < 2:  # a cell outside its alphabet ("" is one for a flag)
            row[draw(st.integers(0, len(row) - 1))] = ("", "2")[fault]
        elif fault == 2:
            row = row[: draw(st.integers(1, len(row) - 1))]
        elif fault == 3:
            row += [draw(cells["note"]) for _ in range(draw(st.integers(1, 2)))]
        elif fault < 6 and limit < csv.field_size_limit():
            row[header.index("juror_id")] = "j" * (limit + 1)
        writer.writerow(row)
    text = out.getvalue()
    if draw(st.integers(0, 4)) == 0:
        text = text.removesuffix(eol)
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + text).encode("utf-8"), tuple(catalog), limit


def _outcome(fn):
    try:
        return fn(), None
    except StrikeAuditError as exc:
        return None, exc


class TestLoaderOracle:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("oracle") / "jurors.csv"

    @given(juror_files())
    @settings(max_examples=300, deadline=None)
    def test_columnar_loader_matches_reference(self, path, drawn):
        data, catalog, limit = drawn
        path.write_bytes(data)
        with field_size_limit(limit):
            records, want_exc = _outcome(lambda: reference_load_csv(path, catalog))
            table, exc = _outcome(lambda: load_csv(path, catalog))
            # the array decoder reads a file only to csv.reader's table
            plain, plain_exc = _outcome(lambda: _decode_plain(data, catalog))
            if plain is not None or plain_exc is not None:
                read, read_exc = _outcome(lambda: _decode_csv(data, catalog))
                assert (type(plain_exc), str(plain_exc)) == (type(read_exc), str(read_exc))
                if plain is not None:
                    assert_same_fields(plain, read)
        if want_exc is not None:
            # the same fault: same class, same message naming line and column
            assert (type(exc), str(exc)) == (type(want_exc), str(want_exc))
            return
        assert exc is None
        assert table_records(table) == records
        columns = catalog[::-1]
        for got, want in zip(answer_matrix(table, columns), reference_answer_matrix(records, columns)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        for policy in MISSING_POLICIES:
            want = reference_build_matrix(records, catalog, policy)
            if want is None:
                with pytest.raises(DegenerateDataError):
                    build_matrix(table, policy)
                continue
            m = build_matrix(table, policy)
            assert np.array_equal(m.x, want[0]) and m.columns == want[1]
            assert np.array_equal(m.y, want[2]) and m.dropped_columns == want[3]


def assert_rebuilds(obj):
    """obj equals itself rebuilt through its class's checked constructor; the
    rebuild also shows that obj passes every check."""
    names = [f.name for f in dataclasses.fields(obj)]
    assert_same_fields(obj, type(obj)(*(getattr(obj, name) for name in names)))


def assert_same_fields(obj, other):
    """Two dataclass objects agree field by field: values, dtypes and shapes
    of arrays, type and value of everything else."""
    for name in (f.name for f in dataclasses.fields(obj)):
        got, want = getattr(obj, name), getattr(other, name)
        assert type(got) is type(want), name
        if isinstance(got, np.ndarray):
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert np.array_equal(got, want), name
        else:
            assert got == want, name


class TestCheckedSubsets:
    """Subsets of a checked table or matrix skip the constructor's checks;
    they must be what the checked constructor would have built."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("subsets") / "jurors.csv"

    @given(juror_files(faults=False), st.data())
    @settings(max_examples=200, deadline=None)
    def test_subsets_equal_their_checked_rebuild(self, path, drawn, data):
        raw, catalog, limit = drawn
        path.write_bytes(raw)
        with field_size_limit(limit):
            table = load_csv(path, catalog)
        eligible = filter_eligible(table)
        assert_rebuilds(eligible)
        m = build_matrix(eligible)
        # at least 10 rows, with repeats, so that about half the draws split
        rows = m.take_rows(data.draw(st.lists(st.integers(0, m.n - 1), min_size=10, max_size=24)))
        drop = data.draw(st.sets(st.integers(0, m.p - 1))) if m.p else set()
        subsets = [rows, m.take_rows([]), m.without_columns(drop), m.without_race(),
                   rows.without_race()]
        if rows.n >= 10 and min(rows.y.sum(), rows.n - rows.y.sum()) >= 2:
            subsets += split(rows, 0.7, seed=data.draw(st.integers(0, 3)))
        for subset in subsets:
            assert_rebuilds(subset)


class TestTakeRows:
    def test_boolean_mask_rejected(self):
        # Read as indices, [False, True, True] would be rows 0, 1, 1.
        m = FeatureMatrix(x=np.eye(3), columns=("a", "b", "c"), y=np.array([0, 1, 1]))
        with pytest.raises(ValueError, match="row indices"):
            m.take_rows([False, True, True])
        with pytest.raises(ValueError, match="row indices"):
            m.take_rows(np.array([False, True, True]))


class TestJurorTable:
    def test_first_duplicate_in_row_order_is_named(self):
        # (t1, j3) is the first row to repeat an earlier one; (t1, j2) and
        # (t2, j1) repeat later, though their first rows come before j3's
        trials = ["t2", "t1", "t1", "t1", "t1", "t1", "t2"]
        jurors = ["j1", "j1", "j2", "j3", "j3", "j2", "j1"]
        flags = [False] * 7
        with pytest.raises(ParseError, match=r"^duplicate juror_id 'j3' within trial 't1'$"):
            JurorTable(("accused",), trials, jurors, flags, flags, flags, [[0]] * 7)

    def test_columns_are_coerced(self):
        table = JurorTable(("accused",), ["t1", "t1"], ["j1", "j2"], [1, 0], [0, 1], [1, 1], [1, -1])
        assert table.is_black.dtype == bool and table.is_black.tolist() == [True, False]
        assert table.answers.dtype == np.int8 and table.answers.tolist() == [[1], [-1]]
        assert len(table) == 2

    def test_column_of_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="one entry per juror"):
            JurorTable(("accused",), ["t1"], ["j1", "j2"], [True], [False], [True], [[1]])

    def test_answer_outside_codes_rejected(self):
        with pytest.raises(ValueError, match="answers"):
            JurorTable(("accused",), ["t1"], ["j1"], [True], [False], [True], [[2]])

    def test_catalog_colliding_with_required_column_rejected(self):
        with pytest.raises(SchemaError, match="eligible"):
            JurorTable(("eligible",), ["t1"], ["j1"], [True], [False], [True], [[1]])


class TestFilterEligible:
    def test_all_eligible_identity(self):
        table = table_from_records(
            [make_record(i, answers={"accused": False}) for i in range(3)], ("accused",)
        )
        assert table_records(filter_eligible(table)) == table_records(table)

    def test_none_eligible_empty(self):
        table = table_from_records(
            [make_record(i, eligible=False, answers={}) for i in range(3)], ("accused",)
        )
        assert len(filter_eligible(table)) == 0

    def test_mixed_preserves_order(self):
        records = [
            make_record(i, eligible=(i % 2 == 0), answers={}) for i in range(8)
        ]
        table = table_from_records(records, ("accused",))
        kept = filter_eligible(table)
        assert kept.juror_id.tolist() == [f"j{i}" for i in range(0, 8, 2)]


class TestAnswerMatrix:
    def test_named_columns_flags_and_missing_as_no(self):
        x, is_black, struck, complete = answer_matrix(small_table(), ("medical", "accused"))
        assert x.tolist() == [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        assert is_black.tolist() == [True, False, True, False]
        assert struck.tolist() == [True, False, False, True]
        assert complete.tolist() == [True, False, True, True]

    def test_unanswered_key_is_missing(self):
        table = table_from_records([make_record(0, answers={"accused": True})],
                                   ("accused", "know_def"))
        x, _, _, complete = answer_matrix(table, ("accused", "know_def"))
        assert x.tolist() == [[1.0, 0.0]]
        assert complete.tolist() == [False]

    def test_column_outside_catalog_rejected(self):
        with pytest.raises(SchemaError, match="fam_accused"):
            answer_matrix(small_table(), ("accused", "fam_accused"))

    def test_empty_table(self):
        x, is_black, struck, complete = answer_matrix(table_from_records([], CATALOG), CATALOG)
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
        table = table_from_records(records, ("accused",))
        with pytest.raises(DegenerateDataError):
            build_matrix(table, "drop_row")

    def test_constant_column_dropped_and_reported(self):
        records = [
            make_record(i, struck=(i % 2 == 0),
                        answers={"accused": bool(i % 2), "know_def": False})
            for i in range(6)
        ]
        table = table_from_records(records, ("accused", "know_def"))
        m = build_matrix(table)
        assert "know_def" in m.dropped_columns
        assert "is_black" in m.dropped_columns  # constant too in this table
        assert "know_def" not in m.columns

    def test_empty_table_rejected(self):
        table = table_from_records([], ("accused",))
        with pytest.raises(DegenerateDataError):
            build_matrix(table)

    def test_same_race_marked_as_race_column(self):
        records = [
            make_record(i, black=(i % 2 == 0), struck=(i % 3 == 0),
                        answers={"same_race": bool(i % 2), "accused": i < 3})
            for i in range(6)
        ]
        table = table_from_records(records, ("same_race", "accused"))
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

    def test_labels_other_than_zero_and_one_rejected(self):
        # Rows with another label would keep an unassigned fold.
        y = np.array([0, 1] * 10 + [2] * 5)
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
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
    for r in table_records(table):
        node = cfg.tree_spec
        while not node.is_leaf:
            node = node.right if r["answers"][node.feature] else node.left
        tally = out[node.leaf_id]
        if r["is_black"]:
            tally[0] += int(r["struck_by_state"])
            tally[1] += 1
        else:
            tally[2] += int(r["struck_by_state"])
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
        assert table_records(a) == table_records(b)

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
        for r in table_records(table):
            by_race[r["is_black"]][0] += int(r["answers"]["know_def"])
            by_race[r["is_black"]][1] += 1
        assert by_race[True][0] / by_race[True][1] == pytest.approx(0.6, abs=0.02)
        assert by_race[False][0] / by_race[False][1] == pytest.approx(0.1, abs=0.02)

    def test_caller_dicts_unchanged(self):
        rates = {"all": [0.3, 0.2]}
        marginals = {"f": {"black": 0.6, "nonblack": 0.1}, "g": 0.4}
        cfg = SynthConfig(n=10, tree_spec=SplitSpec(leaf_id="all"), leaf_rates=rates,
                          black_fraction=0.5, feature_marginals=marginals)
        assert rates == {"all": [0.3, 0.2]}
        assert marginals == {"f": {"black": 0.6, "nonblack": 0.1}, "g": 0.4}
        assert cfg.leaf_rates == {"all": (0.3, 0.2)}
        assert cfg.feature_marginals == {"f": (0.6, 0.1), "g": (0.4, 0.4)}

    def test_missing_leaf_rate_rejected(self):
        with pytest.raises(ValueError, match="leaf_rates"):
            SynthConfig(
                n=10,
                tree_spec=paper_shaped_spec(),
                leaf_rates={"accused_yes": (0.9, 0.9)},
                black_fraction=0.5,
                feature_marginals={f: 0.3 for f in paper_shaped_spec().features()},
            )

    def test_from_json_reads_the_documented_layout(self):
        doc = {
            "n": 100,
            "tree_spec": {"feature": "accused", "left": {"leaf": "rest"},
                          "right": {"leaf": "accused_yes"}},
            "leaf_rates": {"accused_yes": [0.93, 0.93], "rest": {"black": 0.6, "nonblack": 0.2}},
            "black_fraction": 0.5,
            "feature_marginals": {"accused": 0.25, "know_def": [0.6, 0.1]},
        }
        leaf = lambda name: SplitSpec(leaf_id=name)
        cfg = SynthConfig(
            n=100,
            tree_spec=SplitSpec(feature="accused", left=leaf("rest"), right=leaf("accused_yes")),
            leaf_rates={"accused_yes": (0.93, 0.93), "rest": (0.6, 0.2)},
            black_fraction=0.5,
            feature_marginals={"accused": (0.25, 0.25), "know_def": (0.6, 0.1)},
        )
        back = SynthConfig.from_json(doc)
        assert back == cfg
        assert table_records(synth_generate(back, 5)) == table_records(synth_generate(cfg, 5))

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
            black, struck = table.is_black, table.struck_by_state
            a = int(np.sum(black & struck))
            b = int(np.sum(black & ~struck))
            c = int(np.sum(~black & struck))
            d = int(np.sum(~black & ~struck))
            if fisher_exact(ContingencyTable(a, b, c, d)) < 0.05:
                significant += 1
        assert significant <= 10
