"""Juror records: CSV ingest, eligibility filtering, design matrices, splits,
and planted-bias synthetic populations for verification experiments.

All operations are pure given (input, seed).
"""

from __future__ import annotations

import codecs
import copy
import csv
import io
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateDataError,
    ParseError,
    SchemaError,
    StratificationError,
    reading_document,
)

REQUIRED_COLUMNS = ("trial_id", "juror_id", "is_black", "struck_by_state", "eligible")
FLAG_COLUMNS = REQUIRED_COLUMNS[2:]
RACE_FEATURE_NAMES = frozenset({"is_black", "same_race"})
MISSING_POLICIES = ("as_no", "drop_row")
# Answer code -> cell text; -1 (missing) indexes the last entry.
_TEXT = np.array(["0", "1", ""])


@dataclass(eq=False)
class JurorTable:
    """Jurors as columns, one row per juror in file order: the ids as object
    arrays of str (a numpy str array would strip trailing NULs), the three
    flags as bool arrays, and the answers as an int8 (n x len(feature_catalog))
    array of 1 (yes), 0 (no) or -1 (missing)."""

    feature_catalog: tuple[str, ...]
    trial_id: np.ndarray
    juror_id: np.ndarray
    is_black: np.ndarray
    struck_by_state: np.ndarray
    eligible: np.ndarray
    answers: np.ndarray

    def __post_init__(self):
        self.feature_catalog = tuple(self.feature_catalog)
        overlap = set(self.feature_catalog) & set(REQUIRED_COLUMNS)
        if overlap:
            raise SchemaError(
                f"feature catalog collides with required columns: {sorted(overlap)}"
            )
        for i, name in enumerate(self.feature_catalog):
            if name in self.feature_catalog[:i]:
                raise SchemaError(f"feature catalog names column {name!r} more than once")
        for name in REQUIRED_COLUMNS:
            dtype = bool if name in FLAG_COLUMNS else object
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))
        self.answers = np.asarray(self.answers, np.int8).reshape(len(self), len(self.feature_catalog))
        if {getattr(self, c).shape for c in REQUIRED_COLUMNS} != {(len(self),)}:
            raise ValueError("every column needs one entry per juror")
        if not np.isin(self.answers, (-1, 0, 1)).all():
            raise ValueError("answers must be 1, 0 or -1 (missing)")
        pairs = list(zip(self.trial_id.tolist(), self.juror_id.tolist()))
        if len(set(pairs)) < len(pairs):
            seen: set[tuple[str, str]] = set()
            for trial, juror in pairs:  # name the first repeat in row order
                if (trial, juror) in seen:
                    raise ParseError(f"duplicate juror_id {juror!r} within trial {trial!r}")
                seen.add((trial, juror))

    def __len__(self) -> int:
        return self.is_black.size


def load_csv(path, catalog) -> JurorTable:
    """Read juror records from a path or a binary file object; answer cells
    use "1"/"0"/"" for yes/no/missing.

    The input is read once, so a pipe will do. A UTF-8 byte-order mark is
    skipped and blank lines are ignored. A malformed file raises at its first
    fault in file order, naming the file line. A record is checked for the
    header's field count, then for bad cells, catalog columns before the
    flags. A field csv.reader rejects counts at its own line.

    A well-formed file without quotes is decoded with array operations
    (_decode_plain). Every other file, and every fault, is read one
    csv.reader record at a time (_decode_csv).
    """
    data = path.read() if hasattr(path, "read") else Path(path).read_bytes()
    catalog = tuple(catalog)
    table = _decode_plain(data, catalog)
    return _decode_csv(data, catalog) if table is None else table


def _decode_plain(data: bytes, catalog: tuple[str, ...]) -> JurorTable | None:
    r"""The table of a file that csv.reader would read to the same table,
    decoded from its bytes with no Python object per cell or row; None for
    any other file. Such a file is valid UTF-8 with no quote and no NUL. Its
    line ends are all \n or all \r\n, every line has the header's field
    count (so none is blank), no line is longer than csv.field_size_limit()
    bytes (so no field is), and every cell read is in its alphabet."""
    if b'"' in data or b"\0" in data:
        return None
    if not data.isascii():
        try:
            data.decode()
        except UnicodeDecodeError:
            return None
    lfs, crs = data.count(b"\n"), data.count(b"\r")
    if crs and (crs != lfs or data.count(b"\r\n") != crs):
        return None  # a lone \r, or line ends of both kinds
    cr = int(crs > 0)  # bytes between a line's last field and its \n
    skip = 3 if data.startswith(codecs.BOM_UTF8) else 0
    first = data.find(b"\n")
    if not 0 <= first < len(data) - 1:
        return None  # no line after the header
    header = data[skip : first - cr].decode().split(",")
    if any(header.count(c) != 1 for c in (*REQUIRED_COLUMNS, *catalog)):
        return None
    buf = np.frombuffer(data, np.uint8)[skip:]
    # Every field ends at a stop: its "," or its line's \n. Row i of grid
    # holds line i's stops, if every line has the header's field count.
    stops = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    lines = lfs
    if not data.endswith(b"\n"):  # the last line ends at the end of the data
        stops = np.append(stops, buf.size + cr)
        lines += 1
    if stops.size != lines * len(header):
        return None
    grid = stops.reshape(lines, len(header))
    # The last stop of each line is a \n, and there are no others.
    if not (buf[grid[:lfs, -1]] == ord("\n")).all():
        return None
    if np.diff(grid[:, -1], prepend=-1).max() - 1 > csv.field_size_limit():
        return None

    def field(name):
        """Each record's (start, length) of the named column's cell."""
        j = header.index(name)
        start = (grid[1:, j - 1] if j else grid[:-1, -1]) + 1
        return start, grid[1:, j] - cr * (j == len(header) - 1) - start

    def texts(name):
        r"""The named column's cells: one gather of their bytes, each
        followed by a \n, then one decode."""
        start, length = field(name)
        size = length + 1
        end = np.cumsum(size)
        # The file's last field may end at the end of the data: clip, then
        # overwrite with the \n.
        joined = buf.take(np.arange(end[-1]) + np.repeat(start - end + size, size), mode="clip")
        joined[end - 1] = ord("\n")
        return joined[:-1].tobytes().decode().split("\n")

    answers = np.empty((lines - 1, len(catalog)), np.int8)
    flags = []
    for k, name in enumerate((*catalog, *FLAG_COLUMNS)):
        start, length = field(name)
        byte = buf.take(start, mode="clip")  # an empty last field may start at the end
        one = byte == ord("1")
        valid = (length == 1) & (one | (byte == ord("0")))
        if k < len(catalog):
            valid |= length == 0
        if not valid.all():
            return None
        if k < len(catalog):
            answers[:, k] = one
            answers[length == 0, k] = -1
        else:
            flags.append(one)
    return JurorTable(catalog, texts("trial_id"), texts("juror_id"), *flags, answers)


def _decode_csv(data: bytes, catalog: tuple[str, ...]) -> JurorTable:
    """Any file, read one csv.reader record at a time; raises at the file's
    first fault."""
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline=""))
    try:
        header = next(reader, [])
        for col in (*REQUIRED_COLUMNS, *catalog):
            if col not in header:
                raise SchemaError(f"missing required column {col!r}")
            if header.count(col) > 1:
                raise SchemaError(f"column {col!r} appears more than once in the header")
        names = (*catalog, *FLAG_COLUMNS)
        alphabets = [("1", "0", "")] * len(catalog) + [("1", "0")] * len(FLAG_COLUMNS)
        index = [header.index(c) for c in (*names, "trial_id", "juror_id")]
        records = []
        for row in filter(None, reader):  # a blank line is an empty record
            if len(row) != len(header):
                raise ParseError(
                    f"line {reader.line_num} has {len(row)} fields, header has {len(header)}"
                )
            record = [row[j] for j in index]
            for name, cell, alphabet in zip(names, record, alphabets):
                if cell not in alphabet:
                    raise ParseError(
                        f"line {reader.line_num}, column {name!r}: expected 0 or 1, got {cell!r}"
                    )
            records.append(record)
    except csv.Error as exc:  # a field over csv.field_size_limit(), or NUL before 3.11
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    cells = np.array(records, object).reshape(len(records), len(index))
    ones = cells[:, : len(names)] == "1"
    answers = ones[:, : len(catalog)].astype(np.int8) - (cells[:, : len(catalog)] == "")
    trial_id, juror_id = cells[:, len(names):].T.copy()  # a view would hold every cell
    return JurorTable(catalog, trial_id, juror_id, *ones[:, len(catalog):].T, answers)


def write_csv(table: JurorTable, path) -> None:
    """Inverse of load_csv: reloading the file reproduces the table."""
    flags = np.column_stack([getattr(table, c) for c in FLAG_COLUMNS]).astype(np.int8)
    cells = _TEXT[np.column_stack([flags, table.answers])].tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*REQUIRED_COLUMNS, *table.feature_catalog])
        ids = zip(table.trial_id.tolist(), table.juror_id.tolist())
        writer.writerows([trial, juror, *rest] for (trial, juror), rest in zip(ids, cells))


def _subset(checked, **fields):
    """A copy of a JurorTable or FeatureMatrix with the given fields replaced
    by subsets of its own. A subset passes every check its source passed, so
    the constructor's checks are not run again."""
    out = copy.copy(checked)
    out.__dict__.update(fields)
    return out


def filter_eligible(table: JurorTable) -> JurorTable:
    """Keep only jurors the State could have struck, in original order."""
    keep = table.eligible
    return _subset(table, **{c: getattr(table, c)[keep] for c in (*REQUIRED_COLUMNS, "answers")})


@dataclass(frozen=True)
class FeatureMatrix:
    """Binary design matrix with named columns and a 0/1 target.

    race_columns marks the race-related columns (is_black, same_race) by
    index so models can be refit with race excluded.
    """

    x: np.ndarray
    columns: tuple[str, ...]
    y: np.ndarray
    race_columns: frozenset[int] = frozenset()
    dropped_columns: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=int))
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "race_columns", frozenset(self.race_columns))
        if self.x.ndim != 2 or self.x.shape != (self.y.size, len(self.columns)):
            raise ValueError("x must be n rows by len(columns)")
        if self.x.size and not np.isin(self.x, (0.0, 1.0)).all():
            raise ValueError("feature values must be 0 or 1")
        if self.y.size and not np.isin(self.y, (0, 1)).all():
            raise ValueError("target values must be 0 or 1")
        if any(not 0 <= j < len(self.columns) for j in self.race_columns):
            raise ValueError("race_columns out of range")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def take_rows(self, idx) -> "FeatureMatrix":
        if np.asarray(idx).dtype == bool:
            raise ValueError("take_rows takes row indices, not a boolean mask")
        idx = np.asarray(idx, dtype=int)
        return _subset(self, x=self.x[idx], y=self.y[idx])

    def without_columns(self, drop) -> "FeatureMatrix":
        drop = set(drop)
        keep = [j for j in range(self.p) if j not in drop]
        remap = {j: i for i, j in enumerate(keep)}
        return _subset(
            self,
            x=self.x[:, keep],
            columns=tuple(self.columns[j] for j in keep),
            race_columns=frozenset(remap[j] for j in self.race_columns if j in remap),
        )

    def without_race(self) -> "FeatureMatrix":
        return self.without_columns(self.race_columns)


def answer_matrix(table: JurorTable, columns) -> tuple[np.ndarray, ...]:
    """The named answers of every record as a 0/1 matrix (a missing answer
    counts as no), with the is_black, struck and complete-row flags, where a
    complete row answers every named column."""
    unknown = [c for c in columns if c not in table.feature_catalog]
    if unknown:
        raise SchemaError(f"columns not in the feature catalog: {unknown}")
    answers = table.answers[:, [table.feature_catalog.index(c) for c in columns]]
    x = np.maximum(answers, 0).astype(float, order="C")  # the column slice is column-major
    return x, table.is_black, table.struck_by_state, (answers >= 0).all(axis=1)


def build_matrix(table: JurorTable, missing_policy: str = "as_no") -> FeatureMatrix:
    """Encode a table as a binary matrix; is_black becomes the first column.

    as_no maps missing answers to 0; drop_row removes any row with a missing
    answer. Constant columns are dropped and reported via dropped_columns.
    """
    if missing_policy not in MISSING_POLICIES:
        raise ValueError(f"missing_policy must be one of {MISSING_POLICIES}")
    if not len(table):
        raise DegenerateDataError("cannot build a matrix from an empty table")
    catalog = table.feature_catalog
    answers, is_black, struck, complete = answer_matrix(table, catalog)
    x = np.column_stack([is_black, answers])
    y = struck.astype(int)
    if missing_policy == "drop_row":
        x, y = x[complete], y[complete]
    if not y.size:
        raise DegenerateDataError("all rows dropped by drop_row policy")
    columns = ("is_black", *catalog)
    constant = [j for j in range(x.shape[1]) if np.all(x[:, j] == x[0, j])]
    dropped = tuple(columns[j] for j in constant)
    if constant:
        keep = [j for j in range(x.shape[1]) if j not in set(constant)]
        x = x[:, keep]
        columns = tuple(columns[j] for j in keep)
    race = frozenset(j for j, name in enumerate(columns) if name in RACE_FEATURE_NAMES)
    return FeatureMatrix(x=x, columns=columns, y=y, race_columns=race, dropped_columns=dropped)


def _stratified_draw(y: np.ndarray, seed: int) -> list[np.ndarray]:
    """Each class's row indices in a seeded random order, class 0 then 1."""
    rng = np.random.default_rng(seed)
    return [rng.permutation(np.flatnonzero(y == label)) for label in (0, 1)]


def split(m: FeatureMatrix, train_fraction: float, seed: int) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Stratified train/test split: each class is split at train_fraction."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    if m.n < 10:
        raise ValueError(f"need at least 10 rows to split, got {m.n}")
    train_parts: list[np.ndarray] = []
    test_parts: list[np.ndarray] = []
    for label, perm in enumerate(_stratified_draw(m.y, seed)):
        if perm.size < 2:
            raise StratificationError(
                f"class {label} has {perm.size} rows; need at least 2 to split"
            )
        n_train = min(max(math.floor(perm.size * train_fraction + 0.5), 1), perm.size - 1)
        train_parts.append(perm[:n_train])
        test_parts.append(perm[n_train:])
    return (m.take_rows(np.sort(np.concatenate(train_parts))),
            m.take_rows(np.sort(np.concatenate(test_parts))))


def stratified_folds(y, folds: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic stratified k-fold assignment of 0/1 labels: list of
    (train, val) indices."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    y = np.asarray(y, dtype=int)
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be 0 or 1")
    assignment = np.empty(y.size, dtype=int)
    for perm in _stratified_draw(y, seed):
        assignment[perm] = np.arange(perm.size) % folds
    out = []
    for f in range(folds):
        val = np.flatnonzero(assignment == f)
        train = np.flatnonzero(assignment != f)
        for part, name in ((val, "validation"), (train, "training")):
            if np.count_nonzero(y[part]) in (0, part.size):
                raise StratificationError(
                    f"fold {f}: {name} part contains a single class"
                )
        out.append((train, val))
    return out


@dataclass
class SplitSpec:
    """Ground-truth tree over named binary features for synthetic generation.

    Either a leaf (leaf_id set) or a split (feature set, with left = the
    feature-absent branch and right = the feature-present branch).
    """

    feature: str | None = None
    left: "SplitSpec | None" = None
    right: "SplitSpec | None" = None
    leaf_id: str | None = None

    def __post_init__(self):
        if (self.leaf_id is None) == (self.feature is None):
            raise ValueError("node must set exactly one of leaf_id or feature")
        if self.feature is not None and (self.left is None or self.right is None):
            raise ValueError("split node needs both children")

    @property
    def is_leaf(self) -> bool:
        return self.leaf_id is not None

    def leaves(self) -> list[str]:
        if self.is_leaf:
            return [self.leaf_id]
        return self.left.leaves() + self.right.leaves()

    def features(self) -> set[str]:
        if self.is_leaf:
            return set()
        return {self.feature} | self.left.features() | self.right.features()

    @classmethod
    def from_json(cls, obj: dict) -> "SplitSpec":
        if "leaf" in obj:
            return cls(leaf_id=str(obj["leaf"]))
        return cls(
            feature=str(obj["feature"]),
            left=cls.from_json(obj["left"]),
            right=cls.from_json(obj["right"]),
        )


@dataclass
class SynthConfig:
    """Synthetic population: race mix, feature marginals, and a ground-truth
    tree whose leaves carry race-specific strike rates."""

    n: int
    tree_spec: SplitSpec
    leaf_rates: dict[str, tuple[float, float]]  # leaf id -> (black, non-black)
    black_fraction: float
    # feature -> marginal P(feature = 1), either one value or (black, non-black)
    feature_marginals: dict[str, float | tuple[float, float]]

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral) or isinstance(self.n, bool):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if not 0.0 <= self.black_fraction <= 1.0:
            raise ValueError("black_fraction must be in [0, 1]")
        missing = set(self.tree_spec.leaves()) - set(self.leaf_rates)
        if missing:
            raise ValueError(f"leaf_rates missing entries for leaves: {sorted(missing)}")
        unknown = self.tree_spec.features() - set(self.feature_marginals)
        if unknown:
            raise ValueError(f"tree uses features without marginals: {sorted(unknown)}")
        # New dicts: the caller's stay as they were passed.
        self.leaf_rates = {k: self._pair(v) for k, v in self.leaf_rates.items()}
        self.feature_marginals = {k: self._pair(v) for k, v in self.feature_marginals.items()}
        for leaf, pair in self.leaf_rates.items():
            if not all(0.0 <= r <= 1.0 for r in pair):
                raise ValueError(f"leaf {leaf!r}: rates must be in [0, 1]")
        for name, pair in self.feature_marginals.items():
            if not all(0.0 <= r <= 1.0 for r in pair):
                raise ValueError(f"marginal for {name!r} must be in [0, 1]")

    @staticmethod
    def _pair(value) -> tuple[float, float]:
        if isinstance(value, dict):
            return (float(value["black"]), float(value["nonblack"]))
        if isinstance(value, (tuple, list)):
            black, nonblack = value
            return (float(black), float(nonblack))
        return (float(value), float(value))

    @classmethod
    def from_json(cls, obj: dict) -> "SynthConfig":
        with reading_document("synth config"):
            return cls(
                n=obj["n"],
                tree_spec=SplitSpec.from_json(obj["tree_spec"]),
                leaf_rates={str(k): v for k, v in obj["leaf_rates"].items()},
                black_fraction=float(obj["black_fraction"]),
                feature_marginals={str(k): v for k, v in obj["feature_marginals"].items()},
            )


def _strike_rates(spec: SplitSpec, cfg: SynthConfig, present: dict, is_black) -> np.ndarray:
    """Each juror's strike rate: its race's rate at the leaf spec routes it to."""
    if spec.is_leaf:
        black, nonblack = cfg.leaf_rates[spec.leaf_id]
        return np.where(is_black, black, nonblack)
    right, left = (_strike_rates(s, cfg, present, is_black) for s in (spec.right, spec.left))
    return np.where(present[spec.feature], right, left)


def synth_generate(cfg: SynthConfig, seed: int) -> JurorTable:
    """Draw a synthetic juror population from the config's generative story.

    Per juror: race ~ Bernoulli(black_fraction), features from their
    marginals, then the ground-truth tree routes the juror to a leaf whose
    race-specific rate draws the strike outcome. All jurors are eligible.
    """
    rng = np.random.default_rng(seed)
    catalog = tuple(cfg.feature_marginals)
    n = cfg.n
    is_black = rng.random(n) < cfg.black_fraction
    answers = np.empty((n, len(catalog)), dtype=np.int8)
    for j, name in enumerate(catalog):
        p_black, p_nonblack = cfg.feature_marginals[name]
        answers[:, j] = rng.random(n) < np.where(is_black, p_black, p_nonblack)
    present = dict(zip(catalog, answers.T == 1))
    struck = rng.random(n) < _strike_rates(cfg.tree_spec, cfg, present, is_black)
    juror_ids = [f"j{i:06d}" for i in range(n)]
    return JurorTable(catalog, np.full(n, "t1"), juror_ids, is_black, struck, np.ones(n, bool), answers)
