"""Juror records: CSV ingest, eligibility filtering, design matrices, splits,
and planted-bias synthetic populations for verification experiments.

All operations are pure given (input, seed).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDataError,
    ParseError,
    SchemaError,
    StratificationError,
)

REQUIRED_COLUMNS = ("trial_id", "juror_id", "is_black", "struck_by_state", "eligible")
RACE_FEATURE_NAMES = frozenset({"is_black", "same_race"})
MISSING_POLICIES = ("as_no", "drop_row")


@dataclass
class JurorRecord:
    trial_id: str
    juror_id: str
    is_black: bool
    struck_by_state: bool
    eligible: bool
    # voir dire answers: True/False, or None for a non-response
    answers: dict[str, bool | None]


@dataclass
class JurorTable:
    records: list[JurorRecord]
    feature_catalog: tuple[str, ...]

    def __post_init__(self):
        self.feature_catalog = tuple(self.feature_catalog)
        overlap = set(self.feature_catalog) & set(REQUIRED_COLUMNS)
        if overlap:
            raise SchemaError(
                f"feature catalog collides with required columns: {sorted(overlap)}"
            )
        catalog = set(self.feature_catalog)
        seen: set[tuple[str, str]] = set()
        for r in self.records:
            extra = set(r.answers) - catalog
            if extra:
                raise ParseError(
                    f"juror {r.juror_id!r}: answers outside catalog: {sorted(extra)}"
                )
            key = (r.trial_id, r.juror_id)
            if key in seen:
                raise ParseError(
                    f"duplicate juror_id {r.juror_id!r} within trial {r.trial_id!r}"
                )
            seen.add(key)

    def __len__(self) -> int:
        return len(self.records)


def _parse_bool(value: str, row: int, column: str) -> bool:
    if value == "1":
        return True
    if value == "0":
        return False
    raise ParseError(f"row {row}, column {column!r}: expected 0 or 1, got {value!r}")


def load_csv(path, catalog) -> JurorTable:
    """Read juror records; answer cells use "1"/"0"/"" for yes/no/missing."""
    catalog = tuple(catalog)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in (*REQUIRED_COLUMNS, *catalog):
            if col not in header:
                raise SchemaError(f"missing required column {col!r}")
        records = []
        for i, row in enumerate(reader, start=2):  # header is line 1
            answers: dict[str, bool | None] = {}
            for name in catalog:
                cell = row[name]
                answers[name] = None if cell == "" else _parse_bool(cell, i, name)
            records.append(
                JurorRecord(
                    trial_id=row["trial_id"],
                    juror_id=row["juror_id"],
                    is_black=_parse_bool(row["is_black"], i, "is_black"),
                    struck_by_state=_parse_bool(row["struck_by_state"], i, "struck_by_state"),
                    eligible=_parse_bool(row["eligible"], i, "eligible"),
                    answers=answers,
                )
            )
    return JurorTable(records=records, feature_catalog=catalog)


def write_csv(table: JurorTable, path) -> None:
    """Inverse of load_csv: reloading the file reproduces the table."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*REQUIRED_COLUMNS, *table.feature_catalog])
        for r in table.records:
            row = [
                r.trial_id,
                r.juror_id,
                int(r.is_black),
                int(r.struck_by_state),
                int(r.eligible),
            ]
            for name in table.feature_catalog:
                value = r.answers.get(name)
                row.append("" if value is None else int(value))
            writer.writerow(row)


def filter_eligible(table: JurorTable) -> JurorTable:
    """Keep only jurors the State could have struck, in original order."""
    return JurorTable(
        records=[r for r in table.records if r.eligible],
        feature_catalog=table.feature_catalog,
    )


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
        idx = np.asarray(idx, dtype=int)
        return FeatureMatrix(
            x=self.x[idx],
            columns=self.columns,
            y=self.y[idx],
            race_columns=self.race_columns,
            dropped_columns=self.dropped_columns,
        )

    def without_columns(self, drop) -> "FeatureMatrix":
        drop = set(drop)
        keep = [j for j in range(self.p) if j not in drop]
        remap = {j: i for i, j in enumerate(keep)}
        return FeatureMatrix(
            x=self.x[:, keep],
            columns=tuple(self.columns[j] for j in keep),
            y=self.y,
            race_columns=frozenset(remap[j] for j in self.race_columns if j in remap),
            dropped_columns=self.dropped_columns,
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
    records = table.records
    # float() of an answer, with None (missing) as nan until it is zeroed.
    x = np.array(
        [[r.answers.get(name) for name in columns] for r in records], dtype=float
    ).reshape(len(records), len(columns))
    missing = np.isnan(x)
    x[missing] = 0.0
    is_black = np.array([r.is_black for r in records], dtype=bool)
    struck = np.array([r.struck_by_state for r in records], dtype=bool)
    return x, is_black, struck, ~missing.any(axis=1)


def build_matrix(table: JurorTable, missing_policy: str = "as_no") -> FeatureMatrix:
    """Encode a table as a binary matrix; is_black becomes the first column.

    as_no maps missing answers to 0; drop_row removes any row with a missing
    answer. Constant columns are dropped and reported via dropped_columns.
    """
    if missing_policy not in MISSING_POLICIES:
        raise ValueError(f"missing_policy must be one of {MISSING_POLICIES}")
    if not table.records:
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


def _round_nearest(value: float) -> int:
    return int(math.floor(value + 0.5))


def split(m: FeatureMatrix, train_fraction: float, seed: int) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Stratified train/test split: each class is split at train_fraction."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    if m.n < 10:
        raise ValueError(f"need at least 10 rows to split, got {m.n}")
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label in (0, 1):
        stratum = np.flatnonzero(m.y == label)
        if stratum.size < 2:
            raise StratificationError(
                f"class {label} has {stratum.size} rows; need at least 2 to split"
            )
        perm = rng.permutation(stratum)
        n_train = _round_nearest(stratum.size * train_fraction)
        n_train = min(max(n_train, 1), stratum.size - 1)
        train_idx.extend(perm[:n_train])
        test_idx.extend(perm[n_train:])
    return m.take_rows(sorted(train_idx)), m.take_rows(sorted(test_idx))


def stratified_folds(y, folds: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic stratified k-fold assignment: list of (train, val) indices."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    y = np.asarray(y, dtype=int)
    rng = np.random.default_rng(seed)
    assignment = np.empty(y.size, dtype=int)
    for label in (0, 1):
        stratum = np.flatnonzero(y == label)
        perm = rng.permutation(stratum)
        assignment[perm] = np.arange(perm.size) % folds
    out = []
    for f in range(folds):
        val = np.flatnonzero(assignment == f)
        train = np.flatnonzero(assignment != f)
        for part, name in ((val, "validation"), (train, "training")):
            if np.unique(y[part]).size < 2:
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

    def to_json(self) -> dict:
        if self.is_leaf:
            return {"leaf": self.leaf_id}
        return {
            "feature": self.feature,
            "left": self.left.to_json(),
            "right": self.right.to_json(),
        }


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
        for leaf, rates in self.leaf_rates.items():
            pair = self._pair(rates)
            if not all(0.0 <= r <= 1.0 for r in pair):
                raise ValueError(f"leaf {leaf!r}: rates must be in [0, 1]")
            self.leaf_rates[leaf] = pair
        for name, marginal in self.feature_marginals.items():
            pair = self._pair(marginal)
            if not all(0.0 <= r <= 1.0 for r in pair):
                raise ValueError(f"marginal for {name!r} must be in [0, 1]")
            self.feature_marginals[name] = pair

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
        return cls(
            n=int(obj["n"]),
            tree_spec=SplitSpec.from_json(obj["tree_spec"]),
            leaf_rates={str(k): v for k, v in obj["leaf_rates"].items()},
            black_fraction=float(obj["black_fraction"]),
            feature_marginals={str(k): v for k, v in obj["feature_marginals"].items()},
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "tree_spec": self.tree_spec.to_json(),
            "leaf_rates": {k: list(v) for k, v in self.leaf_rates.items()},
            "black_fraction": self.black_fraction,
            "feature_marginals": {k: list(v) for k, v in self.feature_marginals.items()},
        }


def _route_masks(spec: SplitSpec, values: dict[str, np.ndarray], mask: np.ndarray, out: np.ndarray, leaf_order: dict[str, int]) -> None:
    if spec.is_leaf:
        out[mask] = leaf_order[spec.leaf_id]
        return
    present = values[spec.feature]
    _route_masks(spec.left, values, mask & ~present, out, leaf_order)
    _route_masks(spec.right, values, mask & present, out, leaf_order)


def synth_generate(cfg: SynthConfig, seed: int) -> JurorTable:
    """Draw a synthetic juror population from the config's generative story.

    Per juror: race ~ Bernoulli(black_fraction), features from their
    marginals, then the ground-truth tree routes the juror to a leaf whose
    race-specific rate draws the strike outcome. All jurors are eligible.
    """
    rng = np.random.default_rng(seed)
    catalog = tuple(cfg.feature_marginals)
    n = cfg.n
    if n == 0:
        return JurorTable(records=[], feature_catalog=catalog)
    is_black = rng.random(n) < cfg.black_fraction
    values: dict[str, np.ndarray] = {}
    for name in catalog:
        p_black, p_nonblack = cfg.feature_marginals[name]
        probs = np.where(is_black, p_black, p_nonblack)
        values[name] = rng.random(n) < probs
    leaf_ids = cfg.tree_spec.leaves()
    leaf_order = {leaf: i for i, leaf in enumerate(leaf_ids)}
    routed = np.zeros(n, dtype=int)
    _route_masks(cfg.tree_spec, values, np.ones(n, dtype=bool), routed, leaf_order)
    rate_black = np.array([cfg.leaf_rates[leaf][0] for leaf in leaf_ids])
    rate_nonblack = np.array([cfg.leaf_rates[leaf][1] for leaf in leaf_ids])
    rates = np.where(is_black, rate_black[routed], rate_nonblack[routed])
    struck = rng.random(n) < rates
    records = [
        JurorRecord(
            trial_id="t1",
            juror_id=f"j{i:06d}",
            is_black=bool(is_black[i]),
            struck_by_state=bool(struck[i]),
            eligible=True,
            answers={name: bool(values[name][i]) for name in catalog},
        )
        for i in range(n)
    ]
    return JurorTable(records=records, feature_catalog=catalog)
