"""Exception types, and the value checks behind them, shared across the toolkit."""

import math
import numbers
from contextlib import contextmanager


def finite_real(v) -> bool:
    """A finite number and not a bool: what every float setting must be."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def whole(v, low: int) -> bool:
    """An integer >= low and not a bool: what every count setting must be."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= low


class StrikeAuditError(Exception):
    """Base class for all data and contract errors raised by this package."""


class SchemaError(StrikeAuditError):
    """A CSV header or JSON document lacks a required column or key."""


@contextmanager
def reading_document(what: str):
    """Re-raise a key missing from (or a wrong shape in) the JSON document
    being read as a SchemaError naming it."""
    try:
        yield
    except KeyError as exc:
        raise SchemaError(f"{what} is missing key {exc.args[0]!r}") from None
    except TypeError as exc:
        raise SchemaError(f"{what} is malformed: {exc}") from None


class ParseError(StrikeAuditError):
    """A cell holds a value outside its allowed alphabet."""


class DegenerateDataError(StrikeAuditError):
    """Input is empty or too small for the requested operation."""


class StratificationError(StrikeAuditError):
    """A class stratum is too small to split or fold."""


class CollinearityError(StrikeAuditError):
    """Singular information matrix; carries the names of dependent columns."""

    def __init__(self, columns):
        self.columns = tuple(columns)
        super().__init__(
            "singular information matrix; dependent columns: "
            + ", ".join(self.columns)
        )


class UndefinedTestError(StrikeAuditError):
    """Fisher test undefined: an empty row or column margin."""


class UndefinedMetricError(StrikeAuditError):
    """AUC undefined: labels contain a single class."""


class ContractViolationError(StrikeAuditError):
    """A caller broke an operation precondition (e.g. race columns present)."""


class StageError(StrikeAuditError):
    """Audit pipeline failure, labeled with the stage that raised it."""

    def __init__(self, stage, cause):
        self.stage = stage
        super().__init__(f"[{stage}] {cause}")
