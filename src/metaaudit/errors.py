"""Exception taxonomy shared across the package, the base of the records
whose constructors raise it, and one checker per kind of scalar they read.

Every failure caused by caller input derives from AuditError so the command
line layer can map it to exit code 2. Anything else escaping a command is a
bug and maps to exit code 1. A checker raises error (DomainError unless
given) with field set to the value's name, and returns the value.
"""

from __future__ import annotations

import sys
from typing import Any, Iterable

_FLOAT_MAX = sys.float_info.max


class CheckedRecord:
    """Base of a NamedTuple record whose constructor checks its fields and
    computes the last _computed of them. _make, _replace, copy and pickle
    pass the constructor only the fields it takes, so none skips a check or
    takes a computed field from the caller."""

    __slots__ = ()
    _computed = 0

    @classmethod
    def _make(cls, values: Iterable) -> Any:
        return cls(*tuple(values)[:len(cls._fields) - cls._computed])

    def _replace(self, **changes: Any) -> Any:
        given = zip(self._fields[:len(self) - self._computed], self)
        return type(self)(**{**dict(given), **changes})

    def __getnewargs__(self) -> tuple:
        return self[:len(self) - self._computed]


class AuditError(ValueError):
    """Base class for all input and domain failures.

    field names the input field at fault when there is one, so that a
    reader of tabular input can report the column that caused the error.
    """

    def __init__(self, message: str = "", *, field: str | None = None):
        super().__init__(message)
        self.field = field


class DomainError(AuditError):
    """A scalar argument is outside its mathematical domain."""


class InvalidIntervalError(AuditError):
    """A confidence interval is malformed (non-positive or inverted bounds)."""


class DegenerateIntervalError(InvalidIntervalError):
    """An interval has zero width, so no standard error can be derived."""


class EmptyInputError(AuditError):
    """An operation that needs at least one record received none."""


class OverflowGuardError(AuditError):
    """A count exceeds the guarded range for exact arithmetic."""


class ConfigError(AuditError):
    """A configuration object or file is invalid."""


class InputFileError(AuditError, OSError):
    """An input file cannot be read, decoded or split into CSV records.

    It is an OSError too, so a caller that catches failed reads still
    catches a missing or unreadable file.
    """


class OutputFileError(AuditError, OSError):
    """An output file or directory cannot be created or written."""


class CsvFormatError(AuditError):
    """A CSV input failed validation.

    Carries one diagnostic per offending cell as (line, column, message)
    tuples; line numbers are 1-based file lines as reported by the csv
    reader, column is the header name.
    """

    def __init__(self, filename: str, diagnostics: list[tuple[int, str, str]]):
        self.filename = filename
        self.diagnostics = list(diagnostics)
        lines = "; ".join(
            f"{filename}:{line}:{column}: {message}"
            for line, column, message in self.diagnostics
        )
        super().__init__(lines or f"{filename}: invalid CSV")


def _shown(value: Any) -> str:
    """repr(value), but not of an int beyond the float range: it may be too long."""
    if isinstance(value, int) and abs(value) > _FLOAT_MAX:
        return "an integer beyond the float range"
    return repr(value)


def check_integer(name: str, value: Any, least: int, error: type = DomainError,
                  most: int | None = None) -> int:
    """value, if it is an int (no bool) >= least and, given most, <= most."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {_shown(value)}", field=name)
    if most is not None and value > most:
        raise error(f"{name} must be at most {most}, got {_shown(value)}", field=name)
    return value


def check_finite(name: str, value: Any, error: type = DomainError) -> float:
    """value as a float, if it is an int or float (no bool) with a finite float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) \
            and -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return float(value)
    raise error(f"{name} must be a finite number, got {_shown(value)}", field=name)


def check_level(name: str, value: Any, error: type = DomainError) -> float:
    """value as a float, if it is a float inside (0, 1); no int is inside."""
    if isinstance(value, float) and 0.0 < value < 1.0:
        return float(value)
    raise error(f"{name} must be inside (0, 1), got {_shown(value)}", field=name)


def check_label(name: str, value: Any, error: type = DomainError) -> str:
    """value, if it is a string with a non-blank character."""
    if not isinstance(value, str) or not value.strip():
        raise error(f"{name} must be a non-empty string, got {value!r}", field=name)
    return value
