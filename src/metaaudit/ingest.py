"""CSV ingestion for study effects and model-count ledgers.

Effect files require the columns

    study_label,subgroup_label,odds_ratio,ci_low,ci_high

plus an optional ci_level column, whose blank cells take EffectEstimate's
default level. A row whose interval has zero width under the natural or
the log reading is rejected, since no standard error follows from it.
Count files require

    paper_label,region,block_label,outcomes,predictors,covariates

where rows sharing a paper_label form that paper's blocks. Column order
does not matter and unknown extra columns are ignored, which lets emitted
CSVs (input columns plus derived ones) round-trip through ingestion. A
column that is read may appear only once; a leading UTF-8 byte order mark
is skipped. Each file is read once, so a pipe such as /dev/stdin works.

Both kinds are read by one reader, driven by a table of column -> cell
parser. Validation rejects whole files: every offending cell of every
row, then each paper whose blocks sum beyond float range, is reported as
file:line:column before a CsvFormatError is raised. A file with a valid
header but no data rows raises EmptyInputError. A file that cannot be
read, is not UTF-8 or breaks the csv reader raises InputFileError, at
file:line when the line is known.
"""

from __future__ import annotations

import csv
import io
import re
import sys
import warnings
from pathlib import Path
from typing import Any, Callable

from .errors import AuditError, CsvFormatError, EmptyInputError, InputFileError

# CPython's own SHA-256: hashlib would load OpenSSL's libcrypto, a few
# milliseconds and megabytes per process, to hash a table of a few kB.
try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

# Cells echoed in error messages are cut to this many characters.
_QUOTE_CHARS = 40
# The integer literals int() accepts, signs and digit-group underscores included.
_INTEGER = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _quote(text: str) -> str:
    """A cell for an error message: whole when short, else its first
    _QUOTE_CHARS characters and its length."""
    if len(text) <= _QUOTE_CHARS:
        return repr(text)
    return f"{text[:_QUOTE_CHARS]!r}... ({len(text)} characters)"


# Cell parsers: each takes a stripped cell and returns the record's field,
# or raises ValueError with the message reported at the cell.
def _label(text: str) -> str:
    if not text:
        raise ValueError("must not be empty")
    return text


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{_quote(text)} is not a number") from None


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        # int() refuses a well-formed integer over the interpreter's digit
        # limit (sys.get_int_max_str_digits()) before converting it.
        if _INTEGER.fullmatch(text):
            digits = sum(c.isdigit() for c in text)
            limit = sys.get_int_max_str_digits()
            raise ValueError(
                f"an integer of {digits} digits is too long to read (limit {limit})"
            ) from None
        raise ValueError(f"{_quote(text)} is not an integer") from None


# Each file kind's required columns and their parsers, in diagnostic order.
EFFECT_COLUMNS = {
    "study_label": _label,
    "subgroup_label": lambda text: text or None,
    "odds_ratio": _number,
    "ci_low": _number,
    "ci_high": _number,
}
COUNT_COLUMNS = {
    "paper_label": _label,
    "region": str,
    "block_label": str,
    "outcomes": _integer,
    "predictors": _integer,
    "covariates": _integer,
}


class Ingested(list):
    """The records parsed from one file, in file order. digest is the
    file's provenance: its name, the record count and the hex SHA-256 of
    the bytes, computed by CPython's built-in module, or by hashlib on a
    build without one."""

    def __init__(self, records: list, name: str, data: bytes):
        super().__init__(records)
        self.digest = {"file": name, "rows": len(self), "sha256": sha256(data).hexdigest()}


def _read(
    path: Path,
    record: Callable[..., Any],
    columns: dict[str, Callable[[str], Any]],
    **optional: Callable[[str], Any],
) -> tuple[list[tuple[int, Any]], list[tuple[int, str, str]], bytes]:
    """Check the CSV's header, parse each row's cells by the column -> parser
    tables and pass a row whose cells all parse to record as keyword fields.
    A blank optional cell is left out, so record's default applies; record's
    warnings are re-issued at the row's file:line. Returns (line, result)
    for each row that record accepted, a (line, column, message) diagnostic
    for each cell that a parser or record rejected, and the bytes read."""
    name = path.name
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise InputFileError(f"{name}: cannot read: {exc.strerror}") from None
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is the input after any byte order mark, as exc.start is.
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise InputFileError(f"{name}:{line}: not UTF-8 text: {exc.reason}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    parsers = {**columns, **optional}
    try:
        header = next(reader, None)
        if header is None:
            raise EmptyInputError(f"{name}: file is empty")
        header = [column.strip() for column in header]
        problems = [(1, c, "required column is missing") for c in columns if c not in header]
        problems += [(1, c, "duplicate column") for c in parsers if header.count(c) > 1]
        if problems:
            raise CsvFormatError(name, problems)
        # Each non-blank record with its csv-reader line number.
        records = [(reader.line_num, cells) for cells in reader if any(c.strip() for c in cells)]
    except csv.Error as exc:
        raise InputFileError(f"{name}:{reader.line_num}: {exc}") from None
    if not records:
        raise EmptyInputError(f"{name}: no data rows after the header")
    rows = []
    diagnostics: list[tuple[int, str, str]] = []
    for line, cells in records:
        row = dict(zip(header, cells))
        fields = {}
        before = len(diagnostics)
        for column, parse in parsers.items():
            cell = row.get(column, "").strip()
            if cell or column not in optional:
                try:
                    fields[column] = parse(cell)
                except ValueError as exc:
                    diagnostics.append((line, column, str(exc)))
        if len(diagnostics) > before:
            continue
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = record(**fields)
        except AuditError as exc:
            diagnostics.append((line, exc.field, str(exc)))
            continue
        for warning in caught:
            warnings.warn_explicit(warning.message, warning.category, str(path), line)
        rows.append((line, result))
    return rows, diagnostics, data


def ingest_effects(path: str | Path) -> Ingested:
    """Load study effect records, preserving file order.

    A row's warnings, such as an odds ratio outside its own interval, are
    re-issued located at the row: file:line instead of the code that
    raised them.
    """
    from . import effects

    path = Path(path)
    rows, diagnostics, data = _read(path, effects.EffectEstimate, EFFECT_COLUMNS, ci_level=_number)
    if diagnostics:
        raise CsvFormatError(path.name, diagnostics)
    return Ingested([effect for _, effect in rows], path.name, data)


def ingest_counts(path: str | Path) -> Ingested:
    """Load model-count records, grouping rows by paper_label.

    Papers keep their first-appearance order; a paper's region must agree
    across its rows.
    """
    from . import search_space

    path = Path(path)
    # Each paper's region and blocks, in first-appearance order.
    papers: dict[str, tuple[str, list[search_space.CountBlock]]] = {}

    def add_block(paper_label: str, region: str, **counts: Any) -> str:
        block = search_space.CountBlock(**counts)
        first_region, blocks = papers.setdefault(paper_label, (region, []))
        if first_region != region:
            raise AuditError(f"conflicts with earlier region {first_region!r}", field="region")
        blocks.append(block)
        return paper_label

    rows, diagnostics, data = _read(path, add_block, COUNT_COLUMNS)
    last_lines = {label: line for line, label in rows}
    studies = []
    for label, (region, blocks) in papers.items():
        try:
            studies.append(
                search_space.StudyCounts(paper_label=label, region=region, blocks=tuple(blocks))
            )
        except AuditError as exc:
            # A paper-level failure (its sum over blocks) is located at its last row.
            diagnostics.append((last_lines[label], exc.field, str(exc)))
    if diagnostics:
        raise CsvFormatError(path.name, diagnostics)
    return Ingested(studies, path.name, data)
