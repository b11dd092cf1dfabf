"""CSV ingestion for study effects and model-count ledgers.

Effect files require the columns

    study_label,subgroup_label,odds_ratio,ci_low,ci_high

plus an optional ci_level column (blank cells default to 0.95). A row
whose interval has zero width under the natural or the log reading is
rejected, since no standard error follows from it. Count files require

    paper_label,region,block_label,outcomes,predictors,covariates

where rows sharing a paper_label form that paper's blocks. Column order
does not matter and unknown extra columns are ignored, which lets emitted
CSVs (input columns plus derived ones) round-trip through ingestion. A
column that is read may appear only once; a leading UTF-8 byte order mark
is skipped. Each file is read once, so a pipe such as /dev/stdin works.

Validation rejects whole files: every offending cell is reported as
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

from .effects import EffectEstimate
from .errors import AuditError, CsvFormatError, EmptyInputError, InputFileError
from .search_space import CountBlock, StudyCounts

EFFECT_COLUMNS = ("study_label", "subgroup_label", "odds_ratio", "ci_low", "ci_high")
COUNT_COLUMNS = (
    "paper_label",
    "region",
    "block_label",
    "outcomes",
    "predictors",
    "covariates",
)
# Cells echoed in error messages are cut to this many characters.
_QUOTE_CHARS = 40
# The integer literals int() accepts, signs and digit-group underscores included.
_INTEGER = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


class Ingested(list):
    """The records parsed from one file, in file order. digest is the
    file's provenance: its name, the record count and the bytes' SHA-256.
    hashlib is imported here, where it is used: loading it costs a process
    a few milliseconds, and simulate and cohort never hash."""

    def __init__(self, records: list, name: str, data: bytes):
        import hashlib

        super().__init__(records)
        sha256 = hashlib.sha256(data).hexdigest()
        self.digest = {"file": name, "rows": len(self), "sha256": sha256}


def _open_rows(
    path: Path, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> tuple[list[dict[str, str]], list[int], bytes]:
    """Parse a CSV into dict rows, checking the header. Returns the rows,
    the csv-reader line number of each row and the bytes read."""
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
    try:
        header = next(reader, None)
        if header is None:
            raise EmptyInputError(f"{name}: file is empty")
        header = [column.strip() for column in header]
        problems = [(1, c, "required column is missing") for c in required if c not in header]
        problems += [(1, c, "duplicate column") for c in required + optional if header.count(c) > 1]
        if problems:
            raise CsvFormatError(name, problems)
        rows = []
        lines = []
        for record in reader:
            if not record or all(not cell.strip() for cell in record):
                continue
            row = {
                column: (record[i].strip() if i < len(record) else "")
                for i, column in enumerate(header)
            }
            rows.append(row)
            lines.append(reader.line_num)
    except csv.Error as exc:
        raise InputFileError(f"{name}:{reader.line_num}: {exc}") from None
    if not rows:
        raise EmptyInputError(f"{name}: no data rows after the header")
    return rows, lines, data


def _quote(text: str) -> str:
    """A cell for an error message: whole when short, else its first
    _QUOTE_CHARS characters and its length."""
    if len(text) <= _QUOTE_CHARS:
        return repr(text)
    return f"{text[:_QUOTE_CHARS]!r}... ({len(text)} characters)"


def _parse_float(row: dict[str, str], column: str) -> float:
    text = row.get(column, "")
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{_quote(text)} is not a number") from None


def _parse_int(row: dict[str, str], column: str) -> int:
    text = row.get(column, "")
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


def ingest_effects(path: str | Path) -> Ingested:
    """Load study effect records, preserving file order.

    A row's warnings, such as an odds ratio outside its own interval, are
    re-issued located at the row: file:line instead of the code that
    raised them.
    """
    path = Path(path)
    rows, lines, data = _open_rows(path, EFFECT_COLUMNS, ("ci_level",))
    effects = []
    diagnostics: list[tuple[int, str, str]] = []
    for row, line in zip(rows, lines):
        fields: dict[str, object] = {}
        bad = False
        if not row.get("study_label", ""):
            diagnostics.append((line, "study_label", "must not be empty"))
            bad = True
        for column in ("odds_ratio", "ci_low", "ci_high"):
            try:
                fields[column] = _parse_float(row, column)
            except ValueError as exc:
                diagnostics.append((line, column, str(exc)))
                bad = True
        level_text = row.get("ci_level", "")
        if level_text:
            try:
                fields["ci_level"] = _parse_float(row, "ci_level")
            except ValueError as exc:
                diagnostics.append((line, "ci_level", str(exc)))
                bad = True
        if bad:
            continue
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                effect = EffectEstimate(
                    study_label=row["study_label"],
                    odds_ratio=fields["odds_ratio"],
                    ci_low=fields["ci_low"],
                    ci_high=fields["ci_high"],
                    subgroup_label=row.get("subgroup_label") or None,
                    ci_level=fields.get("ci_level", 0.95),
                )
        except AuditError as exc:
            diagnostics.append((line, exc.field, str(exc)))
            continue
        for warning in caught:
            warnings.warn_explicit(warning.message, warning.category, str(path), line)
        effects.append(effect)
    if diagnostics:
        raise CsvFormatError(path.name, diagnostics)
    return Ingested(effects, path.name, data)


def ingest_counts(path: str | Path) -> Ingested:
    """Load model-count records, grouping rows by paper_label.

    Papers keep their first-appearance order; a paper's region must agree
    across its rows.
    """
    path = Path(path)
    rows, lines, data = _open_rows(path, COUNT_COLUMNS)
    diagnostics: list[tuple[int, str, str]] = []
    # Each paper's region, blocks and last row's line, in first-appearance order.
    papers: dict[str, tuple[str, list[CountBlock], int]] = {}
    for row, line in zip(rows, lines):
        label = row.get("paper_label", "")
        if not label:
            diagnostics.append((line, "paper_label", "must not be empty"))
            continue
        counts: dict[str, int] = {}
        bad = False
        for column in ("outcomes", "predictors", "covariates"):
            try:
                counts[column] = _parse_int(row, column)
            except ValueError as exc:
                diagnostics.append((line, column, str(exc)))
                bad = True
        if bad:
            continue
        try:
            block = CountBlock(block_label=row.get("block_label", ""), **counts)
        except AuditError as exc:
            diagnostics.append((line, exc.field, str(exc)))
            continue
        region = row.get("region", "")
        first_region, blocks, _ = papers.get(label, (region, [], line))
        if first_region != region:
            diagnostics.append((line, "region", f"conflicts with earlier region {first_region!r}"))
            continue
        blocks.append(block)
        papers[label] = (region, blocks, line)
    studies = []
    for label, (region, blocks, last_line) in papers.items():
        try:
            studies.append(StudyCounts(paper_label=label, region=region, blocks=tuple(blocks)))
        except AuditError as exc:
            # A paper-level failure (its sum over blocks) is located at its last row.
            diagnostics.append((last_line, exc.field, str(exc)))
    if diagnostics:
        raise CsvFormatError(path.name, diagnostics)
    return Ingested(studies, path.name, data)
