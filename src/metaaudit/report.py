"""Canonical JSON serialization and the writing of artifacts.

All JSON artifacts are emitted with sorted keys and floats rounded to six
significant digits, so a report's bytes depend only on its content. Ints
(including exact search-space counts) pass through untouched. Records
(NamedTuples) serialize as objects of their fields and enums as their
values, so result types go into a report as they are.

``document_json`` writes each document and is the one place that stamps
the package ``version``; the built dicts carry none. They are built where
their contents live: ``figure.audit_report`` (``plot``), and
``search_space.count_report`` and ``cohort_report``.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from pathlib import Path
from typing import Any

from . import __version__
from .errors import DomainError, OutputFileError


def _canonical_value(value: Any) -> Any:
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DomainError(f"cannot serialize non-finite float {value!r}")
        return float(f"{value:.6g}")
    if isinstance(value, tuple) and hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        return {str(k): _canonical_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    if isinstance(value, Enum):
        return _canonical_value(value.value)
    raise DomainError(f"cannot serialize {type(value).__name__} to canonical JSON")


def canonical_json(payload: Any) -> str:
    """Deterministic JSON text: sorted keys, 6 significant digit floats.

    Dicts, lists, tuples, enums and records (NamedTuples) may nest to any
    depth; a record is an object of its fields.
    """
    return json.dumps(_canonical_value(payload), sort_keys=True, indent=2) + "\n"


def write_text(path: Path, text: str) -> None:
    """Write one artifact; a failure is an OutputFileError naming the path."""
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OutputFileError(f"{path}: cannot write: {exc.strerror}") from None


def write_artifacts(outdir: Path, texts: dict[str, str]) -> None:
    """Write each named text into outdir, creating the directory first."""
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputFileError(f"{outdir}: cannot write: {exc.strerror}") from None
    for name, text in texts.items():
        write_text(outdir / name, text)


def document_json(payload: dict[str, Any]) -> str:
    """A document's canonical JSON, stamped with the package version."""
    return canonical_json({**payload, "version": __version__})
