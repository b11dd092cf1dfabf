"""Canonical JSON serialization and the writing of artifacts.

All JSON artifacts are emitted with sorted keys and floats rounded to six
significant digits, so a report's bytes depend only on its content. Ints
(including exact search-space counts) pass through untouched. Records
(NamedTuples) serialize as objects of their fields and enums as their
values, so result types go into a report as they are.

``canonical_json`` writes a document in one pass with its own writer: the
bytes are those of ``json.dumps(value, sort_keys=True, indent=2)`` on the
same value with its floats rounded, so no command loads the ``json``
package. Strings are escaped by the C accelerator that ``json`` itself
uses, or by ``json``'s Python escaper on a build without it.

``document_json`` writes each document and is the one place that stamps
the package ``version``; the built dicts carry none. They are built where
their contents live: ``figure.audit_report`` (``plot``), and
``search_space.count_report`` and ``cohort_report``.
"""

from __future__ import annotations

import math
from enum import Enum
from pathlib import Path
from typing import Any

from . import __version__
from .errors import DomainError, OutputFileError

try:
    from _json import encode_basestring_ascii as _string
except ImportError:  # A build without json's C accelerator.
    from json.encoder import encode_basestring_ascii as _string


def _encode(value: Any, indent: str) -> str:
    """value as JSON text whose inner lines start with indent plus two spaces;
    indent is a newline and the spaces that begin value's own line."""
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)  # An IntEnum is its number.
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DomainError(f"cannot serialize non-finite float {value!r}")
        return repr(float(f"{value:.6g}"))
    if isinstance(value, tuple) and hasattr(value, "_asdict"):
        value = value._asdict()
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # Values are encoded in the dict's order, so of two bad values the
        # first one raises, whatever the keys sort as.
        members: dict[str, str] = {}
        for key, item in value.items():
            key = str(key)
            if key in members:
                raise DomainError(f"cannot serialize two keys that both read {key!r}")
            members[key] = _encode(item, inner)
        lines = [f"{_string(key)}: {members[key]}" for key in sorted(members)]
        return "{" + inner + ("," + inner).join(lines) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        lines = [_encode(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(lines) + indent + "]"
    if isinstance(value, Enum):
        return _encode(value.value, indent)
    raise DomainError(f"cannot serialize {type(value).__name__} to canonical JSON")


def canonical_json(payload: Any) -> str:
    """Deterministic JSON text: sorted keys, 6 significant digit floats.

    Dicts, lists, tuples, enums and records (NamedTuples) may nest to any
    depth; a record is an object of its fields. A dict whose keys collide
    once made strings, such as 1 and "1", is a DomainError.
    """
    return _encode(payload, "\n") + "\n"


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
