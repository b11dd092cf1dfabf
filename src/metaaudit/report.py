"""Canonical JSON serialization and the documents the commands write.

All JSON artifacts are emitted with sorted keys and floats rounded to six
significant digits, so a report's bytes depend only on its content. Ints
(including exact search-space counts) pass through untouched. Records
(NamedTuples) serialize as objects of their fields and enums as their
values, so result types go into a report as they are.

Three builders make the documents that the commands write and that
``reproduce`` checks: ``audit_report`` (``plot``), ``count_report`` and
``cohort_report``. ``document_json`` writes each document and is the one
place that stamps the package ``version``; the built dicts carry none.
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


def audit_report(
    rows: ingest.Ingested, method: effects.ConversionMethod, alpha: float = 0.05
) -> dict[str, Any]:
    """Full audit of one effect table, every number regenerable from inputs.

    Each conversion row carries its p-value under both readings, and the
    plot takes the chosen reading's column, flagging odds ratios below 1.
    The plot is judged under the default PlotConfig with every rule traced;
    the config block holds the plot's alpha beside those thresholds.
    """
    from . import effects, pooling, pvplot

    column = f"p_{effects.check_method(method).value}"
    p_from_effect, methods = effects.p_from_effect, effects.ConversionMethod
    conversions = [
        {**e._asdict(), **{f"p_{m.value}": p_from_effect(e, m) for m in methods}}
        for e in rows
    ]
    pairs = [(e.display_label(), row[column]) for e, row in zip(rows, conversions)]
    plot = pvplot.build_plot(pairs, alpha, [e.odds_ratio < 1.0 for e in rows])
    config = pvplot.PlotConfig()
    classification = pvplot.classify_plot(plot.ranked, config)
    pooled = {
        "fixed": pooling.pool_fixed(rows),
        "dersimonian_laird": pooling.pool_dersimonian_laird(rows),
    }
    return {
        "input": rows.digest,
        "method": method.value,
        "config": {"alpha": plot.alpha, **config._asdict()},
        "conversions": conversions,
        "pooled": pooled,
        "plot": plot,
        "classification": classification,
    }


def count_report(studies: ingest.Ingested, alpha: float) -> dict[str, Any]:
    """A ledger's per-paper search spaces N with alpha * N, and their summary."""
    from . import search_space

    expected_false_positives = search_space.expected_false_positives
    summary = search_space.summarize_ledger(studies)
    return {
        "input": studies.digest,
        "alpha": alpha,
        "studies": [
            {
                **study._asdict(),
                "expected_false_positives": expected_false_positives(study.search_space, alpha),
            }
            for study in studies
        ],
        "summary": {
            **summary._asdict(),
            "median_expected_false_positives": expected_false_positives(summary.median, alpha),
        },
    }


def cohort_report(publications: int, median_space: int, alpha: float) -> dict[str, Any]:
    """Expected false positives across a cohort of publications."""
    from . import search_space

    value = search_space.cohort_false_positives(publications, median_space, alpha)
    return {
        "publications": publications,
        "median_search_space": median_space,
        "alpha": alpha,
        "expected_false_positives": value,
        "expected_false_positives_rounded": round(value),
    }
