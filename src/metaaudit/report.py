"""Canonical JSON serialization and the documents the commands write.

All JSON artifacts are emitted with sorted keys and floats rounded to six
significant digits, so a report's bytes depend only on its content. Ints
(including exact search-space counts) pass through untouched. Records and
dataclasses serialize as objects of their fields and enums as their values,
so result types go into a report as they are.

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
from .effects import ConversionMethod, p_from_effect
from .errors import DomainError, OutputFileError
from .ingest import Ingested
from .pooling import pool_dersimonian_laird, pool_fixed
from .pvplot import PlotConfig, build_plot, classify_plot
from .search_space import cohort_false_positives, expected_false_positives, summarize_ledger


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
    # dataclasses.is_dataclass's own test; the module loads only when needed.
    if hasattr(type(value), "__dataclass_fields__"):
        from dataclasses import fields
        return {f.name: _canonical_value(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return _canonical_value(value.value)
    raise DomainError(f"cannot serialize {type(value).__name__} to canonical JSON")


def canonical_json(payload: Any) -> str:
    """Deterministic JSON text: sorted keys, 6 significant digit floats.

    Dicts, lists, tuples, enums, records (NamedTuples) and dataclasses may
    nest to any depth; a record or dataclass is an object of its fields.
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
    effects: Ingested, method: ConversionMethod, alpha: float = 0.05
) -> dict[str, Any]:
    """Full audit of one effect table, every number regenerable from inputs.

    Each conversion row carries its p-value under both readings, and the
    plot takes the chosen reading's column, flagging odds ratios below 1.
    The plot is judged under the default PlotConfig; the config block holds
    the plot's alpha beside those thresholds.
    """
    conversions = [
        {**e._asdict(), **{f"p_{m.value}": p_from_effect(e, m) for m in ConversionMethod}}
        for e in effects
    ]
    pairs = [(e.display_label(), row[f"p_{method.value}"]) for e, row in zip(effects, conversions)]
    plot = build_plot(pairs, alpha, [e.odds_ratio < 1.0 for e in effects])
    config = PlotConfig()
    classification = classify_plot(plot, config)
    pooled = {"fixed": pool_fixed(effects), "dersimonian_laird": pool_dersimonian_laird(effects)}
    return {
        "input": effects.digest,
        "method": method.value,
        "config": {"alpha": plot.alpha, **config._asdict()},
        "conversions": conversions,
        "pooled": pooled,
        "plot": plot,
        "classification": classification,
    }


def count_report(studies: Ingested, alpha: float) -> dict[str, Any]:
    """A ledger's per-paper search spaces N with alpha * N, and their summary."""
    summary = summarize_ledger(studies)
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
    value = cohort_false_positives(publications, median_space, alpha)
    return {
        "publications": publications,
        "median_search_space": median_space,
        "alpha": alpha,
        "expected_false_positives": value,
        "expected_false_positives_rounded": round(value),
    }
