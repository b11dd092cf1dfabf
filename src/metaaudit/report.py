"""Canonical JSON serialization and report assembly.

All JSON artifacts are emitted with sorted keys and floats rounded to six
significant digits, so a report's bytes depend only on its content. Ints
(including exact search-space counts) pass through untouched. Dataclasses
serialize as objects of their fields and enums as their values, so result
types go into a report as they are.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from . import __version__
from .effects import ConversionMethod, EffectEstimate, p_from_effect
from .errors import DomainError, OutputFileError

if TYPE_CHECKING:
    from .pooling import PooledResult
    from .pvplot import PlotClassification, PlotConfig, PValuePlot


def _canonical_value(value: Any) -> Any:
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DomainError(f"cannot serialize non-finite float {value!r}")
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {str(k): _canonical_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _canonical_value(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return _canonical_value(value.value)
    raise DomainError(f"cannot serialize {type(value).__name__} to canonical JSON")


def canonical_json(payload: Any) -> str:
    """Deterministic JSON text: sorted keys, 6 significant digit floats.

    Dicts, lists, tuples, dataclasses and enums may nest to any depth.
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


def audit_report(
    digest: dict[str, Any],
    effects: Sequence[EffectEstimate],
    pooled: dict[str, PooledResult],
    plot: PValuePlot,
    classification: PlotClassification,
    config: PlotConfig,
    method: ConversionMethod,
) -> dict[str, Any]:
    """Full audit of one study set, every number regenerable from inputs.

    The config block holds the plot's alpha beside the classifier
    thresholds it was judged by; each conversion row carries its p-value
    under both readings.
    """
    return {
        "version": __version__,
        "input": digest,
        "method": method.value,
        "config": {"alpha": plot.alpha, **asdict(config)},
        "conversions": [
            {
                **asdict(e),
                "p_natural": p_from_effect(e, ConversionMethod.NATURAL),
                "p_log": p_from_effect(e, ConversionMethod.LOG),
            }
            for e in effects
        ],
        "pooled": pooled,
        "plot": plot,
        "classification": classification,
    }
