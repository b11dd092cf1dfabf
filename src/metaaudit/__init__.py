"""Reliability audit toolkit for odds-ratio meta-analyses.

Converts published (odds ratio, confidence interval) estimates back to
p-values, pools them with fixed and random effect weights, classifies
p-value plots, counts multiple-testing search spaces and calibrates the
classifier with seeded simulations. The ``metaaudit`` command exposes the
same operations, including a hermetic ``reproduce`` run over the bundled
example datasets.

Public names are listed once, in ``_EXPORTS``, and each is loaded from its
defining module on first access, so ``import metaaudit`` loads no submodule.
A submodule that only some functions use is imported inside each of them,
so each command executes only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "ConversionMethod": "effects",
    "EffectEstimate": "effects",
    "interval_multiplier": "effects",
    "p_from_effect": "effects",
    "standard_error": "effects",
    "z_score": "effects",
    "AuditError": "errors",
    "ConfigError": "errors",
    "CsvFormatError": "errors",
    "DegenerateIntervalError": "errors",
    "DomainError": "errors",
    "EmptyInputError": "errors",
    "InputFileError": "errors",
    "InvalidIntervalError": "errors",
    "OutputFileError": "errors",
    "OverflowGuardError": "errors",
    "Ingested": "ingest",
    "ingest_counts": "ingest",
    "ingest_effects": "ingest",
    "std_normal_cdf": "normal",
    "std_normal_quantile": "normal",
    "PooledResult": "pooling",
    "PoolingMethod": "pooling",
    "pool_dersimonian_laird": "pooling",
    "pool_fixed": "pooling",
    "PlotClassification": "pvplot",
    "PlotConfig": "pvplot",
    "PlotPoint": "pvplot",
    "PlotTrace": "pvplot",
    "PlotVerdict": "pvplot",
    "PValuePlot": "pvplot",
    "RankedPValues": "pvplot",
    "RuleCheck": "pvplot",
    "build_plot": "pvplot",
    "classify_plot": "pvplot",
    "ks_pvalue": "pvplot",
    "ks_statistic": "pvplot",
    "render_plot": "pvplot",
    "audit_report": "report",
    "canonical_json": "report",
    "run_reproduction": "reproduce",
    "CountBlock": "search_space",
    "LedgerSummary": "search_space",
    "StudyCounts": "search_space",
    "block_search_space": "search_space",
    "cohort_false_positives": "search_space",
    "expected_false_positives": "search_space",
    "summarize_ledger": "search_space",
    "Scenario": "simulate",
    "SimulationConfig": "simulate",
    "SimulationReport": "simulate",
    "run_simulation": "simulate",
    "simulate_trial": "simulate",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    """PEP 562 lookup: each access returns the defining module's attribute."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module("." + module, __name__), name)


def __dir__() -> list[str]:
    return __all__

