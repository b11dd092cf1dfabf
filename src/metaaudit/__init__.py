"""Reliability audit toolkit for odds-ratio meta-analyses.

Converts published (odds ratio, confidence interval) estimates back to
p-values, pools them with fixed and random effect weights, classifies
p-value plots, counts multiple-testing search spaces and calibrates the
classifier with seeded simulations. The ``metaaudit`` command exposes the
same operations, including a hermetic ``reproduce`` run over the bundled
example datasets.

Public names are listed once, in ``_EXPORTS``, and each is loaded from its
defining module on first access, so ``import metaaudit`` loads no submodule.
``_lazy`` does the same for whole submodules: the CLI and the report
builders hold lazy references, so each command executes only the modules it
calls into.
"""

import sys
from importlib import import_module, util
from types import ModuleType

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


def _lazy(name: str) -> ModuleType:
    """Submodule ``name``, registered now and executed on first attribute access.

    It goes into sys.modules and onto the package as an import would put it,
    so ``import``, ``unittest.mock.patch`` and perfbench's tracer all see
    the one module object.
    """
    fullname = f"{__name__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = util.find_spec(fullname)
        spec.loader = util.LazyLoader(spec.loader)
        module = util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        globals()[name] = module
    return module
