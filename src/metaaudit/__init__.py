"""Reliability audit toolkit for odds-ratio meta-analyses.

Converts published (odds ratio, confidence interval) estimates back to
p-values, pools them with fixed and random effect weights, classifies
p-value plots, counts multiple-testing search spaces and calibrates the
classifier with seeded simulations. The ``metaaudit`` command exposes the
same operations, including a hermetic ``reproduce`` run over the bundled
example datasets.
"""

__version__ = "0.1.0"

from .effects import (  # noqa: E402
    ConversionMethod,
    EffectEstimate,
    ci_from_p,
    interval_multiplier,
    p_from_effect,
    standard_error,
    z_score,
)
from .errors import (  # noqa: E402
    AuditError,
    ConfigError,
    CsvFormatError,
    DegenerateIntervalError,
    DomainError,
    EmptyInputError,
    InputFileError,
    InvalidIntervalError,
    OutputFileError,
    OverflowGuardError,
    SERecoveryError,
)
from .ingest import ingest_counts, ingest_effects  # noqa: E402
from .normal import std_normal_cdf, std_normal_quantile  # noqa: E402
from .pooling import (  # noqa: E402
    PooledResult,
    PoolingMethod,
    pool_dersimonian_laird,
    pool_fixed,
)
from .pvplot import (  # noqa: E402
    PlotClassification,
    PlotConfig,
    PlotDiagnostics,
    PlotPoint,
    PlotVerdict,
    PValuePlot,
    build_plot,
    classify_plot,
    ks_pvalue,
    ks_statistic,
    plot_from_effects,
    render_plot,
)
from .report import (  # noqa: E402
    audit_report,
    canonical_json,
    conversion_rows,
    file_digest,
)
from .reproduce import reproduction_figures, run_reproduction  # noqa: E402
from .search_space import (  # noqa: E402
    CountBlock,
    LedgerSummary,
    StudyCounts,
    block_search_space,
    cohort_false_positives,
    expected_false_positives,
    summarize_ledger,
)
from .simulate import (  # noqa: E402
    Scenario,
    SimulationConfig,
    SimulationReport,
    run_simulation,
    simulate_trial,
)

__all__ = [
    "__version__",
    "AuditError",
    "ConfigError",
    "ConversionMethod",
    "CountBlock",
    "CsvFormatError",
    "DegenerateIntervalError",
    "DomainError",
    "EffectEstimate",
    "EmptyInputError",
    "InputFileError",
    "InvalidIntervalError",
    "LedgerSummary",
    "OutputFileError",
    "OverflowGuardError",
    "PlotClassification",
    "PlotConfig",
    "PlotDiagnostics",
    "PlotPoint",
    "PlotVerdict",
    "PooledResult",
    "PoolingMethod",
    "PValuePlot",
    "SERecoveryError",
    "Scenario",
    "SimulationConfig",
    "SimulationReport",
    "StudyCounts",
    "audit_report",
    "block_search_space",
    "build_plot",
    "canonical_json",
    "ci_from_p",
    "classify_plot",
    "cohort_false_positives",
    "conversion_rows",
    "expected_false_positives",
    "file_digest",
    "ingest_counts",
    "ingest_effects",
    "interval_multiplier",
    "ks_pvalue",
    "ks_statistic",
    "p_from_effect",
    "plot_from_effects",
    "pool_dersimonian_laird",
    "pool_fixed",
    "render_plot",
    "reproduction_figures",
    "run_reproduction",
    "run_simulation",
    "simulate_trial",
    "standard_error",
    "std_normal_cdf",
    "std_normal_quantile",
    "summarize_ledger",
    "z_score",
]
