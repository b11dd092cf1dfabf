"""Hermetic reproduction of the reference numbers for the bundled datasets.

The package ships five fixture CSVs from a published gas-cooking /
childhood-respiratory meta-analysis corpus: two study-effect tables
(current asthma, current wheeze), a per-paper model-count ledger, the
model-count blocks of one lung-function study and one pair of regional
estimates. The fixtures carry input columns only. The reference values
below were published alongside those datasets; ``run_reproduction``
recomputes every one of them from the fixtures and reports a diff.

Gated checks must pass their pinned tolerance for the reproduction to
succeed. The two random-effects pools are informational only: the
published pooled values aggregated subgroups in an unstated way, so they
are reported with their deltas but never gate the run.

Conversions use the NATURAL interval reading, which is the convention the
reference p-values were generated under.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from .effects import ConversionMethod
from .figure import audit_report
from .ingest import ingest_counts, ingest_effects
from .pooling import pool_fixed
from .pvplot import PlotVerdict, render_plot
from .report import document_json, write_artifacts
from .search_space import cohort_report, count_report

ALPHA = 0.05

# Reference two-sided p-values, keyed by display label in fixture order.
EXPECTED_ASTHMA_P = (
    ("Melia 1977 (boys)", 0.2188),
    ("Melia 1977 (girls)", 0.3384),
    ("Dekker 1991", 0.0156),
    ("Hessel 2001", 0.1913),
    ("McConnell 2002 (no wheeze)", 0.2850),
    ("McConnell 2002 (wheeze)", 0.5465),
    ("Spengler 2004", 0.2063),
    ("Behrens 2005", 0.7841),
    ("Tavernier 2006", 0.4773),
    ("Willers 2006", 0.2177),
    ("Diette 2007", 0.5346),
    ("Carlsten 2011", 0.6012),
    ("Lin 2013", 0.1093),
)
EXPECTED_WHEEZE_P = (
    ("Melia 1977 (boys)", 0.4159),
    ("Melia 1977 (girls)", 0.0178),
    ("Ware 1984", 0.1465),
    ("Hosein 1989 (boys)", 0.0046),
    ("Hosein 1989 (girls)", 0.0438),
    ("Dekker 1991", 0.8094),
    ("Strachan 1995", 0.3761),
    ("Volkmer 1995", 0.0430),
    ("Butland 1997", 0.1562),
    ("Maier 1997", 0.7216),
    ("Garrett 1998", 0.3301),
    ("Burr 1999", 0.3657),
    ("Zacharasiewicz 1999", 0.2454),
    ("Pikhart 2000", 0.3271),
    ("Ponsonby 2001", 0.6951),
    ("Belanger 2003 (asthmatic mother)", 0.9427),
    ("Belanger 2003 (non-asthmatic mother)", 0.2103),
    ("Spengler 2004", 0.6012),
    ("Wong 2004", 0.2828),
    ("Behrens 2005 (boys)", 0.0085),
    ("Behrens 2005 (girls)", 0.1856),
    ("Belanger 2006 (multifamily home)", 0.1337),
    ("Belanger 2006 (single-family home)", 0.0290),
    ("Willers 2006", 0.9461),
    ("Wong 2007", 0.1212),
    ("Mitchell 2009", 0.2912),
    ("Lin 2013", 0.4330),
)

P_TOLERANCE = 0.0005
# Two rows whose published p-values disagree with their own interval data
# beyond the standard tolerance; recomputation gives 0.3317 and 0.2861.
FLAGGED_ROWS = frozenset({"Garrett 1998", "Wong 2004"})
FLAGGED_TOLERANCE = 0.004

# Reference per-paper search spaces, keyed by paper label in fixture order.
EXPECTED_SEARCH_SPACES = (
    ("Carlsten 2011", 24576),
    ("Diette 2007", 320),
    ("Hessel 2001", 6912),
    ("Tavernier 2005", 57344),
    ("Behrens 2005", 3584),
    ("Dekker 1991", 12288),
    ("Lin 2013b", 304128),
    ("Melia 1977", 6144),
    ("Spengler 2004", 102400),
    ("Willers 2006", 18432),
    ("Belanger 2006", 8192),
    ("Burr 1999", 5120),
    ("Strachan 1996", 18432),
    ("Wong 2004", 131072),
)
# LedgerSummary fields, checked in this order as ledger_<field>.
EXPECTED_LEDGER_SUMMARY = {
    "lower_quartile": 6336.0,
    "median": 15360.0,
    "upper_quartile": 49152.0,
    "maximum": 304128,
    "mean_rounded": 49925,
}
EXPECTED_LUNGFUNCTION_BLOCKS = (
    ("basic models", 2688),
    ("adjusted model", 458752),
)
EXPECTED_LUNGFUNCTION_TOTAL = 461440
EXPECTED_LUNGFUNCTION_FP = 23072.0
EXPECTED_MEDIAN_FP = 768.0
COHORT_PUBLICATIONS = 107
COHORT_MEDIAN_SPACE = 13824
EXPECTED_COHORT_FP_ROUNDED = 73958

EXPECTED_REGION_POOL = {"or": 1.34, "ci_low": 1.12, "ci_high": 1.57}
REGION_TOLERANCE = 0.02

# Informational random-effects targets (subgroup aggregation unstated).
INFORMATIONAL_DL = {
    "asthma": {"or": 1.42, "ci_low": 1.23, "ci_high": 1.64},
    "wheeze": {"or": 1.07, "ci_low": 0.99, "ci_high": 1.15},
}

FIGURE_FILES = {
    "asthma": "asthma_plot.svg",
    "wheeze": "wheeze_plot.svg",
}
FIGURE_TITLES = {
    "asthma": "Current asthma, gas cooking exposure",
    "wheeze": "Current wheeze, gas cooking exposure",
}


def fixture_path(name: str) -> Path:
    return Path(__file__).parent / "fixtures" / name


def run_reproduction(outdir: str | Path | None = None) -> dict[str, Any]:
    """Recompute every reference value and diff it against expectation.

    Each computed value is read from a document that a command writes:
    the NATURAL ``plot`` audits, the ``count`` reports and the ``cohort``
    report, all at alpha = ALPHA. Returns the diff as a JSON-ready dict.
    When outdir is given, writes reproduction.json plus both figure SVGs
    there; repeated runs produce byte-identical files.
    """
    checks: list[dict[str, Any]] = []

    def check(
        name: str,
        expected: float,
        computed: float,
        tolerance: float,
        gated: bool = True,
    ) -> None:
        delta = abs(float(computed) - float(expected))
        checks.append(
            {
                "name": name,
                "expected": expected,
                "computed": computed,
                "abs_delta": delta,
                "tolerance": tolerance if gated else None,
                "pass": bool(delta <= tolerance) if gated else None,
                "gated": gated,
            }
        )

    # Study-effect tables: p-values, plot counts, shape verdicts.
    audits = {}
    for dataset in FIGURE_FILES:
        effects = ingest_effects(fixture_path(f"{dataset}_effects.csv"))
        audits[dataset] = audit_report(effects, ConversionMethod.NATURAL, ALPHA)
    plots = {dataset: audit["plot"] for dataset, audit in audits.items()}
    for dataset, expected_rows in (
        ("asthma", EXPECTED_ASTHMA_P),
        ("wheeze", EXPECTED_WHEEZE_P),
    ):
        by_label = {point.label: point.p_value for point in plots[dataset].points}
        for label, expected_p in expected_rows:
            tolerance = FLAGGED_TOLERANCE if label in FLAGGED_ROWS else P_TOLERANCE
            check(f"p_{dataset}[{label}]", expected_p, by_label[label], tolerance)

    check("asthma_plot_points", 13, plots["asthma"].n, 0)
    check("asthma_plot_below_alpha", 1, plots["asthma"].n_below_alpha, 0)
    check("wheeze_plot_points", 27, plots["wheeze"].n, 0)
    check("wheeze_plot_below_alpha", 6, plots["wheeze"].n_below_alpha, 0)
    wheeze = plots["wheeze"]
    negative = sum(point.negative_effect for point in wheeze.points[:wheeze.n_below_alpha])
    check("wheeze_significant_negative", 4, negative, 0)
    for dataset in ("asthma", "wheeze"):
        verdict = audits[dataset]["classification"].verdict
        check(
            f"{dataset}_verdict_not_effect_line",
            1,
            int(verdict is not PlotVerdict.EFFECT_LINE),
            0,
        )

    # Informational random-effects pools on the full row sets.
    for dataset in ("asthma", "wheeze"):
        pooled = audits[dataset]["pooled"]["dersimonian_laird"]
        targets = INFORMATIONAL_DL[dataset]
        check(f"{dataset}_dl_or", targets["or"], pooled.pooled_or, 0.0, gated=False)
        check(f"{dataset}_dl_ci_low", targets["ci_low"], pooled.ci_low, 0.0, gated=False)
        check(f"{dataset}_dl_ci_high", targets["ci_high"], pooled.ci_high, 0.0, gated=False)

    # Model-count ledger: per-paper spaces and distribution summary.
    ledger = count_report(ingest_counts(fixture_path("hypothesis_counts.csv")), ALPHA)
    spaces = {row["paper_label"]: row["search_space"] for row in ledger["studies"]}
    for label, expected_space in EXPECTED_SEARCH_SPACES:
        check(f"nh[{label}]", expected_space, spaces[label], 0)
    summary = ledger["summary"]
    for name, expected in EXPECTED_LEDGER_SUMMARY.items():
        check(f"ledger_{name}", expected, summary[name], 0)
    check("median_expected_fp", EXPECTED_MEDIAN_FP, summary["median_expected_false_positives"], 0)

    # Single-study block ledger.
    lung = count_report(ingest_counts(fixture_path("lungfunction_blocks.csv")), ALPHA)
    study = lung["studies"][0]
    block_spaces = {block.block_label: block.search_space for block in study["blocks"]}
    for label, expected_space in EXPECTED_LUNGFUNCTION_BLOCKS:
        check(f"block[{label}]", expected_space, block_spaces[label], 0)
    check("lungfunction_total", EXPECTED_LUNGFUNCTION_TOTAL, study["search_space"], 0)
    lung_fp = study["expected_false_positives"]
    check("lungfunction_expected_fp", EXPECTED_LUNGFUNCTION_FP, lung_fp, 0)

    # Cohort-level expected false positives.
    cohort = cohort_report(COHORT_PUBLICATIONS, COHORT_MEDIAN_SPACE, ALPHA)
    rounded = cohort["expected_false_positives_rounded"]
    check("cohort_fp_rounded", EXPECTED_COHORT_FP_ROUNDED, rounded, 0)

    # Fixed-effect combination of the two regional estimates.
    pair = ingest_effects(fixture_path("region_pair.csv"))
    pooled = pool_fixed(pair)
    check("region_pool_or", EXPECTED_REGION_POOL["or"], pooled.pooled_or, REGION_TOLERANCE)
    check("region_pool_ci_low", EXPECTED_REGION_POOL["ci_low"], pooled.ci_low, REGION_TOLERANCE)
    check("region_pool_ci_high", EXPECTED_REGION_POOL["ci_high"], pooled.ci_high, REGION_TOLERANCE)

    digests = (*(audit["input"] for audit in audits.values()), ledger["input"], lung["input"],
               pair.digest)
    fixtures = {digest["file"]: digest for digest in digests}
    gated = [c for c in checks if c["gated"]]
    passed = [c for c in gated if c["pass"]]
    diff = {
        "fixtures": fixtures,
        "checks": checks,
        "summary": {
            "gated": len(gated),
            "gated_passed": len(passed),
            "informational": len(checks) - len(gated),
            "all_gated_pass": len(passed) == len(gated),
        },
    }

    if outdir is not None:
        texts = {"reproduction.json": document_json(diff)}
        for dataset, filename in FIGURE_FILES.items():
            audit = audits[dataset]
            texts[filename] = render_plot(
                audit["plot"], audit["classification"], FIGURE_TITLES[dataset], "svg"
            )
        write_artifacts(Path(outdir), texts)
    return diff
