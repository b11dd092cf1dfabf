"""Multiple-testing search spaces for observational studies.

A study that examines O outcomes and P predictors while choosing freely
among C candidate covariates can form N = O * P * 2^C distinct analyses.
Everything here is exact integer arithmetic; C is capped at 128 to keep the
numbers auditable. A block's N and a paper's sum over blocks must also stay
within float range, because the ledger summary and alpha * N are floats.

count_report and cohort_report build the documents that the count and
cohort commands write and that reproduce checks.
"""

from __future__ import annotations

import sys
from typing import Any, NamedTuple, Sequence

from .errors import CheckedRecord, DomainError, EmptyInputError, OverflowGuardError
from .errors import check_finite, check_integer, check_label, check_level

MAX_COVARIATES = 128


def _check_float_range(name: str, value: float, field: str | None) -> None:
    if value > sys.float_info.max:
        raise OverflowGuardError(f"{name} exceeds the float range (1.8e308)", field=field)


def block_search_space(outcomes: int, predictors: int, covariates: int) -> int:
    """Exact O * P * 2^C for one model block."""
    check_integer("outcomes", outcomes, 1)
    check_integer("predictors", predictors, 1)
    check_integer("covariates", covariates, 0)
    if covariates > MAX_COVARIATES:
        raise OverflowGuardError(
            f"covariates = {covariates} exceeds the guarded maximum of {MAX_COVARIATES}",
            field="covariates",
        )
    space = outcomes * predictors * (1 << covariates)
    # 2^C <= 2^128 fits a float, so an overflow is due to the larger of O and P.
    larger = "outcomes" if outcomes >= predictors else "predictors"
    _check_float_range("search space O * P * 2^C", space, larger)
    return space


class _CountBlock(NamedTuple):
    block_label: str
    outcomes: int
    predictors: int
    covariates: int
    search_space: int


class CountBlock(CheckedRecord, _CountBlock):
    """One block of models sharing outcome/predictor/covariate counts.

    Papers sometimes report several model families; each becomes a block
    and the per-paper search space is the sum over blocks. The outcomes
    count is the final multiplied-out figure when a paper crosses factors
    (e.g. 7 outcomes each at 3 cutoffs is stored as outcomes = 21).
    search_space is the block's O * P * 2^C, set on construction.
    """

    __slots__ = ()
    _computed = 1

    def __new__(cls, block_label: str, outcomes: int, predictors: int,
                covariates: int) -> CountBlock:
        space = block_search_space(outcomes, predictors, covariates)
        return super().__new__(cls, block_label, outcomes, predictors, covariates, space)


class _StudyCounts(NamedTuple):
    paper_label: str
    region: str
    blocks: tuple[CountBlock, ...]
    search_space: int


class StudyCounts(CheckedRecord, _StudyCounts):
    """All counted model blocks of one paper; search_space is their sum."""

    __slots__ = ()
    _computed = 1

    def __new__(cls, paper_label: str, region: str, blocks: tuple[CountBlock, ...]) -> StudyCounts:
        check_label("paper_label", paper_label)
        if not blocks:
            raise EmptyInputError(f"{paper_label}: a study needs at least one block")
        total = sum(b.search_space for b in blocks)
        _check_float_range(f"{paper_label}: search space summed over blocks", total, "paper_label")
        return super().__new__(cls, paper_label, region, blocks, total)


def expected_false_positives(n_space: float, alpha: float) -> float:
    """Expected count of false-positive analyses, alpha * N. N may be a
    ledger's interpolated median, so it need not be an integer."""
    if check_finite("n_space", n_space) < 0:
        raise DomainError(f"n_space must be >= 0, got {n_space!r}", field="n_space")
    return check_level("alpha", alpha) * n_space


def cohort_false_positives(
    n_publications: int, median_space: int, alpha: float
) -> float:
    """Expected false positives across a cohort of publications.

    Scales a typical per-publication search space (its median) by the
    number of publications: alpha * n_publications * median_space.
    """
    check_integer("n_publications", n_publications, 1)
    check_integer("median_space", median_space, 0)
    _check_float_range("n_publications", n_publications, "n_publications")
    _check_float_range("median_space", median_space, "median_space")
    check_level("alpha", alpha)
    value = alpha * n_publications * median_space
    # Each factor fits a float, so an overflow is blamed on the larger one.
    larger = "n_publications" if n_publications >= median_space else "median_space"
    _check_float_range("alpha * n_publications * median_space", value, larger)
    return value


class _LedgerSummary(NamedTuple):
    n: int
    minimum: int
    lower_quartile: float
    median: float
    upper_quartile: float
    maximum: int
    mean: float
    mean_rounded: int


class LedgerSummary(CheckedRecord, _LedgerSummary):
    """Distribution summary of per-paper search spaces; mean_rounded = round(mean)."""

    __slots__ = ()
    _computed = 1

    def __new__(cls, n: int, minimum: int, lower_quartile: float, median: float,
                upper_quartile: float, maximum: int, mean: float) -> LedgerSummary:
        return super().__new__(cls, n, minimum, lower_quartile, median, upper_quartile,
                               maximum, mean, round(mean))


def _interpolated_quantile(sorted_values: Sequence[int], q: float) -> float:
    """Linear interpolation at 1-based position 1 + (n-1) * q."""
    n = len(sorted_values)
    if n == 1:
        return float(sorted_values[0])
    position = 1.0 + (n - 1) * q
    index = int(position)
    fraction = position - index
    lower = sorted_values[index - 1]
    if fraction == 0.0:
        return float(lower)
    return lower + fraction * (sorted_values[index] - lower)


def summarize_ledger(studies: Sequence[StudyCounts]) -> LedgerSummary:
    """Five-number-plus-mean summary of per-paper search spaces."""
    if not studies:
        raise EmptyInputError("ledger summary requires at least one study")
    values = sorted(study.search_space for study in studies)
    n = len(values)
    return LedgerSummary(
        n=n,
        minimum=values[0],
        lower_quartile=_interpolated_quantile(values, 0.25),
        median=_interpolated_quantile(values, 0.5),
        upper_quartile=_interpolated_quantile(values, 0.75),
        maximum=values[-1],
        mean=sum(values) / n,
    )


def count_report(studies: ingest.Ingested, alpha: float) -> dict[str, Any]:
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
