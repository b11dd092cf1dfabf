"""Multiple-testing search spaces and their cohort summaries.

The arithmetic is exact integers, so most assertions are equalities. The
expected false-positive products for the bundled ledger land exactly on
binary fractions (0.05 * 461440 and 0.05 * 15360 are representable), which
the tests exploit with == comparisons.
"""

import pytest

from metaaudit import (
    CountBlock,
    DomainError,
    EmptyInputError,
    LedgerSummary,
    OverflowGuardError,
    StudyCounts,
    block_search_space,
    cohort_false_positives,
    expected_false_positives,
    ingest_counts,
    summarize_ledger,
)
from metaaudit.reproduce import fixture_path


def _single_block_study(label, outcomes, predictors=1, covariates=0):
    return StudyCounts(
        paper_label=label,
        region="test",
        blocks=(CountBlock("only", outcomes, predictors, covariates),),
    )


def test_block_formula():
    assert block_search_space(1, 1, 0) == 1
    assert block_search_space(3, 2, 4) == 96
    assert block_search_space(21, 1, 7) == 2688
    assert block_search_space(7, 1, 16) == 458752


def test_covariate_increment_doubles_space():
    for covariates in (0, 3, 17, 63, 127):
        assert block_search_space(5, 3, covariates + 1) == 2 * block_search_space(
            5, 3, covariates
        )


def test_covariate_guard():
    # 128 candidate covariates is allowed and exact; 129 trips the guard.
    assert block_search_space(1, 1, 128) == 1 << 128
    with pytest.raises(OverflowGuardError):
        block_search_space(1, 1, 129)


@pytest.mark.parametrize(
    "outcomes, predictors, covariates",
    [(0, 1, 1), (1, 0, 1), (1, 1, -1), (True, 1, 1), (1.0, 1, 1)],
)
def test_count_validation(outcomes, predictors, covariates):
    with pytest.raises(DomainError):
        block_search_space(outcomes, predictors, covariates)


def test_multi_block_study_sums():
    study = StudyCounts(
        paper_label="two families",
        region="test",
        blocks=(
            CountBlock("basic models", 21, 1, 7),
            CountBlock("adjusted model", 7, 1, 16),
        ),
    )
    assert study.search_space == 2688 + 458752 == 461440


def test_study_validation():
    with pytest.raises(EmptyInputError):
        StudyCounts(paper_label="empty", region="test", blocks=())
    with pytest.raises(DomainError):
        StudyCounts(paper_label="  ", region="test", blocks=(CountBlock("b", 1, 1, 0),))


def test_computed_fields_are_always_recomputed():
    block = CountBlock("b", 2, 3, 4)
    assert block._replace(outcomes=3).search_space == 3 * 3 * 16
    assert CountBlock._make(("b", 2, 3, 4, 999)).search_space == 96
    with pytest.raises(TypeError, match="search_space"):
        block._replace(search_space=999)
    with pytest.raises(DomainError):
        block._replace(covariates=-1)
    study = StudyCounts("p", "r", (block,))
    assert study._replace(blocks=(block, block)).search_space == 192
    assert StudyCounts._make(("p", "r", (block,), 1)).search_space == 96
    with pytest.raises(EmptyInputError):
        study._replace(blocks=())
    summary = summarize_ledger([study])
    assert summary._replace(mean=2.6).mean_rounded == 3
    assert LedgerSummary._make((*summary[:6], 3.7, 0)).mean_rounded == 4
    with pytest.raises(TypeError, match="mean_rounded"):
        summary._replace(mean_rounded=0)


def test_expected_false_positives_exact():
    assert expected_false_positives(461440, 0.05) == 23072.0
    assert expected_false_positives(15360, 0.05) == 768.0
    assert expected_false_positives(0, 0.05) == 0.0
    with pytest.raises(DomainError):
        expected_false_positives(100, 0.0)
    with pytest.raises(DomainError):
        expected_false_positives(100, 1.0)


def test_expected_false_positives_takes_an_interpolated_median():
    # A ledger with an even number of papers can have a median ending in .5.
    assert expected_false_positives(6.5, 0.05) == 0.325


# 10**309 is a finite int beyond the float range.
@pytest.mark.parametrize(
    "bad", [-1, float("nan"), float("inf"), True, "10", pytest.param(10**309, id="10**309")]
)
def test_expected_false_positives_rejects_bad_space(bad):
    with pytest.raises(DomainError):
        expected_false_positives(bad, 0.05)


def test_cohort_false_positives():
    value = cohort_false_positives(107, 13824, 0.05)
    assert value == pytest.approx(73958.4, abs=1e-9)
    assert round(value) == 73958
    with pytest.raises(DomainError):
        cohort_false_positives(0, 13824, 0.05)


def test_search_space_beyond_float_range_is_guarded():
    # The ledger summary and alpha * N are floats, so N must fit one.
    assert block_search_space(10**308, 1, 0) == 10**308
    with pytest.raises(OverflowGuardError) as raised:
        block_search_space(10**400, 1, 0)
    assert raised.value.field == "outcomes"
    with pytest.raises(OverflowGuardError) as raised:
        block_search_space(2, 10**308, 0)
    assert raised.value.field == "predictors"
    blocks = tuple(CountBlock(f"b{i}", 10**308, 1, 0) for i in range(2))
    with pytest.raises(OverflowGuardError) as raised:
        StudyCounts(paper_label="big", region="test", blocks=blocks)
    assert raised.value.field == "paper_label"


def test_cohort_beyond_float_range_is_guarded():
    with pytest.raises(OverflowGuardError) as raised:
        cohort_false_positives(107, 10**400, 0.05)
    assert raised.value.field == "median_space"
    # A product beyond float range is blamed on its larger factor, n_publications on a tie.
    for n_publications, median_space, field in [
        (10**200, 10**200, "n_publications"),
        (10**308, 13824, "n_publications"),
        (107, 10**308, "median_space"),
    ]:
        with pytest.raises(OverflowGuardError) as raised:
            cohort_false_positives(n_publications, median_space, 0.05)
        assert raised.value.field == field


def test_quantile_interpolation():
    studies = [_single_block_study(f"s{i}", i) for i in (1, 2, 3, 4)]
    summary = summarize_ledger(studies)
    assert summary.n == 4
    assert summary.minimum == 1
    assert summary.lower_quartile == 1.75
    assert summary.median == 2.5
    assert summary.upper_quartile == 3.25
    assert summary.maximum == 4
    assert summary.mean == 2.5
    # Python bankers rounding: round(2.5) is 2.
    assert summary.mean_rounded == 2


def test_single_study_summary():
    summary = summarize_ledger([_single_block_study("one", 320)])
    assert (summary.minimum, summary.median, summary.maximum) == (320, 320.0, 320)
    assert summary.lower_quartile == summary.upper_quartile == 320.0


def test_summary_order_invariant():
    studies = [_single_block_study(f"s{i}", n) for i, n in enumerate((9, 2, 7, 5, 11))]
    forward = summarize_ledger(studies)
    backward = summarize_ledger(list(reversed(studies)))
    assert forward == backward


def test_bundled_ledger_summary():
    studies = ingest_counts(fixture_path("hypothesis_counts.csv"))
    assert len(studies) == 14
    summary = summarize_ledger(studies)
    assert summary.minimum == 320
    assert summary.lower_quartile == 6336.0
    assert summary.median == 15360.0
    assert summary.upper_quartile == 49152.0
    assert summary.maximum == 304128
    assert summary.mean_rounded == 49925


def test_empty_ledger_raises():
    with pytest.raises(EmptyInputError):
        summarize_ledger([])
