"""The public records and functions reject a bad scalar argument with its
AuditError subclass and the argument's field, in one wording per kind of
value: never with OverflowError, TypeError, ValueError or AttributeError.
"""

import math

import pytest

from metaaudit import (
    AuditError,
    ConfigError,
    CountBlock,
    DomainError,
    EffectEstimate,
    PlotConfig,
    RankedPValues,
    Scenario,
    SimulationConfig,
    StudyCounts,
    block_search_space,
    build_plot,
    cohort_false_positives,
    expected_false_positives,
    interval_multiplier,
    ks_pvalue,
    p_from_effect,
    pool_dersimonian_laird,
    pool_fixed,
    simulate_trial,
    standard_error,
    std_normal_cdf,
    std_normal_quantile,
)
from metaaudit.errors import check_finite, check_integer
from metaaudit.normal import two_sided_p

# The bad values of each kind, and the wording that rejects them.
_NOT_FINITE = [True, "0.5", None, math.nan, math.inf, -math.inf, 10**400]
_NUMBERS = (_NOT_FINITE, "a finite number")
_LEVELS = (_NOT_FINITE, "inside (0, 1)")
_P_VALUES = ([*_NOT_FINITE, 1, -0.5, 1.5], "floats in [0, 1]")
_INTEGERS = ([True, "0.5", None, math.nan, math.inf, -math.inf, 2.5, -1], "an integer >= ")
_LABELS = ([5, None, True, "", " \t"], "a non-empty string")

_SIM = dict(scenario=Scenario.NULL, k=5, trials=1, seed=1)
_EFFECT = dict(study_label="a", odds_ratio=1.5, ci_low=1.0, ci_high=2.0)
_ROWS = [EffectEstimate("a", 1.5, 1.0, 2.0), EffectEstimate("b", 0.8, 0.5, 1.3)]
_BLOCKS = (CountBlock("models", 2, 3, 1),)

# (entry point, the call with the bad value v in one argument, the error
# class, the field, the kind of value).
_CASES = [
    *[(f"SimulationConfig.{key}", lambda v, key=key: SimulationConfig(**{**_SIM, key: v}),
       ConfigError, key, _INTEGERS) for key in ("k", "trials", "seed")],
    *[(f"SimulationConfig.{key}", lambda v, key=key: SimulationConfig(**{**_SIM, key: v}),
       ConfigError, key, _NUMBERS) for key in ("log_or", "effect_fraction")],
    ("SimulationConfig.se_range", lambda v: SimulationConfig(**_SIM, se_range=(0.1, v)),
     ConfigError, "se_range", _NUMBERS),
    ("simulate_trial", lambda v: simulate_trial(SimulationConfig(**_SIM), v),
     ConfigError, "trial_index", _INTEGERS),
    *[(f"PlotConfig.{key}", lambda v, key=key: PlotConfig(**{key: v}), ConfigError, key, _LEVELS)
      for key in ("uniform_ks_threshold", "uniform_count_level", "effect_majority_fraction",
                  "bilinear_rss_reduction")],
    *[(f"PlotConfig.{key}", lambda v, key=key: PlotConfig(**{key: v}), ConfigError, key,
       _INTEGERS) for key in ("bilinear_min_segment", "min_points")],
    ("build_plot.p", lambda v: build_plot([("a", 0.5), ("b", v)]), DomainError, "p_values",
     _P_VALUES),
    ("RankedPValues.p_values", lambda v: RankedPValues((0.5, v), 0.05), DomainError, "p_values",
     _P_VALUES),
    ("build_plot.alpha", lambda v: build_plot([("a", 0.5)], alpha=v), DomainError, "alpha",
     _LEVELS),
    ("RankedPValues.alpha", lambda v: RankedPValues((0.5,), v), DomainError, "alpha", _LEVELS),
    ("ks_pvalue.n", lambda v: ks_pvalue(0.1, v), DomainError, "n", _INTEGERS),
    ("ks_pvalue.n", lambda v: ks_pvalue(0.1, v), DomainError, "n", ([10**400], "a finite number")),
    ("ks_pvalue.statistic", lambda v: ks_pvalue(v, 5), DomainError, "statistic", _NUMBERS),
    ("ks_pvalue.statistic", lambda v: ks_pvalue(v, 5), DomainError, "statistic",
     ([1.5, -0.1], "in [0, 1]")),
    ("EffectEstimate.study_label",
     lambda v: EffectEstimate(**{**_EFFECT, "study_label": v}), DomainError, "study_label",
     _LABELS),
    *[(f"EffectEstimate.{key}", lambda v, key=key: EffectEstimate(**{**_EFFECT, key: v}),
       DomainError, key, _NUMBERS) for key in ("odds_ratio", "ci_low", "ci_high")],
    ("EffectEstimate.ci_level", lambda v: EffectEstimate(**_EFFECT, ci_level=v),
     DomainError, "ci_level", _LEVELS),
    ("interval_multiplier", interval_multiplier, DomainError, "ci_level", _LEVELS),
    ("pool_fixed", lambda v: pool_fixed(_ROWS, ci_level=v), DomainError, "ci_level", _LEVELS),
    ("pool_dersimonian_laird", lambda v: pool_dersimonian_laird(_ROWS, ci_level=v),
     DomainError, "ci_level", _LEVELS),
    ("block_search_space.outcomes", lambda v: block_search_space(v, 1, 0), DomainError,
     "outcomes", _INTEGERS),
    ("block_search_space.predictors", lambda v: block_search_space(1, v, 0), DomainError,
     "predictors", _INTEGERS),
    ("block_search_space.covariates", lambda v: block_search_space(1, 1, v), DomainError,
     "covariates", _INTEGERS),
    ("CountBlock.outcomes", lambda v: CountBlock("models", v, 1, 0), DomainError, "outcomes",
     _INTEGERS),
    ("StudyCounts.paper_label", lambda v: StudyCounts(v, "r", _BLOCKS), DomainError,
     "paper_label", _LABELS),
    ("expected_false_positives.n_space", lambda v: expected_false_positives(v, 0.05),
     DomainError, "n_space", _NUMBERS),
    ("expected_false_positives.alpha", lambda v: expected_false_positives(5, v),
     DomainError, "alpha", _LEVELS),
    ("cohort_false_positives.n_publications", lambda v: cohort_false_positives(v, 5, 0.05),
     DomainError, "n_publications", _INTEGERS),
    ("cohort_false_positives.median_space", lambda v: cohort_false_positives(3, v, 0.05),
     DomainError, "median_space", _INTEGERS),
    ("cohort_false_positives.alpha", lambda v: cohort_false_positives(3, 5, v),
     DomainError, "alpha", _LEVELS),
    ("std_normal_cdf", std_normal_cdf, DomainError, "z", _NUMBERS),
    ("two_sided_p", two_sided_p, DomainError, "z",
     ([True, "0.5", None, math.nan, 10**400], "a finite number")),
    ("std_normal_quantile", std_normal_quantile, DomainError, "p", _LEVELS),
]


def _value_id(value):
    return "10**400" if value == 10**400 else repr(value)


_PARAMS = [
    pytest.param(call, value, error, field, wording, id=f"{name}-{_value_id(value)}")
    for name, call, error, field, (values, wording) in _CASES
    for value in values
]


@pytest.mark.parametrize("call, value, error, field, wording", _PARAMS)
def test_a_bad_scalar_raises_its_audit_error_with_the_field(call, value, error, field, wording):
    with pytest.raises(AuditError) as info:
        call(value)
    assert type(info.value) is error
    assert info.value.field == field
    assert f"{field} must be {wording}" in str(info.value)


@pytest.mark.parametrize(
    "check, value",
    [(check_finite, 10**5000), (check_finite, -(10**5000)),
     (lambda name, value: check_integer(name, value, 0), -(10**5000)),
     (lambda name, value: RankedPValues((0.5, value), 0.05), 10**5000)],
    ids=["finite-above", "finite-below", "integer-below", "p-value-above"],
)
def test_an_int_too_long_to_print_is_named_not_printed(check, value):
    # repr of an int over sys.get_int_max_str_digits() digits raises ValueError.
    with pytest.raises(DomainError, match="got an integer beyond the float range"):
        check("x", value)


def test_a_bool_is_never_a_number_and_a_checker_returns_the_value():
    with pytest.raises(DomainError, match="x must be a finite number, got False"):
        check_finite("x", False)
    assert check_finite("x", 3) == 3.0 and type(check_finite("x", 3)) is float
    assert check_integer("x", 10**400, 1) == 10**400


@pytest.mark.parametrize("function", [standard_error, p_from_effect])
def test_a_method_that_is_not_a_conversion_method_is_a_domain_error(function):
    with pytest.raises(AuditError) as info:
        function(_ROWS[0], "log")
    assert type(info.value) is DomainError
    assert str(info.value) == "unknown conversion method: 'log'"
