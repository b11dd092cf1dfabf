"""Conversion of (odds ratio, confidence interval) records to p-values.

The worked-example constants are frozen from a 50-digit computation;
scipy.stats.norm supplies an independent cross-check of every fixture row
under both interval conventions.
"""

import copy
import math
import pickle

import pytest
from scipy.stats import norm

from metaaudit import (
    ConversionMethod,
    DegenerateIntervalError,
    DomainError,
    EffectEstimate,
    InvalidIntervalError,
    ingest_effects,
    interval_multiplier,
    p_from_effect,
    standard_error,
    z_score,
)
from metaaudit.reproduce import fixture_path

# Worked example: OR 1.48 with 95% interval (0.90, 2.43).
EXAMPLE = EffectEstimate("example", 1.48, 0.90, 2.43)
Q95 = 1.959963984540054
EXAMPLE_SE_NATURAL = 0.3903132945473637
EXAMPLE_SE_LOG = 0.2533852103520596


def test_interval_multiplier_frozen_values():
    assert interval_multiplier(0.95) == pytest.approx(Q95, abs=1e-9)
    assert interval_multiplier(0.90) == pytest.approx(1.6448536269514722, abs=1e-9)
    assert interval_multiplier(0.99) == pytest.approx(2.5758293035489004, abs=1e-9)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
def test_interval_multiplier_domain(bad):
    with pytest.raises(DomainError):
        interval_multiplier(bad)


# The extreme levels with a usable multiplier: below the first,
# 1 - (1 - c)/2 rounds to 0.5 (q = 0); above the second, it rounds to 1.
LOWEST_LEVEL = 1.6653345369377348e-16
HIGHEST_LEVEL = math.nextafter(math.nextafter(1.0, 0.0), 0.0)


def test_interval_multiplier_boundaries():
    assert 0.0 < interval_multiplier(LOWEST_LEVEL) < 1e-15
    assert interval_multiplier(HIGHEST_LEVEL) == pytest.approx(8.2095, abs=1e-4)
    for level in (LOWEST_LEVEL, HIGHEST_LEVEL):
        assert EffectEstimate("x", 1.5, 1.1, 2.0, ci_level=level).ci_level == level
    for level in (math.nextafter(LOWEST_LEVEL, 0.0), 1e-17, 5e-324,
                  math.nextafter(HIGHEST_LEVEL, 1.0)):
        with pytest.raises(DomainError, match="too near 0 or 1") as info:
            interval_multiplier(level)
        assert info.value.field == "ci_level"
        with pytest.raises(DomainError, match="too near 0 or 1") as info:
            EffectEstimate("x", 1.5, 1.1, 2.0, ci_level=level)
        assert info.value.field == "ci_level"


def test_standard_error_natural_worked_example():
    se = standard_error(EXAMPLE, ConversionMethod.NATURAL)
    assert se == pytest.approx((2.43 - 0.90) / (2.0 * norm.ppf(0.975)), rel=1e-12)
    assert se == pytest.approx(EXAMPLE_SE_NATURAL, abs=1e-12)
    # Published four-significant-digit rendering of the same quantity.
    assert se == pytest.approx(0.390306, abs=1e-5)


def test_standard_error_log_worked_example():
    se = standard_error(EXAMPLE, ConversionMethod.LOG)
    expected = math.log(2.43 / 0.90) / (2.0 * norm.ppf(0.975))
    assert se == pytest.approx(expected, rel=1e-12)
    assert se == pytest.approx(EXAMPLE_SE_LOG, abs=1e-12)


def test_p_natural_worked_example():
    p = p_from_effect(EXAMPLE, ConversionMethod.NATURAL)
    z = (1.48 - 1.0) / EXAMPLE_SE_NATURAL
    assert p == pytest.approx(2.0 * norm.sf(abs(z)), rel=1e-12)
    assert p == pytest.approx(0.2188, abs=5e-4)


def test_p_log_worked_example():
    p = p_from_effect(EXAMPLE, ConversionMethod.LOG)
    z = math.log(1.48) / EXAMPLE_SE_LOG
    assert p == pytest.approx(2.0 * norm.sf(abs(z)), rel=1e-12)


def test_conventions_stay_distinct():
    # The two interval readings give visibly different p-values on an
    # interval that is asymmetric around the odds ratio.
    p_natural = p_from_effect(EXAMPLE, ConversionMethod.NATURAL)
    p_log = p_from_effect(EXAMPLE, ConversionMethod.LOG)
    assert abs(p_natural - p_log) > 0.05


@pytest.mark.parametrize("method", list(ConversionMethod))
def test_all_fixture_rows_match_scipy(method):
    effects = []
    for name in ("asthma_effects.csv", "wheeze_effects.csv"):
        effects.extend(ingest_effects(fixture_path(name)))
    assert len(effects) == 40
    q = norm.ppf(0.975)
    for effect in effects:
        if method is ConversionMethod.NATURAL:
            se = (effect.ci_high - effect.ci_low) / (2.0 * q)
            z = (effect.odds_ratio - 1.0) / se
        else:
            se = math.log(effect.ci_high / effect.ci_low) / (2.0 * q)
            z = math.log(effect.odds_ratio) / se
        expected = 2.0 * norm.sf(abs(z))
        assert p_from_effect(effect, method) == pytest.approx(expected, rel=1e-9), (
            effect.display_label()
        )


def test_log_conversion_reflection_symmetry():
    # Inverting the odds ratio mirrors the interval on the log scale and
    # must leave the two-sided p-value unchanged.
    for odds_ratio, low, high in [(1.48, 0.90, 2.43), (0.62, 0.41, 0.94), (2.0, 1.1, 3.6)]:
        forward = EffectEstimate("fwd", odds_ratio, low, high)
        mirrored = EffectEstimate("rev", 1.0 / odds_ratio, 1.0 / high, 1.0 / low)
        assert p_from_effect(forward, ConversionMethod.LOG) == pytest.approx(
            p_from_effect(mirrored, ConversionMethod.LOG), rel=1e-12
        )


def test_widening_interval_raises_p():
    previous = 0.0
    for width in (1.2, 1.5, 2.0, 3.0, 5.0):
        estimate = EffectEstimate("w", 1.5, 1.5 / width, 1.5 * width)
        p = p_from_effect(estimate, ConversionMethod.LOG)
        assert p > previous
        previous = p
    previous = 0.0
    for half_width in (0.2, 0.4, 0.8, 1.2):
        estimate = EffectEstimate("w", 1.48, 1.48 - half_width, 1.48 + half_width)
        p = p_from_effect(estimate, ConversionMethod.NATURAL)
        assert p > previous
        previous = p


def test_z_score_sign_follows_direction():
    protective = EffectEstimate("p", 0.7, 0.5, 0.98)
    harmful = EffectEstimate("h", 1.4, 1.02, 1.92)
    for method in ConversionMethod:
        assert z_score(protective, method) < 0.0
        assert z_score(harmful, method) > 0.0


def test_null_or_gives_p_exactly_one():
    estimate = EffectEstimate("null", 1.0, 0.5, 2.0)
    assert p_from_effect(estimate, ConversionMethod.NATURAL) == 1.0
    assert p_from_effect(estimate, ConversionMethod.LOG) == 1.0


def test_estimate_validation():
    with pytest.raises(InvalidIntervalError):
        EffectEstimate("x", 1.5, 2.0, 1.0)
    with pytest.raises(InvalidIntervalError):
        EffectEstimate("x", 1.5, 1.5, 1.5)
    with pytest.raises(InvalidIntervalError):
        EffectEstimate("x", 1.5, -0.1, 2.0)
    with pytest.raises(DomainError):
        EffectEstimate("x", -1.5, 0.5, 2.0)
    with pytest.raises(DomainError):
        EffectEstimate("x", 1.5, 0.5, 2.0, ci_level=1.0)
    with pytest.raises(DomainError):
        EffectEstimate("x", math.inf, 0.5, 2.0)
    with pytest.raises(DomainError):
        EffectEstimate("", 1.5, 0.5, 2.0)
    with pytest.raises(DomainError):
        EffectEstimate("x", True, 0.5, 2.0)


def test_or_outside_interval_warns_but_constructs():
    with pytest.warns(UserWarning, match="outside its interval") as caught:
        estimate = EffectEstimate("odd", 0.8, 0.9, 1.2)
    assert estimate.odds_ratio == 0.8
    # Located at the caller, not inside the constructor.
    assert caught[0].filename == __file__


def test_replace_and_make_check_like_the_constructor():
    with pytest.raises(InvalidIntervalError, match="ci_low must be positive"):
        EXAMPLE._replace(ci_low=-1.0)
    with pytest.raises(DomainError, match="odds_ratio must be positive"):
        EffectEstimate._make(("example", 0.0, 0.90, 2.43, None, 0.95))
    with pytest.warns(UserWarning, match="outside its interval"):
        EXAMPLE._replace(odds_ratio=3.0)
    assert EXAMPLE._replace(odds_ratio=1.5) == EffectEstimate("example", 1.5, 0.90, 2.43)
    assert type(EffectEstimate._make(EXAMPLE)) is EffectEstimate


def test_degenerate_log_width():
    # Adjacent doubles whose logs collapse to the same value: the NATURAL
    # reading still sees a width, the LOG reading has none left, so no way
    # of building the record lets it exist.
    low = 1e300
    high = math.nextafter(low, math.inf)
    assert high - low > 0.0 and math.log(high) == math.log(low)
    fields = ("tight", low, low, high, None, 0.95)
    unchecked = tuple.__new__(EffectEstimate, fields)
    builders = {
        "constructor": lambda: EffectEstimate(*fields),
        "_make": lambda: EffectEstimate._make(fields),
        "_replace": lambda: EXAMPLE._replace(odds_ratio=low, ci_low=low, ci_high=high),
        "copy": lambda: copy.copy(unchecked),
        "pickle": lambda: pickle.loads(pickle.dumps(unchecked)),
    }
    for name, build in builders.items():
        with pytest.raises(DegenerateIntervalError, match="interval width is zero") as info:
            build()
        assert info.value.field == "ci_high", name


def test_display_label():
    assert EffectEstimate("A 2001", 1.2, 1.0, 1.5).display_label() == "A 2001"
    labeled = EffectEstimate("A 2001", 1.2, 1.0, 1.5, subgroup_label="boys")
    assert labeled.display_label() == "A 2001 (boys)"
