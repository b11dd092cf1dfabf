"""Odds-ratio study records and their conversion to z-scores and p-values.

A study estimate is an odds ratio with a two-sided confidence interval. Two
conversion conventions are supported and must never be merged:

* NATURAL treats the interval as symmetric around the odds ratio itself:
  SE = (ci_high - ci_low) / (2q) and z = (OR - 1) / SE.
* LOG treats the interval as symmetric on the log scale, the usual
  assumption for ratio measures: SE = (ln ci_high - ln ci_low) / (2q) and
  z = ln(OR) / SE.

Here q is the standard normal multiplier for the interval's level,
q = Phi^-1(1 - (1 - ci_level)/2), e.g. 1.95996 for a 95% interval. The
two-sided p-value is p = 2 * (1 - Phi(|z|)) in both conventions.
"""

from __future__ import annotations

import functools
import math
import warnings
from enum import Enum
from typing import Any, NamedTuple

from .errors import CheckedRecord, DegenerateIntervalError, DomainError, InvalidIntervalError
from .errors import check_finite, check_label, check_level
from .normal import std_normal_quantile, two_sided_p


class ConversionMethod(Enum):
    """How an (OR, CI) record is mapped to a z-score."""

    NATURAL = "natural"
    LOG = "log"


class _EffectEstimate(NamedTuple):
    study_label: str
    odds_ratio: float
    ci_low: float
    ci_high: float
    subgroup_label: str | None = None
    ci_level: float = 0.95


class EffectEstimate(CheckedRecord, _EffectEstimate):
    """One study (or subgroup) estimate: odds ratio plus confidence interval.

    A record has a usable level and a positive SE under both readings. The
    odds ratio is allowed to sit outside its own interval; several
    published tables contain such rows, so this raises a warning rather
    than an error.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> EffectEstimate:
        self = super().__new__(cls, *args, **kwargs)
        check_label("study_label", self.study_label)
        for name in ("odds_ratio", "ci_low", "ci_high"):
            check_finite(name, getattr(self, name))
        check_level("ci_level", self.ci_level)
        if self.odds_ratio <= 0.0:
            raise DomainError(
                f"odds_ratio must be positive, got {self.odds_ratio}", field="odds_ratio"
            )
        if self.ci_low <= 0.0:
            raise InvalidIntervalError(
                f"ci_low must be positive, got {self.ci_low}", field="ci_low"
            )
        if self.ci_high <= self.ci_low:
            raise InvalidIntervalError(
                f"interval is inverted or empty: ({self.ci_low}, {self.ci_high})",
                field="ci_high",
            )
        for method in ConversionMethod:
            standard_error(self, method)
        if not self.ci_low <= self.odds_ratio <= self.ci_high:
            warnings.warn(
                f"{self.display_label()}: odds ratio {self.odds_ratio} lies "
                f"outside its interval ({self.ci_low}, {self.ci_high})",
                stacklevel=2,
            )
        return self

    def display_label(self) -> str:
        if self.subgroup_label:
            return f"{self.study_label} ({self.subgroup_label})"
        return self.study_label


def check_method(method: Any) -> ConversionMethod:
    """method, if it is a ConversionMethod; the one check of a reading."""
    if not isinstance(method, ConversionMethod):
        raise DomainError(f"unknown conversion method: {method!r}")
    return method


@functools.lru_cache
def interval_multiplier(ci_level: float) -> float:
    """Two-sided standard normal multiplier q for a confidence level.

    Cached: nearly every row of a table shares one level. A level whose
    1 - (1 - ci_level)/2 rounds to 0.5 or 1 has no multiplier and raises.
    """
    check_level("ci_level", ci_level)
    p = 1.0 - (1.0 - ci_level) / 2.0
    if not 0.5 < p < 1.0:
        raise DomainError(f"ci_level {ci_level!r} is too near 0 or 1", field="ci_level")
    return std_normal_quantile(p)


def standard_error(estimate: EffectEstimate, method: ConversionMethod) -> float:
    """Standard error implied by the interval under the given convention.

    Raises:
        DegenerateIntervalError: if the interval width collapses to zero
            at float precision, leaving no information about the SE.
    """
    q2 = 2.0 * interval_multiplier(estimate.ci_level)
    if check_method(method) is ConversionMethod.NATURAL:
        width = estimate.ci_high - estimate.ci_low
    else:
        width = math.log(estimate.ci_high) - math.log(estimate.ci_low)
    se = width / q2
    if se <= 0.0:
        raise DegenerateIntervalError(
            f"{estimate.display_label()}: interval width is zero, SE undefined",
            field="ci_high",
        )
    return se


def z_score(estimate: EffectEstimate, method: ConversionMethod) -> float:
    """Signed z-score of the estimate under the given convention."""
    se = standard_error(estimate, method)
    if method is ConversionMethod.NATURAL:
        return (estimate.odds_ratio - 1.0) / se
    return math.log(estimate.odds_ratio) / se


def p_from_effect(estimate: EffectEstimate, method: ConversionMethod) -> float:
    """Two-sided p-value of the estimate's z-score; see normal.two_sided_p."""
    return two_sided_p(z_score(estimate, method))
