"""Inverse-variance pooling of odds-ratio estimates on the log scale.

Two estimators are provided: the fixed-effect inverse-variance mean and the
DerSimonian-Laird random-effects mean. All arithmetic happens on log odds
ratios with per-study variances derived from the LOG interval convention.

Determinism contract: studies are first sorted into a canonical order and
all reductions use exact summation (math.fsum), so any permutation of the
same input produces bit-identical results.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import NamedTuple, Sequence

from .effects import ConversionMethod, EffectEstimate, interval_multiplier, standard_error
from .errors import EmptyInputError, OverflowGuardError
from .normal import two_sided_p


class PoolingMethod(Enum):
    FIXED = "fixed"
    DERSIMONIAN_LAIRD = "dersimonian_laird"


class PooledResult(NamedTuple):
    """Pooled effect with heterogeneity statistics.

    Attributes
    ----------
    k : int
        Number of studies pooled.
    pooled_log_or, pooled_se : float
        Weighted mean log odds ratio and its standard error.
    pooled_or, ci_low, ci_high : float
        The same estimate exponentiated, with its confidence interval.
    p_value : float
        Two-sided p-value of the pooled log odds ratio against zero.
    q_statistic, tau_squared, i_squared : float
        Cochran's Q, the DerSimonian-Laird between-study variance estimate
        and the I^2 fraction. These describe the input set and are reported
        for both pooling methods; only DERSIMONIAN_LAIRD uses tau_squared
        in its weights.
    method : PoolingMethod
        Which weighting produced pooled_log_or.
    ci_level : float
        Level of the reported interval.
    """

    k: int
    pooled_log_or: float
    pooled_se: float
    pooled_or: float
    ci_low: float
    ci_high: float
    p_value: float
    q_statistic: float
    tau_squared: float
    i_squared: float
    method: PoolingMethod
    ci_level: float


def _canonical(effects: Sequence[EffectEstimate]) -> list[EffectEstimate]:
    # Sort on every field so duplicate labels still order deterministically.
    return sorted(
        effects,
        key=lambda e: (
            e.study_label,
            e.subgroup_label or "",
            e.odds_ratio,
            e.ci_low,
            e.ci_high,
            e.ci_level,
        ),
    )


def _result(
    effects: Sequence[EffectEstimate],
    method: PoolingMethod,
    ci_level: float,
) -> PooledResult:
    """Pool in canonical order: one fixed-effect fit, then re-weight for DL.

    With y_i = ln OR_i, v_i the squared LOG-reading SE and the fixed-effect
    weights w_i = 1/v_i, both methods report Q = sum w_i (y_i - y_fe)^2,
    tau^2 = max(0, (Q - (k-1)) / (sum w - sum w^2 / sum w)), zero when that
    denominator is not positive, and I^2 = max(0, (Q - (k-1)) / Q), zero
    when Q = 0. One study has tau^2 = I^2 = 0 whatever its rounded Q.
    DERSIMONIAN_LAIRD pools with w_i = 1/(v_i + tau^2); the pooled SE is
    (sum w)^-1/2 of the weights pooled with.
    """
    if not effects:
        raise EmptyInputError("pooling requires at least one study")
    ordered = _canonical(effects)
    k = len(ordered)
    ys = [math.log(e.odds_ratio) for e in ordered]
    vs = [standard_error(e, ConversionMethod.LOG) ** 2 for e in ordered]
    ws = [1.0 / v for v in vs]
    sw = math.fsum(ws)
    mean = math.fsum(w * y for w, y in zip(ws, ys)) / sw
    q = math.fsum(w * (y - mean) ** 2 for w, y in zip(ws, ys))
    tau2 = i2 = 0.0
    if k > 1:
        denom = sw - math.fsum(w * w for w in ws) / sw
        if denom > 0.0:
            tau2 = max(0.0, (q - (k - 1)) / denom)
        if q > 0.0:
            i2 = max(0.0, (q - (k - 1)) / q)
    if method is PoolingMethod.DERSIMONIAN_LAIRD:
        ws = [1.0 / (v + tau2) for v in vs]
        sw = math.fsum(ws)
        mean = math.fsum(w * y for w, y in zip(ws, ys)) / sw
    se = sw ** -0.5
    mult = interval_multiplier(ci_level)
    upper = mean + mult * se
    if upper > math.log(sys.float_info.max):
        raise OverflowGuardError(f"pooled upper limit exp({upper:.6g}) exceeds the float range")
    return PooledResult(
        k=k,
        pooled_log_or=mean,
        pooled_se=se,
        pooled_or=math.exp(mean),
        ci_low=math.exp(mean - mult * se),
        ci_high=math.exp(upper),
        p_value=two_sided_p(mean / se),
        q_statistic=q,
        tau_squared=tau2,
        i_squared=i2,
        method=method,
        ci_level=ci_level,
    )


def pool_fixed(
    effects: Sequence[EffectEstimate], ci_level: float = 0.95
) -> PooledResult:
    """Fixed-effect inverse-variance pooled estimate.

    Parameters
    ----------
    effects : sequence of EffectEstimate
        Studies to pool; at least one.
    ci_level : float
        Confidence level of the reported interval.

    Returns
    -------
    PooledResult
        Weighted mean with w_i = 1/v_i on the log odds ratio scale.
    """
    return _result(effects, PoolingMethod.FIXED, ci_level)


def pool_dersimonian_laird(
    effects: Sequence[EffectEstimate], ci_level: float = 0.95
) -> PooledResult:
    """DerSimonian-Laird random-effects pooled estimate.

    Parameters
    ----------
    effects : sequence of EffectEstimate
        Studies to pool; at least one. A single study degenerates to the
        fixed-effect identity with tau^2 = I^2 = 0.
    ci_level : float
        Confidence level of the reported interval.

    Returns
    -------
    PooledResult
        Weighted mean with w_i = 1/(v_i + tau^2), where tau^2 is the
        method-of-moments estimate clamped at zero.
    """
    return _result(effects, PoolingMethod.DERSIMONIAN_LAIRD, ci_level)

