"""Fixed-effect and DerSimonian-Laird pooling.

A longhand numpy implementation, written independently of the package
internals, re-derives every pooled quantity for randomized study sets; the
published two-region combination serves as an end-to-end anchor.
"""

import math
import random

import numpy as np
import pytest
from scipy.stats import norm

from metaaudit import (
    EffectEstimate,
    EmptyInputError,
    OverflowGuardError,
    PoolingMethod,
    ingest_effects,
    pool_dersimonian_laird,
    pool_fixed,
)
from metaaudit.reproduce import fixture_path

Q95 = norm.ppf(0.975)


def _estimate_from_log(label, log_or, se, subgroup=None):
    return EffectEstimate(
        label,
        math.exp(log_or),
        math.exp(log_or - Q95 * se),
        math.exp(log_or + Q95 * se),
        subgroup_label=subgroup,
    )


def _random_studies(rng, k):
    return [
        _estimate_from_log(
            f"study {i}",
            rng.normal(0.3, 0.4),
            rng.uniform(0.05, 0.5),
        )
        for i in range(k)
    ]


def _longhand(effects, method):
    """Independent numpy re-derivation of the pooled quantities."""
    ys = np.array([math.log(e.odds_ratio) for e in effects])
    ses = np.array(
        [math.log(e.ci_high / e.ci_low) / (2.0 * Q95) for e in effects]
    )
    vs = ses ** 2
    w_fixed = 1.0 / vs
    mean_fe = np.sum(w_fixed * ys) / np.sum(w_fixed)
    q = float(np.sum(w_fixed * (ys - mean_fe) ** 2))
    k = len(ys)
    if k >= 2:
        sw = np.sum(w_fixed)
        denominator = sw - np.sum(w_fixed ** 2) / sw
        tau2 = max(0.0, (q - (k - 1)) / float(denominator))
        i2 = max(0.0, (q - (k - 1)) / q) if q > 0 else 0.0
    else:
        tau2 = 0.0
        i2 = 0.0
    weights = w_fixed if method is PoolingMethod.FIXED else 1.0 / (vs + tau2)
    mean = float(np.sum(weights * ys) / np.sum(weights))
    se = float(np.sum(weights)) ** -0.5
    return {
        "pooled_log_or": mean,
        "pooled_se": se,
        "pooled_or": math.exp(mean),
        "ci_low": math.exp(mean - Q95 * se),
        "ci_high": math.exp(mean + Q95 * se),
        "p_value": 2.0 * norm.sf(abs(mean / se)),
        "q_statistic": q,
        "tau_squared": tau2,
        "i_squared": i2,
    }


def test_two_region_combination_matches_published():
    pair = ingest_effects(fixture_path("region_pair.csv"))
    pooled = pool_fixed(pair)
    assert pooled.k == 2
    assert pooled.pooled_or == pytest.approx(1.34, abs=0.02)
    assert pooled.ci_low == pytest.approx(1.12, abs=0.02)
    assert pooled.ci_high == pytest.approx(1.57, abs=0.02)


def test_single_study_is_identity():
    estimate = _estimate_from_log("solo", 0.35, 0.21)
    for pool in (pool_fixed, pool_dersimonian_laird):
        pooled = pool([estimate])
        assert pooled.k == 1
        assert pooled.pooled_log_or == pytest.approx(0.35, abs=1e-9)
        assert pooled.pooled_se == pytest.approx(0.21, abs=1e-9)
        assert pooled.pooled_or == pytest.approx(math.exp(0.35), rel=1e-9)
        assert pooled.q_statistic == pytest.approx(0.0, abs=1e-18)
        assert pooled.tau_squared == 0.0
        assert pooled.i_squared == 0.0


def test_duplicate_study_narrows_se_by_sqrt2():
    estimate = _estimate_from_log("dup", 0.35, 0.21)
    twin = _estimate_from_log("dup twin", 0.35, 0.21)
    pooled = pool_fixed([estimate, twin])
    assert pooled.pooled_log_or == pytest.approx(0.35, abs=1e-9)
    assert pooled.pooled_se == pytest.approx(0.21 / math.sqrt(2.0), rel=1e-9)


def test_homogeneous_set_collapses_dl_to_fixed():
    studies = [
        _estimate_from_log(f"same {i}", 0.3, se)
        for i, se in enumerate((0.1, 0.2, 0.3))
    ]
    fixed = pool_fixed(studies)
    dl = pool_dersimonian_laird(studies)
    assert dl.tau_squared == 0.0
    assert dl.pooled_log_or == pytest.approx(fixed.pooled_log_or, abs=1e-12)
    assert dl.pooled_se == pytest.approx(fixed.pooled_se, abs=1e-12)
    assert fixed.q_statistic == pytest.approx(0.0, abs=1e-18)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("method", list(PoolingMethod))
def test_matches_longhand_derivation(seed, method):
    rng = np.random.default_rng(1000 + seed)
    studies = _random_studies(rng, 5)
    pool = pool_fixed if method is PoolingMethod.FIXED else pool_dersimonian_laird
    pooled = pool(studies)
    expected = _longhand(studies, method)
    for field, value in expected.items():
        assert getattr(pooled, field) == pytest.approx(value, rel=1e-10, abs=1e-12), field


def test_permutation_gives_bit_identical_results():
    rng = np.random.default_rng(77)
    studies = _random_studies(rng, 8)
    baseline = pool_dersimonian_laird(studies)
    shuffler = random.Random(3)
    for _ in range(10):
        shuffled = studies[:]
        shuffler.shuffle(shuffled)
        pooled = pool_dersimonian_laird(shuffled)
        assert pooled == baseline


def test_dl_interval_never_narrower_than_fixed():
    rng = np.random.default_rng(5150)
    for _ in range(1000):
        studies = _random_studies(rng, int(rng.integers(2, 8)))
        fixed = pool_fixed(studies)
        dl = pool_dersimonian_laird(studies)
        assert dl.pooled_se >= fixed.pooled_se - 1e-15


def test_extreme_variance_study_is_downweighted():
    tight = _estimate_from_log("tight", 0.2, 0.05)
    vague = _estimate_from_log("vague", 3.0, 50.0)
    pooled = pool_fixed([tight, vague])
    # Weight ratio 1e6 : 1, so the vague study moves the mean by ~3e-6.
    assert pooled.pooled_log_or == pytest.approx(0.2, abs=1e-4)
    assert math.isfinite(pooled.p_value)


def test_heterogeneity_stats_alone():
    # Q, tau^2 and I^2 describe the input set, so both methods report the
    # same values whichever weights they pool with.
    rng = np.random.default_rng(42)
    studies = _random_studies(rng, 6)
    expected = _longhand(studies, PoolingMethod.FIXED)
    for pooled in (pool_fixed(studies), pool_dersimonian_laird(studies)):
        assert pooled.q_statistic == pytest.approx(expected["q_statistic"], rel=1e-10)
        assert pooled.tau_squared == pytest.approx(
            expected["tau_squared"], rel=1e-10, abs=1e-15
        )
        assert pooled.i_squared == pytest.approx(expected["i_squared"], rel=1e-10, abs=1e-15)


def test_empty_input_raises():
    with pytest.raises(EmptyInputError):
        pool_fixed([])
    with pytest.raises(EmptyInputError):
        pool_dersimonian_laird([])


def test_pooled_upper_limit_beyond_float_range_raises():
    # exp(mean + q * se) = exp(711.5) is beyond the float range.
    effects = [EffectEstimate("A", 1e300, 1e290, 1e308)]
    for pool in (pool_fixed, pool_dersimonian_laird):
        with pytest.raises(OverflowGuardError, match="exceeds the float range"):
            pool(effects)
    # The same row pools at a level whose upper limit stays in range.
    assert pool_fixed(effects, ci_level=0.5).ci_high < math.inf
