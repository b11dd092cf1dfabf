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
    PooledResult,
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


def _bits(pooled):
    """The result with each float as float.hex(), so == compares bit for bit."""
    return tuple(v.hex() if isinstance(v, float) else v for v in pooled)


def test_two_region_combination_matches_published():
    pair = ingest_effects(fixture_path("region_pair.csv"))
    pooled = pool_fixed(pair)
    assert pooled.k == 2
    assert pooled.pooled_or == pytest.approx(1.34, abs=0.02)
    assert pooled.ci_low == pytest.approx(1.12, abs=0.02)
    assert pooled.ci_high == pytest.approx(1.57, abs=0.02)


# float.hex() of every float field of both pools on the bundled tables, so a
# change in the order or grouping of any sum shows. Q, tau^2 and I^2 describe
# the input set and are the same for both pools; wheeze is the one table with
# tau^2 > 0, where DerSimonian-Laird re-weights.
_HETEROGENEITY_HEX = {
    "asthma_effects.csv": ("0x1.5301bc9941872p+3", "0x0.0p+0", "0x0.0p+0"),
    "wheeze_effects.csv": ("0x1.a3393c48dd815p+5", "0x1.a8373ffea0c87p-7", "0x1.01f7eea8aa350p-1"),
    "region_pair.csv": ("0x1.2c50cca844581p-9", "0x0.0p+0", "0x0.0p+0"),
}
_ESTIMATE_HEX = {
    ("asthma_effects.csv", "fixed"): ("0x1.4b972b73aeea5p-2", "0x1.2c0cb2e0f261ap-4",
        "0x1.61e4c2df159cbp+0", "0x1.4a74f0021337cp-17"),
    ("asthma_effects.csv", "dersimonian_laird"): ("0x1.4b972b73aeea5p-2", "0x1.2c0cb2e0f261ap-4",
        "0x1.61e4c2df159cbp+0", "0x1.4a74f0021337cp-17"),
    ("wheeze_effects.csv", "fixed"): ("0x1.b4dcda47a986ap-5", "0x1.47713250ee4d3p-6",
        "0x1.0e05c4bade661p+0", "0x1.f391b784c420ap-8"),
    ("wheeze_effects.csv", "dersimonian_laird"): ("0x1.06154011bde48p-4", "0x1.2e0137628db74p-5",
        "0x1.10ea641f01450p+0", "0x1.52749b4e0b9d4p-4"),
    ("region_pair.csv", "fixed"): ("0x1.2cf0b76076c73p-2", "0x1.5c280c78c871fp-4",
        "0x1.577536f47d2f4p+0", "0x1.1dd11d35c6045p-11"),
    ("region_pair.csv", "dersimonian_laird"): ("0x1.2cf0b76076c73p-2", "0x1.5c280c78c871fp-4",
        "0x1.577536f47d2f4p+0", "0x1.1dd11d35c6045p-11"),
}
_INTERVAL_HEX = {
    ("asthma_effects.csv", "fixed", 0.95): ("0x1.328fe92976449p+0", "0x1.9888625bc20dep+0"),
    ("asthma_effects.csv", "fixed", 0.5): ("0x1.50d53a587cc68p+0", "0x1.73d182e0ca320p+0"),
    ("asthma_effects.csv", "dersimonian_laird", 0.95): ("0x1.328fe92976449p+0", "0x1.9888625bc20dep+0"),
    ("asthma_effects.csv", "dersimonian_laird", 0.5): ("0x1.50d53a587cc68p+0", "0x1.73d182e0ca320p+0"),
    ("wheeze_effects.csv", "fixed", 0.95): ("0x1.03a66699fb87ap+0", "0x1.18cf368eeea39p+0"),
    ("wheeze_effects.csv", "fixed", 0.5): ("0x1.0a683483c3f54p+0", "0x1.11afe494346a0p+0"),
    ("wheeze_effects.csv", "dersimonian_laird", 0.95): ("0x1.fbc86e892d9dbp-1", "0x1.255d7d3b8c96ep+0"),
    ("wheeze_effects.csv", "dersimonian_laird", 0.5): ("0x1.0a368aa7dc06ap+0", "0x1.17c970ebfd1e5p+0"),
    ("region_pair.csv", "fixed", 0.95): ("0x1.22c0676bcb5cfp+0", "0x1.95b7f2d0bfd0ep+0"),
    ("region_pair.csv", "fixed", 0.5): ("0x1.4452258672737p+0", "0x1.6bb95bd8a70d4p+0"),
    ("region_pair.csv", "dersimonian_laird", 0.95): ("0x1.22c0676bcb5cfp+0", "0x1.95b7f2d0bfd0ep+0"),
    ("region_pair.csv", "dersimonian_laird", 0.5): ("0x1.4452258672737p+0", "0x1.6bb95bd8a70d4p+0"),
}


@pytest.mark.parametrize("level", [0.95, 0.5])
@pytest.mark.parametrize("method", list(PoolingMethod))
@pytest.mark.parametrize("name", ["asthma_effects.csv", "wheeze_effects.csv", "region_pair.csv"])
def test_bundled_pools_are_pinned_bit_for_bit(name, method, level):
    pool = pool_fixed if method is PoolingMethod.FIXED else pool_dersimonian_laird
    rows = ingest_effects(fixture_path(name))
    pooled = pool(rows, ci_level=level)
    log_or, se, odds_ratio, p = _ESTIMATE_HEX[name, method.value]
    low, high = _INTERVAL_HEX[name, method.value, level]
    q, tau2, i2 = _HETEROGENEITY_HEX[name]
    expected = PooledResult(len(rows), log_or, se, odds_ratio, low, high, p, q, tau2, i2,
                            method, level.hex())
    assert _bits(pooled) == expected


def test_single_study_is_identity():
    # Rounding leaves Q a tiny positive number for 24 of these 200 studies,
    # where I^2 = (Q - 0) / Q would read 1 without the one-study branch.
    positive_q = 0
    for seed in range(200):
        (estimate,) = _random_studies(np.random.default_rng(seed), 1)
        log_or = math.log(estimate.odds_ratio)
        se = math.log(estimate.ci_high / estimate.ci_low) / (2.0 * Q95)
        for pool in (pool_fixed, pool_dersimonian_laird):
            pooled = pool([estimate])
            assert pooled.k == 1
            assert pooled.pooled_log_or == pytest.approx(log_or, rel=1e-12, abs=1e-15)
            assert pooled.pooled_se == pytest.approx(se, rel=1e-12)
            assert pooled.pooled_or == pytest.approx(estimate.odds_ratio, rel=1e-12)
            assert pooled.q_statistic == pytest.approx(0.0, abs=1e-18)
            assert pooled.tau_squared == 0.0
            assert pooled.i_squared == 0.0
        positive_q += pooled.q_statistic > 0.0
    assert positive_q > 0


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
    assert _bits(dl._replace(method=fixed.method)) == _bits(fixed)
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


@pytest.mark.parametrize("pool", [pool_fixed, pool_dersimonian_laird])
def test_permutation_gives_bit_identical_results(pool):
    rng = np.random.default_rng(77)
    studies = _random_studies(rng, 8)
    baseline = pool(studies)
    assert baseline.tau_squared > 0.0
    shuffler = random.Random(3)
    for _ in range(10):
        shuffled = studies[:]
        shuffler.shuffle(shuffled)
        assert _bits(pool(shuffled)) == _bits(baseline)


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
