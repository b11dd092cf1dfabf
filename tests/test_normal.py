"""Accuracy and contract tests for the normal CDF and quantile.

Reference values come from mpmath at 50 decimal digits; a runtime grid
comparison against mpmath.ncdf guards the whole implementation, and frozen
spot values keep the test meaningful even if the oracle library changes.
"""

import math

import mpmath
import pytest

from metaaudit import DomainError, std_normal_cdf, std_normal_quantile
from metaaudit.normal import two_sided_p

mpmath.mp.dps = 50

# (z, Phi(z)) computed with mpmath at 50 digits.
CDF_SPOTS = [
    (1.0, 0.8413447460685429),
    (-1.0, 0.15865525393145707),
    (2.5, 0.9937903346742238),
    (1.959963984540054, 0.975),
    (-4.0, 3.167124183311992e-05),
    (-8.0, 6.220960574271784e-16),
    (-12.0, 1.776482112077679e-33),
    (-30.0, 4.906713927148187e-198),
]

QUANTILE_SPOTS = [
    (0.975, 1.959963984540054),
    (0.95, 1.6448536269514722),
    (0.995, 2.5758293035489004),
    (0.005, -2.5758293035489004),
    (1e-10, -6.361340902404056),
]


def test_cdf_zero_is_exactly_half():
    assert std_normal_cdf(0.0) == 0.5


@pytest.mark.parametrize("z, expected", CDF_SPOTS)
def test_cdf_spot_values(z, expected):
    assert std_normal_cdf(z) == pytest.approx(expected, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("p, expected", QUANTILE_SPOTS)
def test_quantile_spot_values(p, expected):
    assert std_normal_quantile(p) == pytest.approx(expected, rel=0, abs=1e-9)


def test_quantile_half_is_exactly_zero():
    assert std_normal_quantile(0.5) == 0.0


def test_cdf_matches_mpmath_on_grid():
    # The series branch (|z| <= 5.5) promises absolute accuracy; relative
    # accuracy in the far tail comes from the continued-fraction branch and
    # is covered separately below.
    z = -8.0
    while z <= 8.0:
        expected = float(mpmath.ncdf(z))
        got = std_normal_cdf(z)
        assert abs(got - expected) <= 1e-13
        if z <= -6.0:
            assert got == pytest.approx(expected, rel=1e-12)
        z += 0.125


@pytest.mark.parametrize("z", [-37.0, -30.0, -25.0, -20.0, -15.0, -10.0])
def test_cdf_deep_tail_relative_accuracy(z):
    expected = float(mpmath.ncdf(z))
    assert std_normal_cdf(z) == pytest.approx(expected, rel=1e-12)


def test_cdf_tail_relative_accuracy_on_grid():
    # Relative error of Phi(-t) over the whole unsaturated range, including
    # 4.5 <= t <= 5.5 where alpha / N thresholds for search spaces of 1e5
    # to 1e6 analyses sit. A 1/64 step puts every grid point on an exact
    # binary fraction, so mpmath sees the same t.
    worst = 0.0
    for i in range(int(37.5 * 64) + 1):
        t = i / 64.0
        expected = mpmath.ncdf(-t)
        worst = max(worst, float(abs((std_normal_cdf(-t) - expected) / expected)))
    assert worst <= 2e-15


def _quantile_relative_error(p):
    got = std_normal_quantile(p)
    exact = mpmath.findroot(lambda z: mpmath.ncdf(z) - mpmath.mpf(p), got)
    return float(abs((got - exact) / exact))


def test_quantile_relative_accuracy_in_the_tail():
    # p from 1e-300 to 0.01 at ten points per decade, then 0.02.
    for p in [10.0 ** (e / 10.0) for e in range(-3000, -19, 10)] + [0.02]:
        assert _quantile_relative_error(p) <= 8 * 2.0**-52, p


@pytest.mark.parametrize("p", [0.9, 0.95, 0.975, 0.995, 0.1, 0.05, 0.025, 0.005])
def test_quantile_relative_accuracy_at_interval_levels(p):
    assert _quantile_relative_error(p) <= 8 * 2.0**-52


def test_cdf_saturates_past_38():
    assert std_normal_cdf(38.0) == 1.0
    assert std_normal_cdf(-38.0) == 0.0
    assert std_normal_cdf(40.0) == 1.0
    assert std_normal_cdf(-40.0) == 0.0
    # The lower tail stays a positive subnormal right up to the cutoff; the
    # upper side rounds to 1.0 much earlier because 1 - p loses resolution.
    assert std_normal_cdf(-37.9) > 0.0
    assert std_normal_cdf(8.0) < 1.0


def test_cdf_symmetry():
    z = 0.0
    while z <= 10.0:
        assert abs(std_normal_cdf(z) + std_normal_cdf(-z) - 1.0) <= 1e-15
        z += 0.173


def test_cdf_monotone_nondecreasing():
    previous = 0.0
    z = -12.0
    while z <= 12.0:
        value = std_normal_cdf(z)
        assert value >= previous
        previous = value
        z += 0.05


def test_quantile_monotone_increasing():
    previous = -math.inf
    for i in range(1, 1000):
        value = std_normal_quantile(i / 1000.0)
        assert value > previous
        previous = value


def test_round_trip_central():
    for i in range(1, 100):
        p = i / 100.0
        assert abs(std_normal_cdf(std_normal_quantile(p)) - p) <= 1e-12


def test_round_trip_tails_relative():
    for exponent in range(2, 15):
        p = 10.0 ** -exponent
        back = std_normal_cdf(std_normal_quantile(p))
        assert back == pytest.approx(p, rel=1e-9)
        upper = 1.0 - p
        back = std_normal_cdf(std_normal_quantile(upper))
        assert back == pytest.approx(upper, rel=0, abs=1e-12)


def test_quantile_inverts_cdf():
    # Inversion error is bounded by (input resolution + cdf absolute
    # error) / pdf. Lower-tail p values are well resolved so the bound
    # stays at a few 1e-9 even at z = -7.5; near p = 1 the spacing of
    # doubles (about 1.1e-16) dominates and the bound grows to ~1e-6.
    z = -7.5
    while z <= 4.5:
        p = std_normal_cdf(z)
        tolerance = 1e-10 if abs(z) <= 4.5 else 5e-9
        assert std_normal_quantile(p) == pytest.approx(z, rel=0, abs=tolerance)
        z += 0.31


def test_quantile_inverts_cdf_near_one():
    z = 4.8
    while z <= 7.3:
        p = std_normal_cdf(z)
        pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        bound = 2.3e-16 / pdf + 1e-8
        assert std_normal_quantile(p) == pytest.approx(z, rel=0, abs=bound)
        z += 0.31


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cdf_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        std_normal_cdf(bad)


def test_two_sided_p_of_infinite_z_is_its_limit():
    assert two_sided_p(38.0) == two_sided_p(-38.0) == 0.0
    assert two_sided_p(math.inf) == two_sided_p(-math.inf) == 0.0
    with pytest.raises(DomainError):
        two_sided_p(math.nan)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3, math.nan, math.inf])
def test_quantile_rejects_out_of_domain(bad):
    with pytest.raises(DomainError):
        std_normal_quantile(bad)
