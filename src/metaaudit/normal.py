"""Standard normal CDF and quantile.

Both directions are implemented locally rather than delegated to scipy so
that results are bit-stable across platforms and library versions, which the
reproduction and golden-file tests rely on.

The CDF evaluates the upper tail P(Z > t) = erfc(x) / 2, x = t / sqrt(2),
with Cody's rational Chebyshev approximations (W. J. Cody, "Rational
Chebyshev approximations for the error function", Math. Comp. 23(107),
1969; coefficients from the netlib specfun CALERF routine):

* x <= 0.46875: erfc(x) = 1 - erf(x), with erf(x) = x * P(x^2) / Q(x^2)
  of degree 4/4; Phi near 1/2 keeps full absolute accuracy;
* 0.46875 < x <= 4: erfc(x) = exp(-x^2) * R(x), R of degree 8/8 in x;
* x > 4: erfc(x) = exp(-x^2) * (1/sqrt(pi) - S(1/x^2)/x^2) / x, S a
  degree 5/5 rational in 1/x^2.

The factor exp(-t^2/2) is computed as exp(-ts^2/2) * exp(-(t-ts)(t+ts)/2)
with ts = trunc(16 t) / 16, so the rounding of t^2 does not grow with t.
No libm erf/erfc is called, only exp. Against mpmath at 50 digits on a
23,751-point grid, the relative error of Phi(-t) is at most 8.3e-16 for
0 <= t <= 37.5. Beyond |z| = 38 the tail underflows double precision and
the CDF saturates to exactly 0.0 or 1.0.

The quantile is Acklam's rational approximation (relative error ~1.15e-9)
polished by a single Newton step with the CDF above. Its relative error
against mpmath is at most 3.8 * 2^-52 for p in [1e-300, 0.02] (a
601-point log grid) and at most 4.6 * 2^-52 at p = 0.9, 0.95, 0.975,
0.995 and their complements.
"""

from __future__ import annotations

import math

from .errors import check_finite, check_level

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_SQRT_2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_SATURATION_Z = 38.0

# Acklam's inverse normal CDF coefficients (central and tail branches).
_ACKLAM_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_ACKLAM_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_ACKLAM_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_ACKLAM_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
_ACKLAM_P_LOW = 0.02425


def _density(z: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def _upper_tail(t: float) -> float:
    """P(Z > t) for t >= 0, as erfc(x) / 2 with x = t / sqrt(2) (Cody 1969)."""
    if t >= _SATURATION_Z:
        return 0.0
    x = t * _INV_SQRT_2
    if x <= 0.46875:
        # erf(x) = x * P(x^2) / Q(x^2); Phi near 1/2 keeps its absolute accuracy.
        y = x * x
        return 0.5 - 0.5 * x * (
            ((((1.85777706184603153e-1 * y + 3.16112374387056560e00) * y
               + 1.13864154151050156e02) * y + 3.77485237685302021e02) * y
             + 3.20937758913846947e03)
            / ((((y + 2.36012909523441209e01) * y + 2.44024637934444173e02) * y
                + 1.28261652607737228e03) * y + 2.84423683343917062e03)
        )
    if x <= 4.0:
        # erfc(x) * exp(x^2) as a rational in x.
        r = (
            ((((((((2.15311535474403846e-8 * x + 5.64188496988670089e-1) * x
                   + 8.88314979438837594e00) * x + 6.61191906371416295e01) * x
                 + 2.98635138197400131e02) * x + 8.81952221241769090e02) * x
               + 1.71204761263407058e03) * x + 2.05107837782607147e03) * x
             + 1.23033935479799725e03)
            / ((((((((x + 1.57449261107098347e01) * x + 1.17693950891312499e02) * x
                    + 5.37181101862009858e02) * x + 1.62138957456669019e03) * x
                  + 3.29079923573345963e03) * x + 4.36261909014324716e03) * x
                + 3.43936767414372164e03) * x + 1.23033935480374942e03)
        )
    else:
        # erfc(x) * exp(x^2) = (1/sqrt(pi) - y * P(y) / Q(y)) / x with y = 1/x^2.
        y = 1.0 / (x * x)
        r = (_INV_SQRT_PI - y * (
            (((((1.63153871373020978e-2 * y + 3.05326634961232344e-1) * y
                + 3.60344899949804439e-1) * y + 1.25781726111229246e-1) * y
              + 1.60837851487422766e-2) * y + 6.58749161529837803e-4)
            / (((((y + 2.56852019228982242e00) * y + 1.87295284992346725e00) * y
                 + 5.27905102951428412e-1) * y + 6.05183413124413191e-2) * y
               + 2.33520497626869185e-3)
        )) / x
    # exp(-t^2/2) split at ts = trunc(16 t) / 16: ts^2 / 2 is exact and
    # (t - ts)(t + ts) is small, so the rounding of t^2 does not grow with t.
    ts = math.trunc(16.0 * t) * 0.0625
    return 0.5 * r * math.exp(-0.5 * ts * ts) * math.exp(-0.5 * (t - ts) * (t + ts))


def std_normal_cdf(z: float) -> float:
    """Cumulative distribution function of the standard normal.

    Args:
        z: any finite real.

    Returns:
        Phi(z) in [0, 1]; exactly 0.5 at z = 0 and exactly 0.0 / 1.0 once
        |z| >= 38 where the tail underflows.

    Raises:
        DomainError: if z is not a finite number.
    """
    z = check_finite("z", z)
    if z == 0.0:
        return 0.5
    if z < 0.0:
        return _upper_tail(-z)
    return 1.0 - _upper_tail(z)


def two_sided_p(z: float) -> float:
    """Two-sided p-value of a standard normal z-score, 2 * (1 - Phi(|z|)).

    Computed as 2 * Phi(-|z|), which is the same quantity evaluated without
    the intermediate 1 - x cancellation. Returns exactly 1.0 at z = 0 and
    exactly 0.0 once |z| reaches the CDF saturation point, infinite z
    included, which an overflowing z = estimate / se can give. Any other z
    that is not a finite number raises DomainError.
    """
    if not isinstance(z, float):
        z = check_finite("z", z)
    elif math.isinf(z):
        return 0.0
    return min(1.0, 2.0 * std_normal_cdf(-abs(z)))


def std_normal_quantile(p: float) -> float:
    """Inverse of std_normal_cdf on the open interval (0, 1).

    Args:
        p: probability with 0 < p < 1.

    Returns:
        z such that Phi(z) = p, within a few units of 2^-52 relative error
        after one Newton step (see the module docstring).

    Raises:
        DomainError: if p is not a float strictly inside (0, 1).
    """
    p = check_level("p", p)
    if p == 0.5:
        return 0.0

    if p < _ACKLAM_P_LOW or p > 1.0 - _ACKLAM_P_LOW:
        # The upper tail by symmetry; (-a) / b == -(a / b) exactly in IEEE arithmetic.
        q = math.sqrt(-2.0 * math.log(p if p < 0.5 else 1.0 - p))
        a, b, c, d, e, f = _ACKLAM_C
        x = (((((a * q + b) * q + c) * q + d) * q + e) * q + f) / (
            (((_ACKLAM_D[0] * q + _ACKLAM_D[1]) * q + _ACKLAM_D[2]) * q + _ACKLAM_D[3]) * q + 1.0
        )
        if p > 0.5:
            x = -x
    else:
        q = p - 0.5
        r = q * q
        a, b, c, d, e, f = _ACKLAM_A
        x = (((((a * r + b) * r + c) * r + d) * r + e) * r + f) * q / (
            ((((_ACKLAM_B[0] * r + _ACKLAM_B[1]) * r + _ACKLAM_B[2]) * r + _ACKLAM_B[3]) * r + _ACKLAM_B[4]) * r + 1.0
        )

    # One Newton polish; skipped where the density underflows and the
    # rational approximation is already the best available answer.
    pdf = _density(x)
    if pdf > 0.0:
        x -= (std_normal_cdf(x) - p) / pdf
    return x
