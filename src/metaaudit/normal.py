"""Standard normal CDF and quantile.

Both directions are implemented locally rather than delegated to scipy so
that results are bit-stable across platforms and library versions, which the
reproduction and golden-file tests rely on.

The CDF uses two classical complementary pieces:

* for |z| <= 5.5, the positive-term Maclaurin expansion
  Phi(z) = 1/2 + phi(z) * sum_{k>=0} z^(2k+1) / (1*3*...*(2k+1)),
  whose terms are all positive for z > 0 and therefore suffer no
  cancellation;
* for |z| > 5.5, the Laplace continued fraction for the Mills ratio,
  1 - Phi(z) = phi(z) / (z + 1/(z + 2/(z + 3/(...)))),
  evaluated bottom-up to convergence.

Measured against a 50-digit reference the absolute error stays below 1e-14
for |z| <= 8. Beyond |z| = 38 the tail underflows double precision and the
CDF saturates to exactly 0.0 or 1.0.

The quantile is Acklam's rational approximation (relative error ~1.15e-9)
polished by a single Newton step with the CDF above, which brings the
round-trip error |Phi(Phi^-1(p)) - p| to a few ulp.
"""

from __future__ import annotations

import math

from .errors import DomainError

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SERIES_CUTOFF = 5.5
_SATURATION_Z = 38.0
_CF_DEPTH = 80

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
    """P(Z > t) for t >= 0."""
    if t >= _SATURATION_Z:
        return 0.0
    if t <= _SERIES_CUTOFF:
        # Positive-term series for Phi(t) - 1/2; no cancellation.
        t2 = t * t
        term = t
        total = t
        k = 0
        while True:
            k += 1
            term *= t2 / (2.0 * k + 1.0)
            total += term
            if term <= total * 1e-17:
                break
        return 0.5 - _density(t) * total
    # Mills ratio continued fraction, evaluated bottom-up.
    f = t
    for j in range(_CF_DEPTH, 0, -1):
        f = t + j / f
    return _density(t) / f


def std_normal_cdf(z: float) -> float:
    """Cumulative distribution function of the standard normal.

    Args:
        z: any finite real.

    Returns:
        Phi(z) in [0, 1]; exactly 0.5 at z = 0 and exactly 0.0 / 1.0 once
        |z| >= 38 where the tail underflows.

    Raises:
        DomainError: if z is NaN or infinite.
    """
    z = float(z)
    if not math.isfinite(z):
        raise DomainError(f"std_normal_cdf requires a finite input, got {z!r}")
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
    included, which an overflowing z = estimate / se can give. A NaN z
    raises DomainError.
    """
    if math.isinf(z):
        return 0.0
    return min(1.0, 2.0 * std_normal_cdf(-abs(z)))


def std_normal_quantile(p: float) -> float:
    """Inverse of std_normal_cdf on the open interval (0, 1).

    Args:
        p: probability with 0 < p < 1.

    Returns:
        z such that Phi(z) = p, exact to a few ulp after one Newton step.

    Raises:
        DomainError: if p is not a finite number strictly inside (0, 1).
    """
    p = float(p)
    if not math.isfinite(p) or not 0.0 < p < 1.0:
        raise DomainError(
            f"std_normal_quantile requires 0 < p < 1, got {p!r}"
        )
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
