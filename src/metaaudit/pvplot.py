"""P-value plots: shape classification, building and rendering.

A p-value plot ranks a study set's two-sided p-values in ascending order
and plots them against rank. Under a shared null with independent tests the
points hug the 45-degree line through the origin; a real common effect
drags the bulk of the points under the significance threshold; a mixture
shows up as two slopes.

The classifier operationalizes those visual readings with explicit
thresholds (see PlotConfig) and checks them in a fixed order:

1. EFFECT_LINE if more than effect_majority_fraction of the p-values fall
   below the plot's alpha.
2. UNIFORM45 if a one-sample Kolmogorov-Smirnov test against Uniform(0, 1)
   does not reject (p >= uniform_ks_threshold) and the count below alpha is
   consistent with uniformity (exact binomial upper-tail test at
   uniform_count_level).
3. BILINEAR if a two-segment least-squares fit of sorted p against rank
   (each segment at least bilinear_min_segment points, breakpoint chosen to
   minimize total squared error) removes at least bilinear_rss_reduction of
   the single-line residual sum of squares and the first segment's mean p
   is below alpha.
4. AMBIGUOUS otherwise, and always when fewer than min_points p-values are
   available.

The two-segment rule is this toolkit's own operationalization of the
"bilinear" reading; its thresholds are configuration, not statistical
doctrine.

The labelled plot (PValuePlot) and its drawing are in figure, which
build_plot and render_plot import on their first call.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from enum import Enum
from functools import lru_cache
from itertools import accumulate, repeat
from operator import add, mul, sub
from typing import NamedTuple, Sequence

from .errors import CheckedRecord, ConfigError, DomainError, EmptyInputError
from .errors import _shown, check_finite, check_integer, check_level

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# ks_pvalue switches from the alternating series to the theta-function form
# below this x, as scipy.special.kolmogorov does.
_KS_THETA_BELOW = 0.82
# The most points for which _two_segment_fit's screening tolerance is proved.
MAX_FIT_POINTS = 56_000


class PlotVerdict(Enum):
    UNIFORM45 = "uniform45"
    EFFECT_LINE = "effect_line"
    BILINEAR = "bilinear"
    AMBIGUOUS = "ambiguous"


class _PlotConfig(NamedTuple):
    uniform_ks_threshold: float = 0.05
    uniform_count_level: float = 0.05
    effect_majority_fraction: float = 0.5
    bilinear_min_segment: int = 3
    bilinear_rss_reduction: float = 0.5
    min_points: int = 5


class PlotConfig(CheckedRecord, _PlotConfig):
    """Classifier thresholds for p-value plots.

    The significance level is not here: it belongs to the plot itself
    (RankedPValues.alpha), which the classifier reads.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> PlotConfig:
        self = super().__new__(cls, *args, **kwargs)
        for name in ("uniform_ks_threshold", "uniform_count_level",
                     "effect_majority_fraction", "bilinear_rss_reduction"):
            check_level(name, getattr(self, name), ConfigError)
        check_integer("bilinear_min_segment", self.bilinear_min_segment, 2, ConfigError)
        check_integer("min_points", self.min_points, 1, ConfigError)
        return self


class _RankedPValues(NamedTuple):
    p_values: tuple[float, ...]
    alpha: float
    n: int
    n_below_alpha: int


class RankedPValues(CheckedRecord, _RankedPValues):
    """A plot's p-values alone, ascending, with no labels or points.

    It is what classify_plot and ks_statistic take: a simulation trial
    builds one from its draws, and an audit takes PValuePlot.ranked. It
    is the one check of a plot's p-values, PValuePlot's too: at least
    one, each a float in [0, 1], at an alpha inside (0, 1). n and
    n_below_alpha are computed, the second by bisection at alpha.
    """

    __slots__ = ()
    _computed = 2

    def __new__(cls, p_values: Sequence[float], alpha: float) -> RankedPValues:
        if not p_values:
            raise EmptyInputError("a p-value plot needs at least one p-value")
        check_level("alpha", alpha)
        for p in p_values:
            if not (isinstance(p, float) and 0.0 <= p <= 1.0):
                raise DomainError(f"p_values must be floats in [0, 1], got {_shown(p)}",
                                  field="p_values")
        ordered = tuple(sorted(map(float, p_values)))
        return super().__new__(cls, ordered, alpha, len(ordered), bisect_left(ordered, alpha))


class RuleCheck(NamedTuple):
    """One condition of a classifier rule: its statistic against its threshold.

    margin is positive when the condition holds with room to spare and
    negative when it fails. At a tie it is 0, which holds for the >= and
    <= conditions and fails for the strict ones (effect_majority,
    bilinear_first_mean). holds comes from the comparison the rule makes,
    never from the margin.
    """

    condition: str
    statistic: float
    threshold: float
    margin: float
    holds: bool


class PlotTrace(NamedTuple):
    """The conditions classify_plot evaluated, in rule order.

    checks are min_points (n, at least min_points), effect_majority (the
    fraction below alpha, above effect_majority_fraction), uniform_ks (the
    KS p-value, at least uniform_ks_threshold), uniform_count (the count
    below alpha, at most the largest count consistent with uniformity) and,
    when the two-segment fit ran, bilinear_rss (its RSS over the single
    line's, at most 1 - bilinear_rss_reduction; 1.0 for a straight line)
    and bilinear_first_mean (the first segment's mean p, below alpha).
    ks_statistic is the KS distance D from Uniform(0, 1). changepoint_index
    is the rank of the last point of the fit's first segment and
    segment_slopes its two slopes; both are None when the fit did not run.
    """

    ks_statistic: float
    changepoint_index: int | None
    segment_slopes: tuple[float, float] | None
    checks: tuple[RuleCheck, ...]


class PlotClassification(NamedTuple):
    """A plot's verdict, from the first rule that fired, with its trace."""

    verdict: PlotVerdict
    trace: PlotTrace


def build_plot(
    pvalues: Sequence[tuple[str, float]],
    alpha: float = 0.05,
    negative: Sequence[bool] | None = None,
) -> figure.PValuePlot:
    """Pair labeled p-values with their flags; PValuePlot sorts and ranks them.

    Args:
        pvalues: (label, p) pairs; every p must be a float in [0, 1].
        alpha: significance threshold used for the below-alpha count.
        negative: optional parallel flags marking negative-direction
            sources (odds ratio < 1); defaults to all False.

    Raises:
        EmptyInputError, DomainError: as PValuePlot; DomainError also on
            a mismatched flag length.
    """
    if negative is None:
        negative = [False] * len(pvalues)
    if len(negative) != len(pvalues):
        raise DomainError(
            f"negative flags ({len(negative)}) do not match p-values ({len(pvalues)})"
        )
    from . import figure

    points = [figure.PlotPoint(0, label, p, flag) for (label, p), flag in zip(pvalues, negative)]
    return figure.PValuePlot(points, alpha)


@lru_cache(maxsize=64)
def _ks_steps(n: int) -> tuple[float, ...]:
    """The empirical CDF's steps i/n for i = 0..n."""
    return tuple(i / n for i in range(n + 1))


def ks_statistic(ranked: RankedPValues) -> float:
    """One-sample KS distance of a RankedPValues' p-values from Uniform(0, 1).

    D = max over i of max(i/n - p_(i), p_(i) - (i-1)/n) on the record's
    sorted p-values, the exact supremum of |empirical CDF - uniform CDF|.
    Anything but a RankedPValues raises TypeError.
    """
    if not isinstance(ranked, RankedPValues):
        raise TypeError(f"ks_statistic takes a RankedPValues, got {type(ranked).__name__}")
    ps, steps = ranked.p_values, _ks_steps(ranked.n)
    return max(max(map(sub, steps[1:], ps)), max(map(sub, ps, steps)))


def ks_pvalue(statistic: float, n: int) -> float:
    """Asymptotic Kolmogorov p-value P(D > statistic) for sample size n.

    Evaluates Q(x) = P(K > x) at x = sqrt(n) * statistic in the two forms
    scipy.special.kolmogorov uses, split where both converge fast:

    * x >= 0.82: the series Q(x) = 2 * sum_j (-1)^(j-1) e^(-2 j^2 x^2).
      Alternating terms bound the truncation error by the first omitted
      term, and it stops after at most 7 terms;
    * x < 0.82, where that series needs ever more terms: the theta-function
      form Q(x) = 1 - sqrt(2 pi) / x * sum_j w^((2j-1)^2), w = e^(-pi^2 /
      (8 x^2)) <= 0.16. The terms after w^25 are below 1e-38, and Q
      rounds to 1.0 once w underflows.
    """
    check_finite("n", check_integer("n", n, 1))
    if not 0.0 <= check_finite("statistic", statistic) <= 1.0:
        raise DomainError(f"KS statistic must be in [0, 1], got {statistic!r}", field="statistic")
    x = math.sqrt(n) * statistic
    if x < _KS_THETA_BELOW:
        if x == 0.0:
            return 1.0
        w = math.exp(-math.pi * math.pi / (8.0 * x * x))
        return 1.0 - _SQRT_2PI / x * (w + w**9 + w**25)
    total = 0.0
    sign = 1.0
    for j in range(1, 8):
        term = sign * math.exp(-2.0 * (j * x) * (j * x))
        total += term
        if abs(term) < 1e-16:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


@lru_cache(maxsize=256)
def _admissible_below_alpha(n: int, alpha: float, level: float) -> int:
    """Smallest count c with P(Binomial(n, alpha) > c) < level.

    A below-alpha count up to c is consistent with uniformity at the given
    test level; larger counts reject it. At n = 27 and alpha = level =
    0.05 that is c = 3, with P(X > 3) = 0.0437.

    The probabilities are taken relative to the mode's, r_j = P(X = j) /
    P(X = mode), by the ratio recursion outward from the mode; each side
    stops once its terms fall below level * 2^-80, too small to move a
    comparison with level. Every r_j lies in (0, 1] up to rounding, so
    nothing underflows before it is negligible, whatever n: a start from
    P(X = 0) = (1 - alpha)^n would underflow beyond n = 14,500 at
    alpha = 0.05. The upper tails are summed from the smallest term up and
    compared with level times the total.
    """
    ratio = alpha / (1.0 - alpha)
    mode = min(n, math.floor((n + 1) * alpha))
    cutoff = level * 2.0**-80
    below = []
    r, j = 1.0, mode
    while j > 0 and r >= cutoff:
        r *= j / ((n - j + 1) * ratio)
        below.append(r)
        j -= 1
    above = []
    r, j = 1.0, mode
    while j < n and r >= cutoff:
        r *= ratio * (n - j) / (j + 1)
        above.append(r)
        j += 1
    # r_j from the highest j kept down to the lowest.
    weights = above[::-1] + [1.0] + below
    bound = level * math.fsum(weights)
    c = mode + len(above)
    tail = 0.0  # P(X > c) times the total
    for weight in weights:
        if tail >= bound:
            return c + 1
        tail += weight
        c -= 1
    return c + 1


def _rss(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """(RSS, slope) of the least-squares line of ys against consecutive ranks xs.

    The ranks' mean and centred sum of squares are exact in closed form,
    (x_1 + x_m) / 2 and m(m^2 - 1)/12, and equal to their fsum values bit
    for bit: while m(m^2 - 1) < 2^53 (m up to 208,063), both are the one
    rounding of the same exact number. Each residual is squared with **.
    """
    n = len(xs)
    xbar = (xs[0] + xs[-1]) / 2
    ybar = math.fsum(ys) / n
    sxx = n * (n * n - 1) / 12.0
    sxy = math.fsum(map(mul, map(sub, xs, repeat(xbar)), map(sub, ys, repeat(ybar))))
    slope = sxy / sxx if sxx > 0.0 else 0.0
    fitted = map(add, map(mul, repeat(slope), xs), repeat(ybar - slope * xbar))
    return math.fsum(map(pow, map(sub, ys, fitted), repeat(2))), slope


@lru_cache(maxsize=64)
def _split_grid(n: int, min_segment: int) -> tuple[tuple[float, ...], tuple[tuple, ...]]:
    """Ranks 1..n as floats, and for each split the two segments' sizes,
    mean ranks and centred sums of squared ranks k(k^2 - 1)/12, all exact."""
    rows = []
    for m in range(min_segment, n - min_segment + 1):
        r = n - m
        rows.append((m, r, (m + 1) / 2, (m + 1 + n) / 2, (m**3 - m) / 12, (r**3 - r) / 12))
    return tuple(map(float, range(1, n + 1))), tuple(rows)


def _two_segment_fit(
    sorted_ps: Sequence[float], min_segment: int
) -> tuple[int, float, float, float] | None:
    """Best split of sorted p against rank into two independent least-squares lines.

    Returns (changepoint, total_rss, slope1, slope2) where changepoint is
    the rank of the last point in the first segment, or None when no split
    leaves both segments at min_segment points. The split minimizes the
    total RSS as _rss computes it, the first one on ties. sorted_ps are
    p-values in [0, 1], so no square overflows. The single-line RSS that
    the BILINEAR rule compares against is not computed here: classify_plot
    fits it for its bilinear_rss check.

    The fit runs in two passes, O(n) plus the cost of the confirmations:

    1. Screen. One pass of prefix sums S0 = sum y and S1 = sum rank * y
       gives every leading segment's sums, and the totals minus them the
       trailing one's. A segment of m points has RSS = Syy - Q, where Q =
       S0^2 / m + Sxy^2 / Sxx, Sxy = S1 - S0 * (mean rank) and Sxx =
       m(m^2 - 1)/12. Syy over both segments is the same at every split,
       so the largest Q over both segments means the least total.
    2. Confirm. Only splits whose screened Q lies within tol of the
       largest are refitted with _rss, in ascending order and with the
       same strict < as a full scan, so the result is bit-identical to
       refitting every split.

    Why tol always holds the exact winner: let Y = max |y| and u = 2^-53.
    Recursive summation misses a prefix sum over j points by at most j u
    times its terms' sizes, so S0 by j^2 u Y and S1 by j^3 u Y. A trailing
    segment's sums also carry the totals' errors, and its mean rank is at
    most n, so its Sxy is off by at most 5 n^3 u Y. As |Sxy| <=
    Y sqrt(m Sxx) and sqrt(12 / (m^2 - 1)) <= 2 for m >= 2, its
    Sxy^2 / Sxx is off by at most 20 n^3 u Y^2. The other three terms and
    the additions add at most 33 n^2 u Y^2 + 5 n u Y^2, and second-order
    terms at most n^3 u Y^2 while n <= MAX_FIT_POINTS (56,000). So for
    4 <= n <= MAX_FIT_POINTS a screened Q is within 30 n^3 u Y^2 of the
    exact one. _rss's own
    rounding adds at most about 60 n u Y^2 < 15 n^3 u Y^2, so Syy minus
    each screened Q is within E = 45 n^3 u Y^2 of the total _rss returns,
    and the winner's Q screens at most 2E below the largest. tol =
    128 n^3 u Y^2 covers 2E with room for the rounding of the comparison.
    Results that underflow carry an absolute error of up to 2^-1075 each
    instead, from O(n) operations amplified by at most O(n^2); the term
    n^3 2^-1022 = n^3 2^53 2^-1075 covers them. Measured screen errors on
    simulated and edge-case plots stay below 0.04 n^3 u Y^2
    (0.3 n^2 u Y^2). Ties and constant runs confirm many splits; a
    typical p-value plot confirms one.
    """
    n = len(sorted_ps)
    if n < 2 * min_segment:
        return None
    xs, splits = _split_grid(n, min_segment)
    ys = list(map(float, sorted_ps))
    s0 = list(accumulate(ys))
    s1 = list(accumulate(map(mul, xs, ys)))
    total0, total1 = s0[-1], s1[-1]
    screened = []
    for (m, r, head_mean, tail_mean, head_sxx, tail_sxx), head0, head1 in zip(
        splits, s0[min_segment - 1:], s1[min_segment - 1:]
    ):
        tail0 = total0 - head0
        head_xy = head1 - head_mean * head0
        tail_xy = total1 - head1 - tail_mean * tail0
        screened.append(
            head0 * head0 / m + tail0 * tail0 / r
            + head_xy * head_xy / head_sxx + tail_xy * tail_xy / tail_sxx
        )
    scale = max(map(abs, ys))
    cutoff = max(screened) - n * n * n * (scale * scale * 2.0**-46 + 2.0**-1022)
    best: tuple[int, float, float, float] | None = None
    for split, value in enumerate(screened, min_segment):
        if value < cutoff:
            continue
        rss1, slope1 = _rss(xs[:split], ys[:split])
        rss2, slope2 = _rss(xs[split:], ys[split:])
        total = rss1 + rss2
        if best is None or total < best[1]:
            best = (split, total, slope1, slope2)
    return best


def classify_plot(
    ranked: RankedPValues, config: PlotConfig = PlotConfig(), *, every_rule: bool = True
) -> PlotClassification:
    """Classify a plot's shape; see the module docstring for the rules.

    The first four checks are cheap and always traced. The two-segment fit
    and the BILINEAR checks run when the plot reaches that rule, and for
    every plot of at least 2 * bilinear_min_segment points when every_rule
    is set. Without every_rule the verdict is the same and the trace a
    prefix of the full one.
    """
    if not isinstance(ranked, RankedPValues):
        raise TypeError(f"classify_plot takes a RankedPValues, got {type(ranked).__name__}")
    ps, alpha, n, below = ranked
    fraction = below / n
    stat = ks_statistic(ranked)
    ks_p = ks_pvalue(stat, n)
    admissible = _admissible_below_alpha(n, alpha, config.uniform_count_level)
    least = config.min_points
    majority = config.effect_majority_fraction
    ks_level = config.uniform_ks_threshold
    checks = [
        RuleCheck("min_points", n, least, n - least, n >= least),
        RuleCheck("effect_majority", fraction, majority, fraction - majority, fraction > majority),
        RuleCheck("uniform_ks", ks_p, ks_level, ks_p - ks_level, ks_p >= ks_level),
        RuleCheck("uniform_count", below, admissible, admissible - below, below <= admissible),
    ]
    if not checks[0].holds:
        verdict = PlotVerdict.AMBIGUOUS
    elif checks[1].holds:
        verdict = PlotVerdict.EFFECT_LINE
    elif checks[2].holds and checks[3].holds:
        verdict = PlotVerdict.UNIFORM45
    else:
        verdict = None  # the plot reaches the BILINEAR rule
    changepoint = slopes = fit = None
    if every_rule or verdict is None:
        fit = _two_segment_fit(ps, config.bilinear_min_segment)
    if fit is not None:
        changepoint, total, slopes = fit[0], fit[1], fit[2:]
        single_rss, _ = _rss(_split_grid(n, config.bilinear_min_segment)[0], ps)
        first_mean = math.fsum(ps[:changepoint]) / changepoint
        ceiling = 1.0 - config.bilinear_rss_reduction
        allowed = ceiling * single_rss
        if single_rss > 0.0:
            ratio, room = total / single_rss, (allowed - total) / single_rss
        else:  # points on one line: a second segment has nothing to remove
            ratio, room = 1.0, ceiling - 1.0
        checks += [
            RuleCheck("bilinear_rss", ratio, ceiling, room, single_rss > 0.0 and total <= allowed),
            RuleCheck("bilinear_first_mean", first_mean, alpha, alpha - first_mean,
                      first_mean < alpha),
        ]
        if verdict is None and checks[4].holds and checks[5].holds:
            verdict = PlotVerdict.BILINEAR
    trace = PlotTrace(stat, changepoint, slopes, tuple(checks))
    return PlotClassification(verdict or PlotVerdict.AMBIGUOUS, trace)


def render_plot(
    plot: figure.PValuePlot,
    classification: PlotClassification | None = None,
    title: str = "",
    format: str = "svg",
) -> str:
    """Render a plot as an SVG document or a CSV table.

    Output depends only on the inputs, so repeated calls are byte
    identical. The SVG marks negative-direction sources with diamonds,
    draws the 45-degree uniform reference plus a dashed rule at alpha, and
    heads the figure with title when it is not empty. The CSV ignores
    classification and title. The drawing code is in figure.
    """
    if format not in ("svg", "csv"):
        raise DomainError(f"unknown render format: {format!r}")
    from . import figure

    if format == "svg":
        return figure.render_svg(plot, classification, title)
    return figure.render_csv(plot)
