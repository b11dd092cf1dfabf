"""P-value plot construction, classification and rendering.

KS internals are cross-checked against scipy; classification thresholds
are exercised at their decision boundaries; rendering is held to golden
files so any byte-level drift is caught.
"""

import copy
import hashlib
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
import scipy.special
import scipy.stats

from metaaudit import (
    ConfigError,
    ConversionMethod,
    DomainError,
    EmptyInputError,
    PlotConfig,
    PlotPoint,
    PlotVerdict,
    PValuePlot,
    RankedPValues,
    audit_report,
    build_plot,
    classify_plot,
    ingest_effects,
    ks_pvalue,
    ks_statistic,
    render_plot,
)
from metaaudit import pvplot
from metaaudit.pvplot import _rss, _two_segment_fit
from metaaudit.reproduce import fixture_path, run_reproduction
from metaaudit.simulate import Scenario, SimulationConfig, run_simulation, simulate_trial

GOLDEN_DIR = Path(__file__).parent / "golden"


def _labeled(ps):
    return [(f"p{i:03d}", p) for i, p in enumerate(ps)]


def _classify(plot, *args, **kwargs):
    """classify_plot of a labelled plot's p-values, as audit_report calls it."""
    return classify_plot(plot.ranked, *args, **kwargs)


def _checks(classification):
    return {check.condition: check for check in classification.trace.checks}


def test_build_plot_sorts_and_counts():
    pairs = [("c", 0.40), ("a", 0.01), ("b", 0.90), ("d", 0.049)]
    plot = build_plot(pairs, alpha=0.05)
    assert [point.rank for point in plot.points] == [1, 2, 3, 4]
    assert [point.p_value for point in plot.points] == [0.01, 0.049, 0.40, 0.90]
    assert [point.label for point in plot.points] == ["a", "d", "c", "b"]
    assert plot.n == 4
    assert plot.n_below_alpha == 2


def test_build_plot_breaks_ties_by_label():
    plot = build_plot([("late", 0.2), ("early", 0.2)])
    assert [point.label for point in plot.points] == ["early", "late"]


def test_points_tied_on_p_and_label_order_by_flag_whatever_the_input_order():
    # The same two points in either order make one plot: the circle, not
    # negative, ranks before the diamond.
    expected = (PlotPoint(1, "x", 0.3, False), PlotPoint(2, "x", 0.3, True))
    plot = build_plot([("x", 0.3), ("x", 0.3)], 0.05, [True, False])
    assert plot.points == expected
    assert build_plot([("x", 0.3), ("x", 0.3)], 0.05, [False, True]) == plot
    assert plot._replace(points=reversed(plot.points)) == plot


def test_build_plot_carries_negative_flags():
    plot = build_plot(
        [("a", 0.3), ("b", 0.1)], negative=[True, False]
    )
    # b sorts first; its flag must travel with it.
    assert plot.points == (
        PlotPoint(rank=1, label="b", p_value=0.1, negative_effect=False),
        PlotPoint(rank=2, label="a", p_value=0.3, negative_effect=True),
    )


def test_build_plot_validation():
    with pytest.raises(EmptyInputError):
        build_plot([])
    with pytest.raises(DomainError):
        build_plot([("a", 1.2)])
    with pytest.raises(DomainError):
        build_plot([("a", -0.1)])
    with pytest.raises(DomainError):
        build_plot([("a", 0.5)], alpha=0.0)
    with pytest.raises(DomainError):
        build_plot([("a", 0.5)], negative=[True, False])


def test_ranked_p_values_sorts_and_counts_below_alpha():
    ranked = RankedPValues((0.5, 0.05, 1.0, 0.0, 0.01, 0.05), 0.05)
    assert ranked.p_values == (0.0, 0.01, 0.05, 0.05, 0.5, 1.0)
    assert (ranked.n, ranked.n_below_alpha, ranked.alpha) == (6, 2, 0.05)
    assert RankedPValues._make(ranked) == ranked
    assert ranked._replace(alpha=0.5).n_below_alpha == 4
    with pytest.raises(TypeError):
        ranked._replace(n_below_alpha=0)


_REJECTED_BY_BOTH = [
    ((), 0.05, EmptyInputError),
    ((0.5, math.nan), 0.05, DomainError),
    ((math.inf,), 0.05, DomainError),
    ((-math.inf, 0.5), 0.05, DomainError),
    ((True,), 0.05, DomainError),
    (("0.5",), 0.05, DomainError),
    ((0.5, math.nextafter(0.0, -1.0)), 0.05, DomainError),
    ((math.nextafter(1.0, 2.0),), 0.05, DomainError),
    ((0.5,), 0.0, DomainError),
    ((0.5,), 1.0, DomainError),
    ((0.5,), -0.05, DomainError),
    ((0.5,), math.nan, DomainError),
    ((0.5,), True, DomainError),
    # A p-value must be a float: an int is refused, one too long to print too.
    ((1,), 0.05, DomainError),
    ((0.5, 0), 0.05, DomainError),
    ((10**5000,), 0.05, DomainError),
]


@pytest.mark.parametrize("ps, alpha, error", _REJECTED_BY_BOTH)
def test_ranked_p_values_rejections_hold_however_the_record_is_built(ps, alpha, error):
    unchecked = tuple.__new__(RankedPValues, (ps, alpha, len(ps), 0))
    builders = {
        "constructor": lambda: RankedPValues(ps, alpha),
        "_make": lambda: RankedPValues._make((ps, alpha)),
        "_replace": lambda: RankedPValues((0.5,), 0.05)._replace(p_values=ps, alpha=alpha),
        "copy": lambda: copy.copy(unchecked),
        "pickle": lambda: pickle.loads(pickle.dumps(unchecked)),
    }
    for name, build in builders.items():
        try:
            build()
        except error:
            continue
        pytest.fail(f"{name} accepted p-values {ps!r} at alpha {alpha!r}")


@pytest.mark.parametrize("ps, alpha, error", _REJECTED_BY_BOTH)
def test_build_plot_rejects_what_ranked_p_values_rejects(ps, alpha, error):
    with pytest.raises(error) as plotted:
        build_plot(_labeled(ps), alpha)
    with pytest.raises(error) as ranked:
        RankedPValues(ps, alpha)
    assert (str(plotted.value), plotted.value.field) == (str(ranked.value), ranked.value.field)


def test_a_plot_ranks_its_p_values_through_the_checks():
    plot = build_plot(_labeled([0.3, 0.01, 0.7]), alpha=0.05)
    assert plot.ranked == RankedPValues((0.01, 0.3, 0.7), 0.05)
    assert not hasattr(plot, "p_values")
    with pytest.raises(DomainError, match="p_values must be floats in"):
        plot._replace(points=(plot.points[0]._replace(p_value=1.5),))


def test_a_plot_counts_its_points_however_it_is_built():
    plot = build_plot(_labeled([0.3, 0.01, 0.7]), alpha=0.05)
    assert plot._fields == ("points", "alpha", "n", "n_below_alpha")
    assert (plot.n, plot.n_below_alpha) == (3, 1)
    # The first point alone, p = 0.01, and a record that still counts three.
    first = plot.points[:1]
    stale = tuple.__new__(PValuePlot, (first, 0.05, 3, 1))
    builders = {
        "constructor": lambda: PValuePlot(first, 0.05),
        "_replace": lambda: plot._replace(points=first),
        "_make": lambda: PValuePlot._make((first, 0.05, 3, 1)),
        "copy": lambda: copy.copy(stale),
        "pickle": lambda: pickle.loads(pickle.dumps(stale)),
    }
    for name, build in builders.items():
        assert tuple(build()) == (first, 0.05, 1, 1), name
    assert plot._replace(alpha=0.5)[2:] == (3, 2)
    assert PValuePlot._make(plot) == plot
    assert pickle.loads(pickle.dumps(plot)) == plot
    with pytest.raises(TypeError):
        plot._replace(n=1)


def test_a_plot_sorts_and_ranks_its_points_however_it_is_built():
    # Out of order, ranked wrong, a p that is a float subclass and flags
    # that are not bools; b and c tie in p, so the label decides.
    given = (PlotPoint(7, "c", np.float64(0.2), 0), PlotPoint(1, "a", 0.9, "no"),
             PlotPoint(1, "b", 0.2, 1))
    expected = (PlotPoint(1, "b", 0.2, True), PlotPoint(2, "c", 0.2, False),
                PlotPoint(3, "a", 0.9, True))
    unsorted = tuple.__new__(PValuePlot, (given, 0.5, 3, 2))
    builders = {
        "constructor": lambda: PValuePlot(given, 0.5),
        "generator": lambda: PValuePlot(iter(given), 0.5),
        "_replace": lambda: build_plot([("z", 0.1)], 0.5)._replace(points=given),
        "_make": lambda: PValuePlot._make((given, 0.5, 3, 0)),
        "copy": lambda: copy.copy(unsorted),
        "pickle": lambda: pickle.loads(pickle.dumps(unsorted)),
    }
    for name, build in builders.items():
        plot = build()
        assert tuple(plot) == (expected, 0.5, 3, 2), name
        types = [(type(p), type(flag)) for _, _, p, flag in plot.points]
        assert types == [(float, bool)] * 3, name


def test_the_first_n_below_alpha_points_are_those_below_alpha_in_the_csv():
    plot = build_plot(_labeled([0.3, 0.05, 0.01, 0.049, 0.7]), alpha=0.05)
    rows = [line.split(",") for line in render_plot(plot, format="csv").splitlines()[1:]]
    assert plot.n_below_alpha == 2
    assert [row[3] for row in rows] == ["1", "1", "0", "0", "0"]
    assert [float(row[2]) < plot.alpha for row in rows] == [True, True, False, False, False]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.lists(
        st.one_of(
            st.floats(min_value=0.0, max_value=1.0),
            st.sampled_from([0.0, 0.01, 0.05, 0.5, 1.0]),
        ),
        min_size=1, max_size=40,
    ),
    st.one_of(
        st.sampled_from([0.05, 0.5]),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    ),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=12),
)
@example([0.5, 0.01], 0.05, 3, 5)
@example([0.05] * 5, 0.05, 3, 5)
@example([1.0, 0.0, 0.05, 0.0, 1.0, 0.5, 0.5], 0.05, 3, 5)
@example([0.0] * 6 + [1.0] * 6, 0.5, 3, 5)
@example([0.5] * 6, 0.05, 3, 5)
def test_ranked_p_values_classify_as_their_plot_bit_for_bit(ps, alpha, min_segment, min_points):
    # Ties, the ends 0.0 and 1.0, n below min_points and n below
    # 2 * bilinear_min_segment all occur; labels run against the p order.
    config = PlotConfig(bilinear_min_segment=min_segment, min_points=min_points)
    plot = build_plot([(f"s{len(ps) - i:03d}", p) for i, p in enumerate(ps)], alpha)
    ranked = RankedPValues(ps, alpha)
    assert plot.ranked == ranked
    assert ranked[1:] == (plot.alpha, plot.n, plot.n_below_alpha)
    full = classify_plot(ranked, config)
    early = classify_plot(ranked, config, every_rule=False)
    assert full.verdict is early.verdict is _reference_verdict(ranked, config)
    # Stopping at the deciding rule keeps a prefix of the every-rule trace.
    checks = full.trace.checks
    assert repr(early.trace.checks) == repr(checks[:len(early.trace.checks)])
    assert early.trace.ks_statistic == full.trace.ks_statistic
    assert early.trace[1:3] in ((None, None), full.trace[1:3])
    fitted = len(ps) >= 2 * min_segment
    assert [check.condition for check in checks] == _CONDITIONS[:6 if fitted else 4]
    assert (full.trace.changepoint_index is not None) == fitted
    for check in checks:
        # A tie holds only for the >= and <= conditions.
        strict = check.condition in ("effect_majority", "bilinear_first_mean")
        assert check.holds == (check.margin > 0 or (check.margin == 0 and not strict)), check


_CONDITIONS = [
    "min_points", "effect_majority", "uniform_ks", "uniform_count",
    "bilinear_rss", "bilinear_first_mean",
]


def _reference_verdict(ranked, config):
    """The rules in order, each decided by its own comparison, as in the module docstring."""
    ps, alpha, n, below = ranked
    if n < config.min_points:
        return PlotVerdict.AMBIGUOUS
    if below / n > config.effect_majority_fraction:
        return PlotVerdict.EFFECT_LINE
    admissible = pvplot._admissible_below_alpha(n, alpha, config.uniform_count_level)
    if ks_pvalue(ks_statistic(ranked), n) >= config.uniform_ks_threshold and below <= admissible:
        return PlotVerdict.UNIFORM45
    fit = _two_segment_fit(ps, config.bilinear_min_segment)
    if fit is not None:
        split, total = fit[:2]
        single_rss, _ = _rss([float(i) for i in range(1, n + 1)], ps)
        if (
            single_rss > 0.0
            and total <= (1.0 - config.bilinear_rss_reduction) * single_rss
            and math.fsum(ps[:split]) / split < alpha
        ):
            return PlotVerdict.BILINEAR
    return PlotVerdict.AMBIGUOUS


def test_ks_statistic_matches_scipy():
    rng = np.random.default_rng(99)
    for n in (5, 13, 27, 100):
        ps = rng.uniform(size=n)
        expected = scipy.stats.kstest(ps, "uniform").statistic
        ranked = RankedPValues(ps.tolist(), 0.05)
        assert ks_statistic(ranked) == pytest.approx(expected, abs=1e-12)


def _former_ks_statistic(pvalues):
    """ks_statistic as a per-point loop over the sorted sample."""
    ordered = sorted(pvalues)
    n = len(ordered)
    d = 0.0
    for i, p in enumerate(ordered, 1):
        d = max(d, i / n - p, p - (i - 1) / n)
    return d


@given(st.lists(
    st.one_of(st.floats(min_value=0.0, max_value=1.0), st.sampled_from([0.0, 0.05, 0.5, 1.0])),
    min_size=1, max_size=60,
))
@example([0.0])
@example([1.0])
@example([0.5])
@example([1.0, 0.0, 0.5, 0.5, 0.05])
def test_ks_statistic_equals_the_former_loop_bit_for_bit(ps):
    # Unsorted input, ties, the ends 0.0 and 1.0 and n = 1 all occur.
    assert ks_statistic(RankedPValues(ps, 0.05)).hex() == _former_ks_statistic(ps).hex()


def _kolmogorov_mp(x):
    """Q(x) = P(K > x) at 40 digits: the theta form below 1, the
    alternating series above, each carried until its terms vanish."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        if x < 1:
            w = mpmath.exp(-mpmath.pi**2 / (8 * x * x))
            theta = mpmath.fsum(w ** ((2 * j - 1) ** 2) for j in range(1, 8))
            return float(1 - mpmath.sqrt(2 * mpmath.pi) / x * theta)
        return float(2 * mpmath.fsum(
            (-1) ** (j - 1) * mpmath.exp(-2 * j * j * x * x) for j in range(1, 30)
        ))


def test_ks_pvalue_matches_scipy_kolmogorov():
    for n in (10, 27, 80):
        for d in (0.05, 0.1, 0.2, 0.35, 0.6):
            expected = scipy.special.kolmogorov(np.sqrt(n) * d)
            assert ks_pvalue(d, n) == pytest.approx(expected, abs=1e-15)
    assert ks_pvalue(0.0, 12) == 1.0
    # The whole range the small-k plots reach, including the small x where
    # a truncated alternating series once returned 0.865 at x = 0.001.
    n = 27
    for x in np.concatenate([np.geomspace(1e-4, 3.0, 1200), np.linspace(0.7, 0.95, 251)]):
        d = float(x) / math.sqrt(n)
        got = ks_pvalue(d, n)
        x = math.sqrt(n) * d
        assert got == pytest.approx(_kolmogorov_mp(x), abs=1e-15), x
        # scipy sums four terms of the alternating series from x = 0.82 on,
        # which leaves up to 5.4e-15 out just above the switch (measured
        # against mpmath: over 1e-15 for 0.82 <= x < 0.8401).
        if not 0.82 <= x < 0.845:
            assert got == pytest.approx(scipy.special.kolmogorov(x), abs=1e-15), x
    assert ks_pvalue(0.001, 1) == 1.0
    assert ks_pvalue(0.0005, 1) == 1.0


def _reference_admissible_below_alpha(n, alpha, level):
    """The former recursion from P(X = 0) = (1 - alpha)^n, right while that
    start is a normal float."""
    pmf = (1.0 - alpha) ** n
    tail = 1.0
    ratio = alpha / (1.0 - alpha)
    for c in range(n + 1):
        tail -= pmf
        if tail < level:
            return c
        pmf *= ratio * (n - c) / (c + 1)
    return n


def _sample_ns(top):
    """Every n below 300, then 300 n spread evenly on a log scale up to top."""
    spread = np.unique(np.geomspace(300, top, 300).astype(int))
    return list(range(1, 300)) + [int(n) for n in spread]


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
def test_admissible_below_alpha_equals_the_former_recursion(alpha):
    for n in _sample_ns(10_000):
        if (1.0 - alpha) ** n < sys.float_info.min:
            break
        assert pvplot._admissible_below_alpha(n, alpha, 0.05) == \
            _reference_admissible_below_alpha(n, alpha, 0.05), n


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.5])
@pytest.mark.parametrize("level", [1e-6, 0.01, 0.05, 0.5])
def test_admissible_below_alpha_matches_scipy(alpha, level):
    # The smallest c with P(X > c) < level, up to n = 10^5, far past the
    # n = 14,500 where (1 - alpha)^n underflows at alpha = 0.05. P(X > c)
    # = 0.5 exactly at alpha = level = 0.5 and odd n, a tie no rounding
    # can settle, so those n are left out.
    ns = np.array([n for n in _sample_ns(100_000) if alpha != 0.5 or level != 0.5 or n % 2 == 0])
    cs = np.array([pvplot._admissible_below_alpha(int(n), alpha, level) for n in ns])
    assert np.all(scipy.stats.binom.sf(cs, ns, alpha) < level)
    assert np.all((cs == 0) | (scipy.stats.binom.sf(cs - 1, ns, alpha) >= level))


def test_admissible_below_alpha_at_large_n():
    # (1 - 0.05)^14600 underflows to 0; the count rule must not switch off.
    assert pvplot._admissible_below_alpha(27, 0.05, 0.05) == 3
    assert pvplot._admissible_below_alpha(14_600, 0.05, 0.05) == 774


def test_ks_statistic_takes_only_ranked_p_values():
    # A bare sample skips the checks: [2.0, 0.5] would give a distance of 1.5.
    for sample in ([], [2.0, 0.5], (0.1, 0.5, 0.9), build_plot(_labeled([0.1, 0.5]))):
        with pytest.raises(TypeError, match="ks_statistic takes a RankedPValues, got "):
            ks_statistic(sample)


def test_fixture_verdicts():
    asthma = audit_report(
        ingest_effects(fixture_path("asthma_effects.csv")),
        ConversionMethod.NATURAL,
    )["plot"]
    wheeze = audit_report(
        ingest_effects(fixture_path("wheeze_effects.csv")),
        ConversionMethod.NATURAL,
    )["plot"]
    assert (asthma.n, asthma.n_below_alpha) == (13, 1)
    assert (wheeze.n, wheeze.n_below_alpha) == (27, 6)
    assert _classify(asthma).verdict is PlotVerdict.UNIFORM45
    wheeze_class = _classify(wheeze)
    assert wheeze_class.verdict is PlotVerdict.AMBIGUOUS
    assert _checks(wheeze_class)["uniform_ks"].statistic < 0.05


def test_effect_line_on_staircase():
    plot = build_plot(_labeled([0.001 * i for i in range(1, 21)]))
    assert _classify(plot).verdict is PlotVerdict.EFFECT_LINE


def test_uniform_count_gate_boundary():
    # At n = 27, alpha = 0.05, up to 3 sub-alpha points are consistent with
    # uniformity at the 0.05 binomial level; a fourth rejects it even
    # though the KS test is happy either way.
    spread_24 = list(np.linspace(0.08, 0.98, 24))
    admissible = build_plot(_labeled([0.01, 0.02, 0.03] + spread_24))
    verdict = _classify(admissible)
    assert verdict.verdict is PlotVerdict.UNIFORM45
    assert _checks(verdict)["uniform_ks"].statistic > 0.05
    assert _checks(verdict)["uniform_count"] == ("uniform_count", 3, 3, 0, True)

    spread_23 = list(np.linspace(0.08, 0.98, 23))
    excessive = build_plot(_labeled([0.01, 0.02, 0.03, 0.04] + spread_23))
    verdict = _classify(excessive)
    assert _checks(verdict)["uniform_ks"].statistic > 0.05
    assert _checks(verdict)["uniform_count"] == ("uniform_count", 4, 3, -1, False)
    assert verdict.verdict is not PlotVerdict.UNIFORM45


def test_bilinear_two_slope_shape():
    ps = [0.001 * i for i in range(1, 9)] + list(np.linspace(0.10, 0.95, 19))
    classification = _classify(build_plot(_labeled(ps)))
    assert classification.verdict is PlotVerdict.BILINEAR
    assert classification.trace.changepoint_index == 8
    slope_low, slope_high = classification.trace.segment_slopes
    assert slope_low < slope_high


def test_classify_plot_takes_only_ranked_p_values():
    # A labelled plot unpacks into other fields; it must be refused by name.
    for alpha in (0.05, 0.01):
        plot = build_plot(_labeled([0.02, 0.3, 0.5, 0.7, 0.9]), alpha=alpha)
        with pytest.raises(TypeError, match="takes a RankedPValues, got PValuePlot"):
            classify_plot(plot)


def test_small_sets_are_ambiguous():
    plot = build_plot(_labeled([0.2, 0.4, 0.6, 0.8]))
    assert _classify(plot).verdict is PlotVerdict.AMBIGUOUS


def test_majority_rule_beats_uniformity():
    # 60% of points under alpha forces EFFECT_LINE before any other check.
    ps = [0.01, 0.02, 0.03, 0.04, 0.045, 0.046, 0.3, 0.6, 0.8, 0.9]
    plot = build_plot(_labeled(ps))
    assert plot.n_below_alpha == 6
    assert _classify(plot).verdict is PlotVerdict.EFFECT_LINE


def test_classifier_counts_at_the_plot_alpha():
    # Two of five p-values sit below 0.05 but none below 0.01; the
    # classifier must count at the level the plot was built with.
    plot = build_plot(_labeled([0.02, 0.03, 0.5, 0.7, 0.9]), alpha=0.01)
    assert plot.n_below_alpha == 0
    assert _checks(_classify(plot))["effect_majority"].statistic == 0.0


def _reference_rss(xs, ys):
    """The original least-squares RSS: five fsum passes, no closed forms."""
    n = len(xs)
    xbar = math.fsum(xs) / n
    ybar = math.fsum(ys) / n
    sxx = math.fsum((x - xbar) ** 2 for x in xs)
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx if sxx > 0.0 else 0.0
    intercept = ybar - slope * xbar
    rss = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    return rss, slope


def _reference_two_segment_fit(sorted_ps, min_segment):
    """Brute force with _reference_rss: refit every split, keep the first minimum.

    Returns the fit, or None, and the single-line RSS over all points.
    """
    n = len(sorted_ps)
    xs = [float(i) for i in range(1, n + 1)]
    ys = [float(p) for p in sorted_ps]
    single_rss = _reference_rss(xs, ys)[0] if ys else None
    if n < 2 * min_segment:
        return None, single_rss
    best = None
    for split in range(min_segment, n - min_segment + 1):
        rss1, slope1 = _reference_rss(xs[:split], ys[:split])
        rss2, slope2 = _reference_rss(xs[split:], ys[split:])
        total = rss1 + rss2
        if best is None or total < best[1]:
            best = (split, total, slope1, slope2)
    return best, single_rss


def _assert_fit_matches_reference(ps, min_segment):
    fit, single_rss = _reference_two_segment_fit(ps, min_segment)
    assert _two_segment_fit(ps, min_segment) == fit
    if ps:
        # The single-line RSS as classify_plot's BILINEAR rule computes it.
        ranks = [float(i) for i in range(1, len(ps) + 1)]
        assert _rss(ranks, [float(p) for p in ps])[0] == single_rss


def _trial_inputs():
    for k, trials in ((13, 30), (27, 30), (200, 4)):
        for scenario, log_or in ((Scenario.NULL, 0.0), (Scenario.MIXTURE, 0.5)):
            config = SimulationConfig(
                scenario=scenario, k=k, trials=trials, seed=404,
                log_or=log_or, effect_fraction=0.3,
            )
            for t in range(trials):
                yield sorted(simulate_trial(config, t))


def _edge_inputs(min_segment):
    for n in (2 * min_segment, 2 * min_segment + 1, 27):
        yield [0.5] * n
        yield [0.0] * n
        yield [1.0] * n
        yield [1e-300] * n
        yield sorted(i % 2 * 1.0 for i in range(n))
        yield [0.0] * (n // 2) + [1.0] * (n - n // 2)
        yield sorted(1e-162 * ((i * 7919) % n) for i in range(n))
        yield sorted(0.25 * ((i * 7) % 5) for i in range(n))
        # Near-ties, which confirm several splits: a linear ramp fits every
        # split exactly, and three clusters symmetric about the middle
        # (p and 1 - p) tie each split m with n - m.
        yield [(i + 1) / n for i in range(n)]
        low = [0.01 * i / n + 0.5 * (i >= n // 3) for i in range(n // 2)]
        yield sorted(low + [0.5] * (n % 2) + [1.0 - y for y in low])


@pytest.mark.parametrize("min_segment", [2, 3, 4, 5])
def test_two_segment_fit_equals_brute_force(min_segment):
    inputs = [*_trial_inputs(), *_edge_inputs(min_segment)]
    for ps in inputs:
        _assert_fit_matches_reference(ps, min_segment)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=60).map(sorted),
    st.integers(min_value=2, max_value=5),
)
def test_two_segment_fit_equals_brute_force_on_any_plot(ps, min_segment):
    _assert_fit_matches_reference(ps, min_segment)


@pytest.mark.parametrize("offset", [1, 5, 17, 200])
def test_closed_form_rank_moments_equal_fsum(offset):
    # _rss takes the mean and centred sum of squares of consecutive ranks
    # in closed form; both must equal the fsum passes they replace.
    for m in range(1, 2001):
        xs = [float(x) for x in range(offset, offset + m)]
        xbar = math.fsum(xs) / m
        assert (xs[0] + xs[-1]) / 2 == xbar
        assert m * (m * m - 1) / 12.0 == math.fsum([(x - xbar) ** 2 for x in xs])


def _spy(monkeypatch, name):
    """Record (len of the first argument, result) of each call to pvplot's name."""
    calls = []
    original = getattr(pvplot, name)

    def spy(*args):
        result = original(*args)
        calls.append((len(args[0]), result))
        return result

    monkeypatch.setattr(pvplot, name, spy)
    return calls


def test_bilinear_rule_reads_the_reference_single_line_rss(monkeypatch):
    ps = [0.001 * i for i in range(1, 9)] + list(np.linspace(0.10, 0.95, 19))
    plot = build_plot(_labeled(ps))
    calls = _spy(monkeypatch, "_rss")
    assert _classify(plot).verdict is PlotVerdict.BILINEAR
    _, single_rss = _reference_two_segment_fit(sorted(ps), 3)
    assert [rss for n, (rss, _) in calls if n == plot.n] == [single_rss]


def test_single_line_rss_is_fitted_only_at_the_bilinear_rule(monkeypatch):
    plot = build_plot(_labeled(list(np.linspace(0.02, 0.98, 27))))
    calls = _spy(monkeypatch, "_rss")
    fits = _spy(monkeypatch, "_two_segment_fit")
    early = _classify(plot, every_rule=False)
    assert early.verdict is PlotVerdict.UNIFORM45
    assert (calls, fits, early.trace.changepoint_index) == ([], [], None)
    # Every rule: one fit, its segments and the single line over all n points.
    classification = _classify(plot)
    assert classification.verdict is PlotVerdict.UNIFORM45
    assert classification.trace.changepoint_index is not None
    assert len(fits) == 1 and [n for n, _ in calls].count(plot.n) == 1
    # run_simulation fits only the trials that the first three rules leave
    # undecided: 90 of 1000 null trials at k = 27, and every mixture trial.
    for config, reached in (
        (SimulationConfig(scenario=Scenario.NULL, k=27, trials=1000, seed=2027), 90),
        (SimulationConfig(scenario=Scenario.MIXTURE, k=200, trials=4, seed=2027,
                          log_or=0.5, effect_fraction=0.3), 4),
    ):
        fits.clear()
        counts = run_simulation(config).verdict_counts
        assert counts["bilinear"] + counts["ambiguous"] == reached
        assert len(fits) == reached


def test_plot_config_validation():
    with pytest.raises(ConfigError):
        PlotConfig(uniform_ks_threshold=1.0)
    with pytest.raises(ConfigError):
        PlotConfig(bilinear_min_segment=1)
    with pytest.raises(ConfigError):
        PlotConfig(min_points=0)
    # A bool is not a count, though Python treats True as the int 1.
    with pytest.raises(ConfigError, match="min_points must be an integer >= 1, got True"):
        PlotConfig(min_points=True)
    # _replace and _make build through the same checks.
    with pytest.raises(ConfigError, match="min_points must be an integer >= 1, got True"):
        PlotConfig()._replace(min_points=True)
    with pytest.raises(ConfigError, match="uniform_ks_threshold must be inside"):
        PlotConfig._make((1.0, 0.05, 0.5, 3, 0.5, 5))
    assert PlotConfig()._replace(min_points=7) == PlotConfig(min_points=7)


@pytest.mark.parametrize("name", ["asthma_plot.svg", "wheeze_plot.svg"])
def test_golden_svg(tmp_path, name):
    golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    run_reproduction(tmp_path)
    assert (tmp_path / name).read_text(encoding="utf-8") == golden


def _pin_plot(n, alpha, negatives):
    """n fixed p-values; every third source has OR < 1 when negatives is set."""
    ps = [(i * 0.6180339887498949) % 1.0 for i in range(1, n + 1)]
    flags = [negatives and i % 3 == 0 for i in range(n)]
    return build_plot(_labeled(ps), alpha=alpha, negative=flags)


# The SHA-256 of render_plot's output on branches the two golden SVGs never
# reach, so that a rewrite of the renderer must keep every byte.
@pytest.mark.parametrize(
    "n, alpha, negatives, classified, title, fmt, sha256",
    [
        pytest.param(27, 0.05, True, True, "", "svg",
                     "8f01e5d8f763f30117f17dde15fbdd42be2c139cfca87ac0600d3d9b16e8cf19",
                     id="no-title"),
        pytest.param(27, 0.05, True, False, "Pinned", "svg",
                     "c67db6682166fce263e669d71c00560449e0edca00c4773964fa3416fd6d38f9",
                     id="no-classification"),
        pytest.param(27, 0.05, False, True, "Pinned", "svg",
                     "2ae1e576540fd366704a0edddff71cfff683406780bcb045191f11b24c530e75",
                     id="no-legend"),
        pytest.param(1, 0.05, True, True, "Pinned", "svg",
                     "a662c7f024435fbcf6b3244dbfc9f14d11c8fad1392e0b16626d0bd9756b301c",
                     id="n1"),
        pytest.param(9, 0.05, True, True, "Pinned", "svg",
                     "24ffffaaf575592568da54dbff3a0dbb477f21b6034c89df704e059015fde19d",
                     id="n9-last-tick-appended"),
        pytest.param(27, 0.05, True, True, 'A <b> & "c"', "svg",
                     "9964e564c8e1873441c1d89d6c866d52f2bf9008d050456ae1e202509d8a9068",
                     id="escaped-title"),
        pytest.param(27, 0.01, True, True, "Pinned", "svg",
                     "1818087eede199de661738a7e37c2e5d54d3c8b42f231e0c811d1394b6cd96dc",
                     id="alpha-0.01"),
        pytest.param(27, 0.05, True, True, "Pinned", "csv",
                     "6e11dfef4aee7e39e45478cd29ea5e4031fe10e8f4f7d08e2ad8446b719e6d41",
                     id="csv"),
    ],
)
def test_render_pins(n, alpha, negatives, classified, title, fmt, sha256):
    plot = _pin_plot(n, alpha, negatives)
    classification = _classify(plot) if classified else None
    text = render_plot(plot, classification, title, fmt)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha256


def test_rendering_is_deterministic():
    effects = ingest_effects(fixture_path("wheeze_effects.csv"))
    plot = audit_report(effects, ConversionMethod.NATURAL)["plot"]
    classification = _classify(plot)
    first = render_plot(plot, classification)
    second = render_plot(plot, classification)
    assert first == second
    assert render_plot(plot, classification, format="csv") == render_plot(
        plot, classification, format="csv"
    )


def test_svg_marks_negative_directions(tmp_path):
    run_reproduction(tmp_path)
    svg = (tmp_path / "wheeze_plot.svg").read_text(encoding="utf-8")
    # 10 sub-unity odds ratios plus one legend marker.
    assert svg.count('fill="#b83232"') == 11
    assert "OR &lt; 1" in svg
    assert svg.endswith("</svg>\n")
    assert "verdict: ambiguous" in svg


def test_csv_rendering():
    effects = ingest_effects(fixture_path("wheeze_effects.csv"))
    plot = audit_report(effects, ConversionMethod.NATURAL)["plot"]
    text = render_plot(plot, format="csv")
    lines = text.splitlines()
    assert lines[0] == "rank,label,p_value,below_alpha,negative_effect"
    assert len(lines) == 28
    rows = [line.split(",") for line in lines[1:]]
    significant_negative = sum(
        1 for row in rows if row[3] == "1" and row[4] == "1"
    )
    assert significant_negative == 4
    # Full-precision p-values round-trip through float().
    assert all(0.0 <= float(row[2]) <= 1.0 for row in rows)
    assert text.endswith("\n")
    assert "\r" not in text


def test_render_rejects_unknown_format():
    plot = build_plot(_labeled([0.1, 0.5, 0.9]))
    with pytest.raises(DomainError):
        render_plot(plot, format="png")


def test_title_and_alpha_label_rendered():
    plot = build_plot(_labeled([0.1, 0.3, 0.5, 0.7, 0.9]), alpha=0.01)
    svg = render_plot(plot, title="A <b> title")
    assert "A &lt;b&gt; title" in svg
    assert "alpha = 0.01" in svg


def test_pvplot_loads_no_conversion_code():
    # pvplot knows only p-values; turning (OR, CI) rows into them is effects' job.
    # Building, classifying and drawing a labelled plot loads figure and no more.
    code = (
        "import sys, metaaudit.pvplot as pv\n"
        "print(sorted(m for m in sys.modules if 'metaaudit' in m))\n"
        "plot = pv.build_plot([('a', 0.01), ('b', 0.5), ('c', 0.9)], 0.05, [True, False, False])\n"
        "pv.render_plot(plot, pv.classify_plot(plot.ranked))\n"
        "print(sorted(m for m in sys.modules if 'metaaudit' in m))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(pvplot.__file__).parent.parent)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "['metaaudit', 'metaaudit.errors', 'metaaudit.pvplot']",
        "['metaaudit', 'metaaudit.errors', 'metaaudit.figure', 'metaaudit.pvplot']",
    ]
