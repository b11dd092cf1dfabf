"""The labelled p-value plot of an audit, and its drawing as an SVG or a CSV.

A labelled plot (PValuePlot, one PlotPoint per source) and the audit that
builds it serve only the plot and reproduce commands. pvplot.build_plot
and pvplot.render_plot import this module on their first call, so a
process that classifies p-values but builds and draws no labelled plot,
as every simulate run does, never compiles it.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Any, NamedTuple, Sequence

from . import pvplot
from .errors import CheckedRecord, check_label


class PlotPoint(NamedTuple):
    """One ranked p-value with its provenance label.

    negative_effect marks a point whose source odds ratio was below 1,
    which rendering draws with a distinct marker.
    """

    rank: int
    label: str
    p_value: float
    negative_effect: bool


class _PValuePlot(NamedTuple):
    points: tuple[PlotPoint, ...]
    alpha: float
    n: int
    n_below_alpha: int


class PValuePlot(CheckedRecord, _PValuePlot):
    """Ranked p-values: points sorted ascending by p, then label, then flag.

    However it is built, a plot checks its p-values through RankedPValues
    and its labels with check_label, then ranks its points 1..n in that
    order, each p a float and each flag a bool, so points tied on p and
    label rank the same whatever order they came in. n and n_below_alpha
    are computed: the first n_below_alpha points are those below alpha.
    """

    __slots__ = ()
    _computed = 2

    def __new__(cls, points: Sequence[PlotPoint], alpha: float) -> PValuePlot:
        points = tuple(points)
        ranked = pvplot.RankedPValues([point.p_value for point in points], alpha)
        for point in points:
            check_label("label", point.label)
        ordered = sorted(points, key=lambda point: (point.p_value, point.label,
                                                    bool(point.negative_effect)))
        points = tuple(PlotPoint(rank, label, float(p), bool(negative))
                       for rank, (_, label, p, negative) in enumerate(ordered, 1))
        return super().__new__(cls, points, alpha, ranked.n, ranked.n_below_alpha)

    @property
    def ranked(self) -> pvplot.RankedPValues:
        """The points' p-values at alpha, built by RankedPValues, so its checks run."""
        return pvplot.RankedPValues([point.p_value for point in self.points], self.alpha)


def audit_report(
    rows: ingest.Ingested, method: effects.ConversionMethod, alpha: float = 0.05
) -> dict[str, Any]:
    """Full audit of one effect table, every number regenerable from inputs.

    Each conversion row carries its p-value under both readings, and the
    plot takes the chosen reading's column, flagging odds ratios below 1.
    The plot is judged under the default PlotConfig with every rule traced;
    the config block holds the plot's alpha beside those thresholds.
    """
    from . import effects, pooling

    column = f"p_{effects.check_method(method).value}"
    p_from_effect, methods = effects.p_from_effect, effects.ConversionMethod
    conversions = [
        {**e._asdict(), **{f"p_{m.value}": p_from_effect(e, m) for m in methods}}
        for e in rows
    ]
    pairs = [(e.display_label(), row[column]) for e, row in zip(rows, conversions)]
    plot = pvplot.build_plot(pairs, alpha, [e.odds_ratio < 1.0 for e in rows])
    config = pvplot.PlotConfig()
    classification = pvplot.classify_plot(plot.ranked, config)
    pooled = {
        "fixed": pooling.pool_fixed(rows),
        "dersimonian_laird": pooling.pool_dersimonian_laird(rows),
    }
    return {
        "input": rows.digest,
        "method": method.value,
        "config": {"alpha": plot.alpha, **config._asdict()},
        "conversions": conversions,
        "pooled": pooled,
        "plot": plot,
        "classification": classification,
    }


# SVG canvas, in pixels.
_WIDTH = 640
_HEIGHT = 480
_MARGIN = 64
_POINT_RADIUS = 4.0
# The characters a text element's content must escape.
_SVG_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})


def _fmt(value: float) -> str:
    """A coordinate: a float to two decimals, an int as it is."""
    return f"{value:.2f}" if isinstance(value, float) else str(value)


def _text(x: float, y: float, text: str, size: int = 11, anchor: str = "",
          fill: str = "#000000", rotated: bool = False) -> str:
    """A sans-serif label at (x, y); rotated turns it a quarter left about that point."""
    anchored = f' text-anchor="{anchor}"' if anchor else ""
    turn = f' transform="rotate(-90 {_fmt(x)} {_fmt(y)})"' if rotated else ""
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}"{anchored} font-family="sans-serif" '
        f'font-size="{size}" fill="{fill}"{turn}>{text.translate(_SVG_ESCAPES)}</text>'
    )


def _line(x1: float, y1: float, x2: float, y2: float,
          stroke: str = "#000000", dashes: str = "") -> str:
    dashed = f' stroke-dasharray="{dashes}"' if dashes else ""
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{stroke}" stroke-width="1"{dashed}/>'
    )


def _circle(cx: float, cy: float) -> str:
    """The marker of a source with OR >= 1."""
    return f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(_POINT_RADIUS)}" fill="#2b6cb0"/>'


def _diamond(cx: float, cy: float) -> str:
    """The marker of a source with OR < 1."""
    r = _POINT_RADIUS + 1.0
    return (
        f'<path d="M {_fmt(cx)} {_fmt(cy - r)} L {_fmt(cx + r)} {_fmt(cy)} '
        f'L {_fmt(cx)} {_fmt(cy + r)} L {_fmt(cx - r)} {_fmt(cy)} Z" fill="#b83232"/>'
    )


def render_svg(
    plot: PValuePlot,
    classification: pvplot.PlotClassification | None,
    title: str,
) -> str:
    left = float(_MARGIN)
    right = float(_WIDTH - 24)
    top = 40.0
    bottom = float(_HEIGHT - _MARGIN)
    n = plot.n

    def x(rank: float) -> float:
        return left + (right - left) * rank / n

    def y(p: float) -> float:
        return bottom - (bottom - top) * p

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(_text((left + right) / 2, 22, title, size=14, anchor="middle"))
    parts.append(
        f'<path d="M {_fmt(left)} {_fmt(top)} L {_fmt(left)} {_fmt(bottom)} '
        f'L {_fmt(right)} {_fmt(bottom)}" fill="none" stroke="#000000" stroke-width="1"/>'
    )
    for p in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        parts.append(_line(left - 4, y(p), left, y(p)))
        parts.append(_text(left - 8, y(p) + 4, f"{p:.1f}", anchor="end"))
    ticks = list(range(0, n + 1, max(1, math.ceil(n / 8))))
    if ticks[-1] != n:
        ticks.append(n)
    for tick in ticks:
        parts.append(_line(x(tick), bottom, x(tick), bottom + 4))
        parts.append(_text(x(tick), bottom + 16, str(tick), anchor="middle"))
    parts.append(_line(x(0), y(0.0), x(n), y(1.0), stroke="#999999"))
    alpha_y = y(plot.alpha)
    parts.append(_line(left, alpha_y, right, alpha_y, stroke="#aa2222", dashes="5 4"))
    alpha_label = f"alpha = {plot.alpha:g}"
    parts.append(_text(right, alpha_y - 4, alpha_label, anchor="end", fill="#aa2222"))
    for point in plot.points:
        marker = _diamond if point.negative_effect else _circle
        parts.append(marker(x(point.rank), y(point.p_value)))
    if any(point.negative_effect for point in plot.points):
        parts += [
            _circle(left + 12, top + 8),
            _text(left + 20, top + 12, "OR >= 1"),
            _diamond(left + 84, top + 8),
            _text(left + 92, top + 12, "OR < 1"),
        ]
    x_label = "rank of p-value (ascending)"
    parts.append(_text((left + right) / 2, bottom + 34, x_label, size=12, anchor="middle"))
    parts.append(_text(16, (top + bottom) / 2, "p-value", size=12, anchor="middle", rotated=True))
    if classification is not None:
        ks_p = classification.trace.checks[2].statistic
        note = (
            f"verdict: {classification.verdict.value} | KS p = {ks_p:.4f} | "
            f"{plot.n_below_alpha}/{n} below alpha"
        )
        parts.append(_text(right, bottom - 8, note, anchor="end", fill="#555555"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_csv(plot: PValuePlot) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["rank", "label", "p_value", "below_alpha", "negative_effect"])
    for rank, label, p, negative in plot.points:
        writer.writerow([rank, label, repr(p), int(rank <= plot.n_below_alpha), int(negative)])
    return buffer.getvalue()

