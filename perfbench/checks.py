"""Output checks, with oracles that do not use the code under test.

P-values come from scipy.stats.norm, pooled estimates from a numpy
recomputation of the inverse-variance and DerSimonian-Laird formulas,
search spaces from Python integers, and the reproduction figures from the
golden SVGs. No check pins the asymptotic KS p-value or the program's own
normal tail, so a more exact statistic can change verdicts without failing
a check. Each check returns None when the output is right, or a message.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import statistics
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
from scipy.stats import norm

VERDICTS = frozenset({"uniform45", "effect_line", "bilinear", "ambiguous"})
P_RTOL = 1e-6
# canonical_json keeps six significant digits.
JSON_RTOL = 1e-5
JSON_ATOL = 1e-9


def _close(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(got - want) <= rtol * abs(want) + atol


# Inputs do not change during a run, so each oracle value is computed once.
@functools.lru_cache(maxsize=None)
def _effect_rows(path: Path) -> list[dict[str, object]]:
    with path.open(newline="", encoding="utf-8") as handle:
        rows = []
        for row in csv.DictReader(handle):
            level = (row.get("ci_level") or "").strip()
            study, subgroup = row["study_label"].strip(), row["subgroup_label"].strip()
            rows.append(
                {
                    "study": study,
                    "subgroup": subgroup,
                    "label": f"{study} ({subgroup})" if subgroup else study,
                    "or": float(row["odds_ratio"]),
                    "low": float(row["ci_low"]),
                    "high": float(row["ci_high"]),
                    "level": float(level) if level else 0.95,
                }
            )
    return rows


def _multiplier(level):
    return norm.ppf(1.0 - (1.0 - level) / 2.0)


@functools.lru_cache(maxsize=None)
def oracle_ps(path: Path, method: str) -> tuple[float, ...]:
    """Two-sided p-value of every row of an effect file, in file order."""
    rows = _effect_rows(path)
    odds, low, high, level = (np.array([r[k] for r in rows]) for k in ("or", "low", "high", "level"))
    q2 = 2.0 * _multiplier(level)
    if method == "natural":
        z = (odds - 1.0) / ((high - low) / q2)
    else:
        z = np.log(odds) / ((np.log(high) - np.log(low)) / q2)
    return tuple(np.minimum(1.0, 2.0 * norm.sf(np.abs(z))).tolist())


@functools.lru_cache(maxsize=None)
def _digest(path: Path, rows: int) -> dict[str, object]:
    return {
        "file": path.name,
        "rows": rows,
        "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
    }


def check_convert(stdout: str, path: Path, method: str) -> str | None:
    rows = _effect_rows(path)
    out = list(csv.DictReader(io.StringIO(stdout)))
    if len(out) != len(rows):
        return f"convert: {len(out)} rows out for {len(rows)} in"
    for i, (got, want, expected) in enumerate(zip(out, rows, oracle_ps(path, method)), 1):
        if got["study_label"] != want["study"] or got["subgroup_label"] != want["subgroup"]:
            return f"convert row {i}: label {got['study_label']!r} != {want['study']!r}"
        for column, key in (("odds_ratio", "or"), ("ci_low", "low"), ("ci_high", "high"),
                            ("ci_level", "level")):
            if float(got[column]) != want[key]:
                return f"convert row {i}: {column} {got[column]} != {want[key]}"
        p = float(got["p_value"])
        if not _close(p, expected, P_RTOL):
            return f"convert row {i}: p {p!r} != scipy {expected!r}"
    return None


@functools.lru_cache(maxsize=None)
def _pool_oracle(path: Path, model: str, level: float) -> dict[str, float]:
    rows = _effect_rows(path)
    y = np.array([math.log(r["or"]) for r in rows])
    se = np.array(
        [(math.log(r["high"]) - math.log(r["low"])) / (2.0 * _multiplier(r["level"])) for r in rows]
    )
    v = se * se
    w = 1.0 / v
    mean_fe = float(np.sum(w * y) / np.sum(w))
    q = float(np.sum(w * (y - mean_fe) ** 2))
    k = len(rows)
    tau2 = i2 = 0.0
    if k >= 2:
        denom = float(np.sum(w) - np.sum(w * w) / np.sum(w))
        tau2 = max(0.0, (q - (k - 1)) / denom) if denom > 0 else 0.0
        i2 = max(0.0, (q - (k - 1)) / q) if q > 0 else 0.0
    if model == "dl":
        w = 1.0 / (v + tau2)
    mean = float(np.sum(w * y) / np.sum(w))
    pooled_se = float(np.sum(w) ** -0.5)
    mult = float(_multiplier(level))
    return {
        "k": k,
        "pooled_log_or": mean,
        "pooled_se": pooled_se,
        "pooled_or": math.exp(mean),
        "ci_low": math.exp(mean - mult * pooled_se),
        "ci_high": math.exp(mean + mult * pooled_se),
        "p_value": min(1.0, 2.0 * float(norm.sf(abs(mean / pooled_se)))),
        "q_statistic": q,
        "tau_squared": tau2,
        "i_squared": i2,
        "ci_level": level,
    }


def check_pool(stdout: str, path: Path, model: str, level: float) -> str | None:
    rows = _effect_rows(path)
    payload = json.loads(stdout)
    if payload["input"] != _digest(path, len(rows)):
        return f"pool: input digest {payload['input']} is wrong"
    result = payload["result"]
    method = {"fixed": "fixed", "dl": "dersimonian_laird"}[model]
    if result["method"] != method:
        return f"pool: method {result['method']!r} != {method!r}"
    for key, want in _pool_oracle(path, model, level).items():
        if not _close(float(result[key]), want, JSON_RTOL, JSON_ATOL):
            return f"pool {model}: {key} {result[key]!r} != numpy {want!r}"
    return None


@functools.lru_cache(maxsize=None)
def _ledger(path: Path) -> tuple[list[str], dict[str, list[dict[str, object]]]]:
    order: list[str] = []
    blocks: dict[str, list[dict[str, object]]] = {}
    with path.open(newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            label = row["paper_label"].strip()
            if label not in blocks:
                order.append(label)
                blocks[label] = []
            o, p, c = (int(row[k]) for k in ("outcomes", "predictors", "covariates"))
            blocks[label].append(
                {"block_label": row["block_label"].strip(), "space": o * p * 2**c}
            )
    return order, blocks


def check_count(stdout: str, path: Path, alpha: float) -> str | None:
    order, blocks = _ledger(path)
    payload = json.loads(stdout)
    if payload["input"] != _digest(path, len(order)):
        return f"count: input digest {payload['input']} is wrong"
    studies = payload["studies"]
    if [s["paper_label"] for s in studies] != order:
        return "count: papers out of first-appearance order"
    spaces = []
    for study in studies:
        want = blocks[study["paper_label"]]
        got = [(b["block_label"], b["search_space"]) for b in study["blocks"]]
        if got != [(b["block_label"], b["space"]) for b in want]:
            return f"count: blocks of {study['paper_label']} are {got}"
        space = sum(b["space"] for b in want)
        if study["search_space"] != space:
            return f"count: {study['paper_label']} N {study['search_space']} != {space}"
        if not _close(study["expected_false_positives"], alpha * space, JSON_RTOL):
            return f"count: {study['paper_label']} expected false positives are wrong"
        spaces.append(space)
    spaces.sort()
    summary = payload["summary"]
    n = len(spaces)
    quartiles = (
        statistics.quantiles(spaces, n=4, method="inclusive") if n > 1 else [spaces[0]] * 3
    )
    want = {
        "n": n,
        "minimum": spaces[0],
        "maximum": spaces[-1],
        "lower_quartile": quartiles[0],
        "median": quartiles[1],
        "upper_quartile": quartiles[2],
        "mean": sum(spaces) / n,
        "median_expected_false_positives": alpha * quartiles[1],
    }
    for key, value in want.items():
        if not _close(float(summary[key]), float(value), JSON_RTOL):
            return f"count: summary {key} {summary[key]!r} != {value!r}"
    if abs(summary["mean_rounded"] - sum(spaces) / n) > 0.5 + 1e-9:
        return f"count: mean_rounded {summary['mean_rounded']} is not the rounded mean"
    return None


def check_plot(outdir: Path, path: Path, method: str, alpha: float = 0.05) -> str | None:
    rows = _effect_rows(path)
    expected = dict(zip((r["label"] for r in rows), oracle_ps(path, method)))
    stem = path.stem
    try:
        root = ET.parse(outdir / f"{stem}_plot.svg").getroot()
    except (OSError, ET.ParseError) as exc:
        return f"plot: SVG unreadable: {exc}"
    if root.tag != "{http://www.w3.org/2000/svg}svg":
        return f"plot: SVG root is {root.tag}"
    with (outdir / f"{stem}_plot.csv").open(newline="", encoding="utf-8") as handle:
        points = list(csv.DictReader(handle))
    if len(points) != len(rows):
        return f"plot: {len(points)} points for {len(rows)} rows"
    by_label = {r["label"]: r for r in rows}
    previous = -1.0
    for rank, point in enumerate(points, 1):
        want = by_label.get(point["label"])
        p = float(point["p_value"])
        if want is None or int(point["rank"]) != rank or p < previous:
            return f"plot: point {rank} ({point['label']!r}) is out of place"
        previous = p
        if not _close(p, expected[point["label"]], P_RTOL):
            return f"plot: {point['label']} p {p!r} != scipy {expected[point['label']]!r}"
        if int(point["below_alpha"]) != int(p < alpha) or int(point["negative_effect"]) != int(
            want["or"] < 1.0
        ):
            return f"plot: flags of {point['label']} are wrong"
    audit = json.loads((outdir / f"{stem}_audit.json").read_text(encoding="utf-8"))
    below = sum(1 for point in points if float(point["p_value"]) < alpha)
    if audit["plot"]["n"] != len(rows) or audit["plot"]["n_below_alpha"] != below:
        return "plot: audit JSON counts disagree with the points"
    if audit["classification"]["verdict"] not in VERDICTS:
        return f"plot: unknown verdict {audit['classification']['verdict']!r}"
    return None


def check_reproduce(outdir: Path, golden: Path) -> str | None:
    diff = json.loads((outdir / "reproduction.json").read_text(encoding="utf-8"))
    summary = diff["summary"]
    if summary["gated"] != 75 or summary["gated_passed"] != 75 or not summary["all_gated_pass"]:
        return f"reproduce: gated checks {summary['gated_passed']}/{summary['gated']}"
    for name, data in _golden(golden):
        if (outdir / name).read_bytes() != data:
            return f"reproduce: {name} differs from the golden file"
    return None


@functools.lru_cache(maxsize=None)
def _golden(golden: Path) -> tuple[tuple[str, bytes], ...]:
    return tuple((svg.name, svg.read_bytes()) for svg in sorted(golden.glob("*.svg")))


def check_simulate(stdout: str, trials: int, expected: dict[str, int] | None) -> str | None:
    counts = json.loads(stdout)["verdict_counts"]
    if set(counts) - VERDICTS or sum(counts.values()) != trials:
        return f"simulate: histogram {counts} does not cover {trials} trials"
    if expected is not None:
        filled = {v: counts.get(v, 0) for v in VERDICTS}
        if filled != {v: expected.get(v, 0) for v in VERDICTS}:
            return f"simulate: histogram {counts} != in-process run {expected}"
    return None
