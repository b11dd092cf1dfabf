"""Spans around the calls into each metaaudit module's public functions.

The tracer replaces a public function, in every metaaudit module that
refers to it, with a wrapper that records one span per call: name, start,
end, parent span, command id and trial id. Spans stay in memory in flat
integer arrays and are written out once, when the run ends. Nothing inside
the program is changed; disable() puts the original functions back.
"""

from __future__ import annotations

import contextlib
import gzip
import inspect
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable

import numpy as np

# (module, function, span name). Nested calls are caught because every
# module-level reference to the function is replaced, including the ones
# that other metaaudit modules imported by name.
TARGETS = (
    ("metaaudit.normal", "std_normal_quantile", "normal.quantile"),
    ("metaaudit.normal", "std_normal_cdf", "normal.cdf"),
    ("metaaudit.effects", "p_from_effect", "effects.p_from_effect"),
    ("metaaudit.ingest", "ingest_effects", "ingest.effects"),
    ("metaaudit.ingest", "ingest_counts", "ingest.counts"),
    ("metaaudit.pooling", "pool_fixed", "pooling.fixed"),
    ("metaaudit.pooling", "pool_dersimonian_laird", "pooling.dl"),
    ("metaaudit.pvplot", "build_plot", "pvplot.build_plot"),
    ("metaaudit.pvplot", "classify_plot", "pvplot.classify"),
    ("metaaudit.pvplot", "ks_statistic", "pvplot.ks_statistic"),
    ("metaaudit.pvplot", "ks_pvalue", "pvplot.ks_pvalue"),
    ("metaaudit.pvplot", "render_plot", "pvplot.render_plot"),
    ("metaaudit.search_space", "summarize_ledger", "search_space.summarize"),
    ("metaaudit.report", "canonical_json", "report.canonical_json"),
    ("metaaudit.reproduce", "run_reproduction", "reproduce.run"),
    ("metaaudit.simulate", "simulate_trial", "simulate.trial"),
    ("metaaudit.simulate", "run_simulation", "simulate.run"),
)
# Command ids at or above this mark belong to the coverage batch, which
# only feeds layers that the workload's own commands never call.
COVERAGE_BASE = 1_000_000


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.command = array("q")
        self.trial = array("q")
        self.attrs: dict[int, Any] = {}
        self.stack = [-1]
        self.current_command = -1
        self.current_trial = -1
        self._patches: list[tuple[Any, str, Any, Any]] = []

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn: Callable, on_call=None, on_return=None) -> Callable:
        nid = self.name_id(name)
        clock = time.perf_counter_ns
        stack = self.stack
        names, starts, ends = self.name, self.start, self.end
        parents, commands, trials = self.parent, self.command, self.trial

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(names)
            names.append(nid)
            starts.append(0)
            ends.append(0)
            parents.append(stack[-1])
            commands.append(self.current_command)
            trials.append(self.current_trial)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_return is not None:
                on_return(idx, args, kwargs, result)
            return result

        return wrapper

    def enable(self) -> None:
        """Swap the wrappers in; the first call builds them."""
        if not self._patches:
            hooks = _hooks(self)
            for module_name, attr, span in TARGETS:
                original = getattr(sys.modules.get(module_name), attr, None)
                if original is None:
                    continue
                wrapper = self.wrap(span, original, *hooks.get(span, (None, None)))
                for name, module in list(sys.modules.items()):
                    if name != "metaaudit" and not name.startswith("metaaudit."):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original, wrapper))
        for module, key, _, wrapper in self._patches:
            setattr(module, key, wrapper)

    def disable(self) -> None:
        for module, key, original, _ in self._patches:
            setattr(module, key, original)

    @contextlib.contextmanager
    def recording(self, command: int):
        """Record spans, tagged with this command id, inside the block."""
        self.current_command = command
        self.enable()
        try:
            yield
        finally:
            self.disable()

    def write(self, path: Path) -> None:
        """Write every span as a gzipped CSV row."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("span,name,start_ns,end_ns,parent,command,trial\n")
            for i in range(len(self.name)):
                handle.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.command[i]},{self.trial[i]}\n"
                )


def _hooks(tracer: Tracer) -> dict[str, tuple[Any, Any]]:
    from metaaudit.pvplot import classify_plot

    default_config = inspect.signature(classify_plot).parameters["config"].default

    def trial_start(args, kwargs):
        tracer.current_trial = args[1] if len(args) > 1 else kwargs["trial_index"]

    def run_end(idx, args, kwargs, result):
        tracer.current_trial = -1

    def classified(idx, args, kwargs, result):
        plot = args[0] if args else kwargs["plot"]
        config = args[1] if len(args) > 1 else kwargs.get("config", default_config)
        verdict = result.verdict.value
        # The two-segment rule is reached once the size, majority and
        # uniformity rules have all passed on.
        reached = plot.n >= getattr(config, "min_points", 0) and verdict in ("bilinear", "ambiguous")
        tracer.attrs[idx] = (verdict, reached)

    def rendered(idx, args, kwargs, result):
        fmt = args[3] if len(args) > 3 else kwargs.get("format", "svg")
        if fmt == "svg":
            tracer.attrs[idx] = len(result.encode("utf-8"))

    def serialized(idx, args, kwargs, result):
        tracer.attrs[idx] = len(result.encode("utf-8"))

    def effect_rows(idx, args, kwargs, result):
        tracer.attrs[idx] = len(result)

    def count_rows(idx, args, kwargs, result):
        tracer.attrs[idx] = sum(len(study.blocks) for study in result)

    return {
        "simulate.trial": (trial_start, None),
        "simulate.run": (None, run_end),
        "pvplot.classify": (None, classified),
        "pvplot.render_plot": (None, rendered),
        "report.canonical_json": (None, serialized),
        "ingest.effects": (None, effect_rows),
        "ingest.counts": (None, count_rows),
    }


class SpanTable:
    """Read-side view of a finished trace."""

    def __init__(self, tracer: Tracer) -> None:
        self.t = tracer
        self.name = np.frombuffer(tracer.name, dtype=np.int64)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int64)
        self.command = np.frombuffer(tracer.command, dtype=np.int64)
        self.trial = np.frombuffer(tracer.trial, dtype=np.int64)
        self.dur = np.frombuffer(tracer.end, dtype=np.int64) - np.frombuffer(
            tracer.start, dtype=np.int64
        )
        nested = self.parent >= 0
        child = np.bincount(
            self.parent[nested], weights=self.dur[nested], minlength=len(self.dur)
        )
        self.self_ns = self.dur - child

    def all(self, name: str) -> np.ndarray:
        nid = self.t.name_ids.get(name, -1)
        return np.flatnonzero(self.name == nid)

    def spans(self, name: str) -> np.ndarray:
        """Spans of the workload's own commands, else of the coverage batch."""
        every = self.all(name)
        own = every[self.command[every] < COVERAGE_BASE]
        return own if len(own) else every[self.command[every] >= COVERAGE_BASE]

    def within(self, spans: np.ndarray, ancestors: np.ndarray) -> np.ndarray:
        """The spans that have one of the given spans as an ancestor."""
        ancestors = set(ancestors.tolist())
        keep = []
        for i in spans.tolist():
            p = int(self.parent[i])
            while p >= 0 and p not in ancestors:
                p = int(self.parent[p])
            keep.append(p >= 0)
        return spans[np.array(keep, dtype=bool)] if keep else spans

    def verdicts(self, command: int) -> dict[str, int]:
        """Verdict histogram of one command's simulated trials."""
        counts: dict[str, int] = {}
        for i in self.all("pvplot.classify").tolist():
            if self.command[i] == command and self.trial[i] >= 0:
                verdict = self.t.attrs[i][0]
                counts[verdict] = counts.get(verdict, 0) + 1
        return counts


def _median(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def layer_metrics(table: SpanTable) -> dict[str, float]:
    """Per-layer numbers from the spans; times are medians per call."""
    attrs = table.t.attrs

    def med(name: str, scale: float, self_time: bool = False) -> float:
        spans = table.spans(name)
        return _median((table.self_ns if self_time else table.dur)[spans]) / scale

    def per_row(name: str) -> float:
        spans = table.spans(name).tolist()
        rows = sum(attrs[i] for i in spans)
        return float(table.dur[spans].sum()) / rows / 1e3 if rows else float("nan")

    def ratio(count: int, base: int) -> float:
        return count / base if base else float("nan")

    trials = table.spans("simulate.trial")
    in_trials = np.isin(table.command, table.command[trials]) & (table.trial >= 0)

    def per_trial(*names: str) -> float:
        calls = sum(int(in_trials[table.all(name)].sum()) for name in names)
        return ratio(calls, len(trials))

    runs = table.spans("simulate.run")
    trials_per_run = np.bincount(table.parent[trials][table.parent[trials] >= 0], minlength=len(table.dur))[runs]
    used = trials_per_run > 0
    ks = table.spans("pvplot.ks_statistic")
    ks_ns = table.dur[ks].sum() + table.dur[table.spans("pvplot.ks_pvalue")].sum()
    classify = table.spans("pvplot.classify").tolist()
    svg = [i for i in table.spans("pvplot.render_plot").tolist() if i in attrs]
    reproductions = table.spans("reproduce.run")
    nested_ingest = table.within(table.all("ingest.effects"), reproductions)
    return {
        "simulate.trial_us": med("simulate.trial", 1e3),
        "simulate.trial_self_us": med("simulate.trial", 1e3, self_time=True),
        "simulate.run_us_per_trial": _median(table.dur[runs][used] / trials_per_run[used]) / 1e3,
        "simulate.ks_calls_per_trial": per_trial("pvplot.ks_statistic"),
        "normal.quantile_ns": med("normal.quantile", 1.0),
        "normal.cdf_ns": med("normal.cdf", 1.0),
        "normal.calls_per_trial": per_trial("normal.quantile", "normal.cdf"),
        "pvplot.classify_us": med("pvplot.classify", 1e3),
        "pvplot.classify_self_us": med("pvplot.classify", 1e3, self_time=True),
        "pvplot.ks_us": ratio(float(ks_ns), len(ks)) / 1e3,
        "pvplot.fit_used_ratio": ratio(sum(1 for i in classify if attrs[i][1]), len(classify)),
        "pvplot.build_plot_us": med("pvplot.build_plot", 1e3),
        "pvplot.render_svg_us": _median(table.dur[svg]) / 1e3,
        "pvplot.svg_bytes": _median([attrs[i] for i in svg]),
        "effects.p_from_effect_us": med("effects.p_from_effect", 1e3),
        "ingest.effects_us_per_row": per_row("ingest.effects"),
        "ingest.counts_us_per_row": per_row("ingest.counts"),
        "pooling.fixed_us": med("pooling.fixed", 1e3),
        "pooling.dl_us": med("pooling.dl", 1e3),
        "search_space.summarize_us": med("search_space.summarize", 1e3),
        "report.canonical_json_us": med("report.canonical_json", 1e3),
        "report.json_bytes": _median([attrs[i] for i in table.spans("report.canonical_json").tolist()]),
        "reproduce.run_ms": med("reproduce.run", 1e6),
        "reproduce.ingest_effects_calls": ratio(len(nested_ingest), len(reproductions)),
    }


def shares(table: SpanTable) -> dict[str, float]:
    """Shares of simulated trial time, summed over the workload's trials."""
    runs = table.spans("simulate.run")
    run_ns = float(table.dur[runs].sum())
    if not run_ns:
        return {}
    classify = table.within(table.all("pvplot.classify"), runs)
    draws = table.within(table.all("simulate.trial"), runs)
    return {
        "classify_self_of_trial": float(table.self_ns[classify].sum()) / run_ns,
        "draw_of_trial": float(table.dur[draws].sum()) / run_ns,
    }
