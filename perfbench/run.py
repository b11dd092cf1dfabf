"""metaaudit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sim_null_k27 --seed 1 --seconds 20 --trace 0

Workloads (see inputs.py for their exact inputs):

* sim_null_k27      `metaaudit simulate`, null scenario, k = 27
* sim_mixture_k200  `metaaudit simulate`, 30% mixture, k = 200
* cli_audit         a fixed mix of convert, pool, plot, count, reproduce

Each workload is one client in a closed loop: one program process at a
time, the next started when the previous one exits. With --trace 0 the run
times those processes in CPU time, rescaled by a fixed reference task run
after every two of them (procs.REFERENCE), and prints the end-to-end
metrics. With --trace 1 the same commands run in this process through
metaaudit.cli.main, alternately with and without spans around the public
functions of each module, and the run prints the per-layer metrics. Every output is checked afterwards
(checks.py). The last line of stdout is the result as one JSON object;
a readable table goes to stderr and a details file to .perfbench/.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import math
import os
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

import inputs
import procs

WORKLOADS = ("sim_null_k27", "sim_mixture_k200", "cli_audit")
SETUP_PROBES = 15
IMPORT_PROBES = 5
MIN_PAIRS = 5
TAIL_PERCENTILE = 80
TAIL_BEYOND = 10
# Enough processes that the tail, with TAIL_BEYOND samples above it, is at
# or above the median even in a very short run.
MIN_SAMPLES = 2 * TAIL_BEYOND + 1
CLI_BLOCKS = 40
SIM_PROCESSES = 400
HISTOGRAM_REPLAYS = 4
REFERENCE_EVERY = 2
REFERENCE_MS = 200.0

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
FIXTURES = SRC / "metaaudit" / "fixtures"
OUT = ROOT / ".perfbench"


def block_size(workload: str) -> int:
    """Commands per repeat of the workload's mix; a window ends on a whole block."""
    return sum(count for _, count in inputs.CLI_BLOCK) if workload == "cli_audit" else 1


def make_commands(workload: str, seed: int, work: Path) -> list[inputs.Command]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli_audit":
        files = inputs.write_cli_inputs(rng, work / "in", FIXTURES)
        return inputs.cli_commands(rng, files, CLI_BLOCKS)
    return inputs.sim_commands(workload, rng, work / "in", SIM_PROCESSES)


def coverage_commands(workload: str, seed: int, work: Path) -> list[inputs.Command]:
    """A short batch of the other family, for layers the workload never calls."""
    rng = random.Random(f"coverage:{workload}:{seed}")
    if workload == "cli_audit":
        return inputs.sim_commands("sim_null_k27", rng, work / "cov", 1)
    files = inputs.write_cli_inputs(rng, work / "cov", FIXTURES)
    block = inputs.cli_commands(rng, files, 1)
    seen: dict[str, inputs.Command] = {}
    for command in block:
        seen.setdefault(command.kind, command)
    return list(seen.values())


def cli_args(command: inputs.Command, opdir: Path) -> list[str]:
    if command.kind in ("plot", "reproduce"):
        return [*command.args, "--outdir", str(opdir)]
    return list(command.args)


def check(command: inputs.Command, opdir: Path, expected: dict[str, int] | None = None) -> str | None:
    import checks

    stdout = (opdir / "stdout").read_text(encoding="utf-8")
    args = command.args
    try:
        if command.kind.startswith("convert"):
            return checks.check_convert(stdout, command.input, args[args.index("--method") + 1])
        if command.kind.startswith("pool"):
            return checks.check_pool(
                stdout, command.input, args[args.index("--model") + 1],
                float(args[args.index("--level") + 1]),
            )
        if command.kind == "count":
            return checks.check_count(stdout, command.input, float(args[args.index("--alpha") + 1]))
        if command.kind == "plot":
            return checks.check_plot(opdir, command.input, args[args.index("--method") + 1])
        if command.kind == "reproduce":
            return checks.check_reproduce(opdir, GOLDEN)
        trials = json.loads(command.input.read_text(encoding="utf-8"))["trials"]
        return checks.check_simulate(stdout, trials, expected)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"{command.kind}: unreadable output: {type(exc).__name__}: {exc}"


def tail(values: list[float]) -> tuple[float, float]:
    """The TAIL_PERCENTILE-th percentile (nearest rank), or the highest
    percentile with at least TAIL_BEYOND samples beyond it if that is lower.

    A fixed percentile keeps the tail steady when a run's sample count
    varies; the floor keeps at least TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    i = min(math.ceil(TAIL_PERCENTILE * n / 100) - 1, n - TAIL_BEYOND - 1)
    return ordered[i], 100.0 * (i + 1) / n


class Schedule:
    """Probe times spread evenly over the measured window."""

    def __init__(self, seconds: float, count: int) -> None:
        self.due = [seconds * (i + 0.5) / count for i in range(count)]

    def pop_due(self, elapsed: float) -> bool:
        if self.due and elapsed >= self.due[0]:
            self.due.pop(0)
            return True
        return False


# ---------------------------------------------------------------- untraced


def end_to_end(workload: str, seed: int, seconds: int, work: Path) -> tuple[dict, dict]:
    commands = make_commands(workload, seed, work)
    env = procs.program_env(SRC)
    main_argv = procs.python("-c", procs.CLI_MAIN)
    setup_argv = procs.python("-c", procs.IMPORT_CLI)
    reference_argv = procs.python("-c", procs.REFERENCE)
    scratch = work / "scratch"
    scratch.mkdir()
    # Untimed warm-up: bytecode caches and the page cache fill here.
    procs.spawn(setup_argv, env, scratch / "o", scratch / "e")
    procs.spawn(reference_argv, env, scratch / "o", scratch / "e")
    procs.spawn(main_argv + cli_args(commands[0], scratch), env, scratch / "o", scratch / "e")

    ops: list[tuple[inputs.Command, Path, procs.ProcResult]] = []
    setups: list[procs.ProcResult] = []
    references: list[procs.ProcResult] = []
    timeline: list[tuple[str, procs.ProcResult]] = []
    schedule = Schedule(seconds, SETUP_PROBES)
    block = block_size(workload)
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if schedule.pop_due(elapsed):
            setups.append(procs.spawn(setup_argv, env, scratch / "o", scratch / "e"))
            timeline.append(("setup", setups[-1]))
            continue
        if len(references) * REFERENCE_EVERY <= len(ops):
            references.append(procs.spawn(reference_argv, env, scratch / "o", scratch / "e"))
            timeline.append(("reference", references[-1]))
            continue
        if (elapsed >= seconds and len(ops) >= MIN_SAMPLES and not schedule.due
                and len(ops) % block == 0):
            break
        i = len(ops)
        command = commands[i % len(commands)]
        opdir = work / "ops" / f"{i:04d}"
        opdir.mkdir(parents=True)
        result = procs.spawn(
            main_argv + cli_args(command, opdir), env, opdir / "stdout", opdir / "stderr"
        )
        ops.append((command, opdir, result))
        timeline.append(("op", result))
    window = time.perf_counter() - start

    failures = [f"setup probe exited {r.exit_code}" for r in setups if r.exit_code != 0]
    failures += [f"reference task exited {r.exit_code}" for r in references if r.exit_code != 0]
    expected = {}
    if workload != "cli_audit":
        expected, replay_failures = replay_histograms(ops, work)
        failures += replay_failures
    for i, (command, opdir, result) in enumerate(ops):
        if result.exit_code != 0:
            failures.append(f"op {i} {command.args[0]} exited {result.exit_code}")
            continue
        error = check(command, opdir, expected.get(i))
        if error:
            failures.append(f"op {i}: {error}")

    # Every time is CPU time (user + sys, all threads) rescaled by the
    # reference task run beside it. It reads as the time on a host where the
    # reference takes REFERENCE_MS, whatever the neighbours were doing.
    scaled = normalise(timeline)
    cpus = scaled["op"]
    walls = [r.wall_s * 1e3 for _, _, r in ops]
    tail_ms, tail_pct = tail(cpus)
    metrics = {
        "setup_s": (statistics.median(scaled["setup"]) / 1e3, "s"),
        "norm_cpu_p50_ms": (statistics.median(cpus), "ms"),
        "norm_cpu_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (max(r.maxrss_kb for r in [*(r for _, _, r in ops), *setups]) / 1024, "MB"),
    }
    by_kind: dict[str, list[float]] = {}
    for (command, _, _), value in zip(ops, cpus):
        by_kind.setdefault(command.kind, []).append(value)
    details = {
        "window_s": window,
        "samples": {
            "setup_s": len(setups),
            "norm_cpu_p50_ms": len(cpus),
            "norm_cpu_tail_ms": len(cpus),
            "peak_rss_mb": len(cpus) + len(setups),
        },
        "tail_percentile": tail_pct,
        "reference_cpu_ms": statistics.median(r.cpu_s for r in references) * 1e3,
        "reference_samples": len(references),
        "raw": {
            "setup_cpu_s": statistics.median(r.cpu_s for r in setups),
            "setup_wall_s": statistics.median(r.wall_s for r in setups),
            "cpu_p50_ms": statistics.median(r.cpu_s for _, _, r in ops) * 1e3,
            "wall_p50_ms": statistics.median(walls),
            "wall_tail_ms": tail(walls)[0],
        },
        "kind_median_norm_cpu_ms": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
        "kind_samples": {k: len(v) for k, v in sorted(by_kind.items())},
        "histogram_replays": len(expected),
        "timeline": [[kind, round(r.cpu_s * 1e3, 2), round(r.wall_s * 1e3, 2)] for kind, r in timeline],
    }
    if workload in inputs.SIM_TRIALS:
        trials = inputs.SIM_TRIALS[workload]
        details["trials_per_process"] = trials
        details["trials_per_s"] = trials / (metrics["norm_cpu_p50_ms"][0] / 1e3)
    if "reproduce" in by_kind:
        details["reproduce_s"] = statistics.median(by_kind["reproduce"]) / 1e3
    attempted = len(ops) + len(setups)
    return (
        {"attempted": attempted, "failed": len(failures), "metrics": metrics},
        {**details, "failures": failures[:20]},
    )


def normalise(timeline: list[tuple[str, procs.ProcResult]]) -> dict[str, list[float]]:
    """CPU ms of every op and setup probe, rescaled by its local reference:
    the mean CPU time of the nearest reference task before and after it."""
    at = [i for i, (kind, _) in enumerate(timeline) if kind == "reference"]
    scaled: dict[str, list[float]] = {"op": [], "setup": []}
    for i, (kind, result) in enumerate(timeline):
        if kind == "reference":
            continue
        j = bisect.bisect(at, i)
        near = [timeline[at[n]][1].cpu_s for n in (j - 1, j) if 0 <= n < len(at)]
        scaled[kind].append(result.cpu_s * REFERENCE_MS / statistics.fmean(near))
    return scaled


def replay_histograms(ops: list, work: Path) -> tuple[dict[int, dict[str, int]], list[str]]:
    """Verdict histograms of a few simulate commands, from a traced in-process run."""
    import tracing

    cli = load_program()
    tracer = tracing.Tracer()
    last = len(ops) - 1
    picks = sorted({round(j * last / (HISTOGRAM_REPLAYS - 1)) for j in range(HISTOGRAM_REPLAYS)})
    expected, failures = {}, []
    for i in picks:
        command = ops[i][0]
        opdir = work / "replay" / f"{i:04d}"
        opdir.mkdir(parents=True)
        with tracer.recording(i):
            code, _ = run_inprocess(cli.main, command, opdir)
        error = f"exited {code}" if code else check(command, opdir, tracing.SpanTable(tracer).verdicts(i))
        if error:
            failures.append(f"traced in-process replay of op {i}: {error}")
        else:
            expected[i] = json.loads((opdir / "stdout").read_text(encoding="utf-8"))["verdict_counts"]
    return expected, failures


# ------------------------------------------------------------------ traced


def load_program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import metaaudit.cli

    return metaaudit.cli


def run_inprocess(main, command: inputs.Command, opdir: Path) -> tuple[int, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(cli_args(command, opdir))
    elapsed = time.perf_counter() - start
    (opdir / "stdout").write_text(out.getvalue(), encoding="utf-8")
    return code, elapsed


def import_probe(env: dict[str, str], scratch: Path) -> dict[str, float]:
    """One -X importtime import, one plain import and one bare interpreter."""
    timed = procs.spawn(
        procs.python("-X", "importtime", "-c", procs.IMPORT_CLI), env, scratch / "o", scratch / "e"
    )
    tree = parse_importtime((scratch / "e").read_text(encoding="utf-8"))
    plain = procs.spawn(procs.python("-c", procs.IMPORT_CLI), env, scratch / "o", scratch / "e")
    bare = procs.spawn(procs.python("-c", "pass"), env, scratch / "o", scratch / "e")
    return {
        **tree,
        "cpu_ms": (plain.cpu_s - bare.cpu_s) * 1e3,
        "ok": timed.exit_code == plain.exit_code == bare.exit_code == 0,
    }


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative import times of metaaudit.cli, of numpy, and of the largest
    other third-party or standard package that metaaudit.cli pulls in."""
    subtree: list[tuple[int, str, float]] = []
    cli_ms = math.nan
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        if depth == 0 and name == "metaaudit.cli":
            cli_ms = int(cumulative) / 1e3
            break
        if depth == 0:
            subtree = []
        else:
            subtree.append((depth, name, int(cumulative) / 1e3))
    packages: dict[str, float] = {}
    for _, name, ms in subtree:
        top = name.split(".")[0]
        if top != "metaaudit":
            packages[top] = max(packages.get(top, 0.0), ms)
    numpy_ms = packages.pop("numpy", math.nan)
    other = max(packages.items(), key=lambda kv: kv[1], default=("", 0.0))
    return {"import_ms": cli_ms, "numpy_ms": numpy_ms, "next_package": other[0], "next_ms": other[1]}


def traced(workload: str, seed: int, seconds: int, work: Path) -> tuple[dict, dict]:
    import tracing

    commands = make_commands(workload, seed, work)
    env = procs.program_env(SRC)
    scratch = work / "scratch"
    scratch.mkdir()
    cli = load_program()
    # Untimed warm-up of the in-process path, traced and not.
    warm_tracer = tracing.Tracer()
    for mode in (0, 1):
        warm = scratch / f"warm{mode}"
        warm.mkdir()
        if mode:
            warm_tracer.enable()
        run_inprocess(cli.main, commands[0], warm)
        warm_tracer.disable()
    tracer = tracing.Tracer()
    traced_main = tracer.wrap("cli.command", cli.main)

    def run_op(command: inputs.Command, opdir: Path, span_command: int | None) -> float:
        """Run one command in-process, with spans unless span_command is None."""
        opdir.mkdir(parents=True)
        if span_command is None:
            code, elapsed = run_inprocess(cli.main, command, opdir)
        else:
            with tracer.recording(span_command):
                code, elapsed = run_inprocess(traced_main, command, opdir)
        outputs.append((span_command, command, opdir, code))
        return elapsed

    probes = []
    outputs: list[tuple[int | None, inputs.Command, Path, int]] = []
    ratios = []
    schedule = Schedule(seconds, IMPORT_PROBES)
    start = time.perf_counter()
    j = 0
    while True:
        elapsed = time.perf_counter() - start
        if schedule.pop_due(elapsed):
            probes.append(import_probe(env, scratch))
            continue
        if elapsed >= seconds and j >= MIN_PAIRS and not schedule.due:
            break
        command = commands[j % len(commands)]
        ops = work / "ops" / f"{j:04d}"
        # Alternate which side of the pair runs first.
        if j % 2:
            with_spans = run_op(command, ops / "traced", j)
            without = run_op(command, ops / "untraced", None)
        else:
            without = run_op(command, ops / "untraced", None)
            with_spans = run_op(command, ops / "traced", j)
        ratios.append(with_spans / without)
        j += 1
    window = time.perf_counter() - start

    for m, command in enumerate(coverage_commands(workload, seed, work)):
        run_op(command, work / "coverage" / f"{m:04d}", tracing.COVERAGE_BASE + m)

    table = tracing.SpanTable(tracer)
    failures = [f"import probe {i} failed" for i, p in enumerate(probes) if not p["ok"]]
    for span_command, command, opdir, code in outputs:
        where = opdir.relative_to(work)
        if code != 0:
            failures.append(f"{where}: {command.args[0]} exited {code}")
            continue
        traced_sim = command.kind == "simulate" and span_command is not None
        error = check(command, opdir, table.verdicts(span_command) if traced_sim else None)
        if not error and command.kind == "simulate" and opdir.name == "traced":
            twin = json.loads((opdir.parent / "untraced" / "stdout").read_text(encoding="utf-8"))
            if json.loads((opdir / "stdout").read_text(encoding="utf-8")) != twin:
                error = "traced and untraced reports differ"
        if error:
            failures.append(f"{where}: {error}")

    metrics = tracing.layer_metrics(table)
    metrics["cli.import_ms"] = statistics.median(p["import_ms"] for p in probes)
    metrics["cli.import_numpy_ms"] = statistics.median(p["numpy_ms"] for p in probes)
    metrics["cli.import_cpu_ms"] = statistics.median(p["cpu_ms"] for p in probes)
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    # A layer that no command reached is reported as 0 and named in the
    # details; it is not a failed operation.
    unmeasured = sorted(k for k, v in metrics.items() if not math.isfinite(v))
    metrics = {k: (v if math.isfinite(v) else 0.0) for k, v in metrics.items()}
    tracer.write(OUT / f"trace-{workload}.csv.gz")

    shares = tracing.shares(table)
    next_pkg = max(probes, key=lambda p: p["next_ms"])
    details = {
        "window_s": window,
        "pairs": j,
        "spans": len(tracer.name),
        "import_probes": len(probes),
        "shares": shares,
        "unmeasured": unmeasured,
        "import_next_package": [next_pkg["next_package"], statistics.median(p["next_ms"] for p in probes)],
        "failures": failures[:20],
    }
    result = {
        "attempted": len(outputs) + len(probes),
        "failed": len(failures),
        "metrics": {k: (v, PER_LAYER_UNITS[k]) for k, v in metrics.items()},
    }
    return result, details


PER_LAYER_UNITS = {
    "cli.import_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.import_cpu_ms": "ms",
    "simulate.trial_us": "us",
    "simulate.trial_self_us": "us",
    "simulate.run_us_per_trial": "us",
    "simulate.ks_calls_per_trial": "count",
    "normal.quantile_ns": "ns",
    "normal.cdf_ns": "ns",
    "normal.calls_per_trial": "count",
    "pvplot.classify_us": "us",
    "pvplot.classify_self_us": "us",
    "pvplot.ks_us": "us",
    "pvplot.fit_used_ratio": "ratio",
    "pvplot.build_plot_us": "us",
    "pvplot.render_svg_us": "us",
    "pvplot.svg_bytes": "bytes",
    "effects.p_from_effect_us": "us",
    "ingest.effects_us_per_row": "us",
    "ingest.counts_us_per_row": "us",
    "pooling.fixed_us": "us",
    "pooling.dl_us": "us",
    "search_space.summarize_us": "us",
    "report.canonical_json_us": "us",
    "report.json_bytes": "bytes",
    "reproduce.run_ms": "ms",
    "reproduce.ingest_effects_calls": "count",
    "trace.overhead_ratio": "ratio",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # One thread per pool here and in every child (see procs.ONE_THREAD).
    os.environ.update((name, "1") for name in procs.ONE_THREAD)
    if not (SRC / "metaaudit" / "cli.py").is_file() or not any(GOLDEN.glob("*.svg")):
        print(f"perfbench: no metaaudit sources under {ROOT}", file=sys.stderr)
        return 2

    work = OUT / f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = traced if args.trace else end_to_end
        result, details = run(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    details.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   seconds=args.seconds, result=result)
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    (OUT / "details").mkdir(parents=True, exist_ok=True)
    (OUT / "details" / name).write_text(
        json.dumps(details, indent=2, sort_keys=True, default=str) + "\n", encoding="utf-8"
    )
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} attempted, {result['failed']} failed", file=sys.stderr)
    samples = details.get("samples", {})
    for key, (value, unit) in result["metrics"].items():
        count = samples.get(key, "")
        print(f"  {key:32s} {value:14.6g} {unit:6s} {count}", file=sys.stderr)
    for failure in details["failures"]:
        print(f"  FAIL {failure}", file=sys.stderr)
    for name in details.get("unmeasured", []):
        print(f"  no samples for {name}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
