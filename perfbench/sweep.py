"""Run the benchmark over several seeds and workloads and summarise it.

    python3 perfbench/sweep.py --seeds 1-10                  # end-to-end table
    python3 perfbench/sweep.py --seeds 1-3 --trace 1         # per-layer table
    python3 perfbench/sweep.py --seeds 1-10 --save out.json  # keep the numbers

Workloads are interleaved: every seed runs each workload once before the
next seed starts. For every metric and workload the table gives the median
over runs, the quartiles, the spread (q3 - q1) / median beside the metric's
bound, and the samples each run took. With --trace 1 it also checks the
predictions that can be read off the trace (see predictions.json).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"


def seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_one(bench: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, *bench["command"][1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    details = json.loads(
        (OUT / "details" / f"{workload}-s{seed}-t{trace}.json").read_text(encoding="utf-8")
    )
    return {"seed": seed, "result": result, "details": details}


def summarise(bench: dict, runs: dict[str, list[dict]], trace: int) -> dict:
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    for workload, items in runs.items():
        names = items[0]["result"]["metrics"]
        rows = {}
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in items]
            q1, q2, q3 = quartiles(values)
            samples = [r["details"].get("samples", {}).get(name) for r in items]
            samples = [s for s in samples if s is not None]
            rows[name] = {
                "unit": items[0]["result"]["metrics"][name]["unit"],
                "median": q2,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / q2 if q2 else float("nan"),
                "bound": bounds.get(name) if not trace else None,
                "runs": len(values),
                "samples_per_run": statistics.median(samples) if samples else None,
            }
        extras = {}
        for key in ("trials_per_s", "reproduce_s", "tail_percentile", "reference_cpu_ms"):
            values = [r["details"][key] for r in items if key in r["details"]]
            if values:
                extras[key] = statistics.median(values)
        summary[workload] = {
            "metrics": rows,
            "derived": extras,
            "attempted": sum(r["result"]["attempted"] for r in items),
            "failed": sum(r["result"]["failed"] for r in items),
            "seeds": [r["seed"] for r in items],
        }
    return summary


def check_predictions(runs: dict[str, list[dict]]) -> list[dict]:
    """The acceptance predictions that a traced run can confirm or refute."""

    def median(workload: str, metric: str) -> float | None:
        items = runs.get(workload)
        if not items:
            return None
        return statistics.median(r["result"]["metrics"][metric]["value"] for r in items)

    def share(workload: str, key: str) -> float | None:
        items = runs.get(workload)
        if not items:
            return None
        return statistics.median(r["details"]["shares"][key] for r in items)

    def numpy_largest(workload: str) -> bool | None:
        items = runs.get(workload)
        if not items:
            return None
        numpy_ms = median(workload, "cli.import_numpy_ms")
        return all(numpy_ms > r["details"]["import_next_package"][1] for r in items)

    checks = []
    for workload in runs:
        checks += [
            ("ks_calls_per_trial == 2", workload, median(workload, "simulate.ks_calls_per_trial"),
             lambda v: v == 2),
            ("ingest_effects_calls == 7", workload, median(workload, "reproduce.ingest_effects_calls"),
             lambda v: v == 7),
            ("numpy is the largest package in cli.import_ms", workload, numpy_largest(workload),
             lambda v: v is True),
        ]
    checks += [
        ("fit_used_ratio about 0.1", "sim_null_k27",
         median("sim_null_k27", "pvplot.fit_used_ratio"), lambda v: 0.03 <= v <= 0.2),
        ("fit_used_ratio >= 0.9", "sim_mixture_k200",
         median("sim_mixture_k200", "pvplot.fit_used_ratio"), lambda v: v >= 0.9),
        ("classify self time >= 75% of a trial", "sim_mixture_k200",
         share("sim_mixture_k200", "classify_self_of_trial"), lambda v: v >= 0.75),
    ]
    return [
        {"prediction": name, "workload": workload, "measured": value,
         "holds": None if value is None else bool(test(value))}
        for name, workload, value, test in checks
        if value is not None
    ]


def print_table(summary: dict) -> None:
    print(f"{'workload':18s} {'metric':32s} {'unit':6s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s} {'runs':>4s} {'samples':>7s}")
    for workload, block in summary.items():
        for name, row in block["metrics"].items():
            bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
            samples = "" if row["samples_per_run"] is None else f"{row['samples_per_run']:g}"
            print(f"{workload:18s} {name:32s} {row['unit']:6s} {row['median']:12.6g} "
                  f"{row['q1']:12.6g} {row['q3']:12.6g} {row['spread']:7.3f} {bound:>6s} "
                  f"{row['runs']:4d} {samples:>7s}")
        for key, value in block["derived"].items():
            print(f"{workload:18s} {'(' + key + ')':32s} {'':6s} {value:12.6g}")
        print(f"{workload:18s} {'(fail_frac)':32s} {'ratio':6s} "
              f"{block['failed'] / block['attempted']:12.6g}   {block['failed']} failed of "
              f"{block['attempted']} attempted")


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    all_workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(all_workloads))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="write the summary as JSON here")
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in args.seeds:
        for workload in workloads:
            run = run_one(bench, workload, seed, args.seconds, args.trace)
            runs[workload].append(run)
            metrics = run["result"]["metrics"]
            brief = ", ".join(f"{k}={v['value']:.4g}" for k, v in list(metrics.items())[:4])
            print(f"seed {seed} {workload}: {brief}", file=sys.stderr, flush=True)
    summary = summarise(bench, runs, args.trace)
    print_table(summary)
    document = {"seconds": args.seconds, "trace": args.trace, "environment": environment(),
                "workloads": summary}
    if args.trace:
        document["predictions"] = check_predictions(runs)
        for p in document["predictions"]:
            print(f"prediction [{p['workload']}] {p['prediction']}: measured {p['measured']}, "
                  f"{'holds' if p['holds'] else 'DOES NOT HOLD'}")
    if args.save:
        args.save.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    failed = sum(block["failed"] for block in summary.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
