"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed: the same seed
writes the same files and the same command list. The program under test
only ever sees the files written here plus its own bundled fixtures.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

SIM_CONFIGS = {
    # The paper's wheeze-table size and the calibration gate's k.
    "sim_null_k27": {"scenario": "null", "k": 27, "se_range": [0.1, 0.3]},
    # Large k with a real effect in 30% of studies: every trial reaches the
    # two-segment rule.
    "sim_mixture_k200": {
        "scenario": "mixture",
        "k": 200,
        "log_or": 0.5,
        "effect_fraction": 0.3,
    },
}
# Trials per simulate process, sized so one process takes a few tenths of a
# second on a 2-core host and a run collects dozens of samples.
SIM_TRIALS = {"sim_null_k27": 200, "sim_mixture_k200": 10}

# One block of the cli_audit mix. Each block holds every command kind in
# these counts, shuffled, so every run sees the same composition whatever
# its seed; only the order and the generated inputs change.
CLI_BLOCK = (
    ("convert_natural", 2),
    ("convert_log", 2),
    ("pool_fixed", 2),
    ("pool_dl", 2),
    ("plot", 2),
    ("count", 2),
    ("reproduce", 1),
)
EFFECT_TABLE_SIZES = (10, 20, 30, 40, 50, 60)
LEDGER_SIZES = (8, 16, 30)
BUNDLED_EFFECTS = ("asthma_effects.csv", "wheeze_effects.csv", "region_pair.csv")
BUNDLED_COUNTS = ("hypothesis_counts.csv", "lungfunction_blocks.csv")
REGIONS = ("North America", "Europe", "Asia", "Oceania", "international")
_Z = {0.90: 1.6448536269514722, 0.95: 1.959963984540054}


@dataclass(frozen=True)
class Command:
    """One program invocation: its kind, CLI arguments and input file."""

    kind: str
    args: tuple[str, ...]
    input: Path | None


def _effect_rows(rng: random.Random, k: int) -> list[list[str]]:
    rows = []
    outside = set(rng.sample(range(k), 2))
    for i in range(k):
        level = 0.90 if rng.random() < 0.25 else 0.95
        q = _Z[level]
        log_or = max(-0.9, min(0.9, rng.gauss(0.1, 0.3)))
        se = rng.uniform(0.1, 0.5)
        odds = math.exp(log_or)
        if rng.random() < 0.5:
            low, high = math.exp(log_or - q * se), math.exp(log_or + q * se)
        else:
            # Symmetric on the natural scale, kept above zero.
            half = min(q * odds * se, 0.9 * odds)
            low, high = odds - half, odds + half
        odds, low, high = round(odds, 2), round(low, 2), round(high, 2)
        low = max(low, 0.01)
        odds = max(odds, 0.01)
        if high <= low:
            high = round(low + 0.02, 2)
        if i in outside:
            odds = round(high + 0.05, 2)
        subgroup = rng.choice(("", "", "", "boys", "girls"))
        level_cell = "" if level == 0.95 and rng.random() < 0.5 else f"{level:.2f}"
        rows.append(
            [f"Study {i + 1:03d}", subgroup, f"{odds:.2f}", f"{low:.2f}", f"{high:.2f}", level_cell]
        )
    return rows


def _ledger_rows(rng: random.Random, papers: int) -> list[list[str]]:
    rows = []
    for j in range(papers):
        label = f"Paper {j + 1:03d}"
        region = rng.choice(REGIONS)
        for b in range(rng.randint(1, 3)):
            rows.append(
                [
                    label,
                    region,
                    f"block {b + 1}",
                    str(rng.randint(1, 30)),
                    str(rng.randint(1, 20)),
                    str(rng.randint(0, 20)),
                ]
            )
    # Move a few rows out of their paper's run so grouping is exercised.
    for _ in range(min(3, len(rows) // 4)):
        rows.append(rows.pop(rng.randrange(len(rows))))
    return rows


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_cli_inputs(rng: random.Random, indir: Path, fixtures: Path) -> dict[str, list[Path]]:
    """Write the generated effect tables and ledgers; list every input."""
    indir.mkdir(parents=True, exist_ok=True)
    effects = [fixtures / name for name in BUNDLED_EFFECTS]
    for k in EFFECT_TABLE_SIZES:
        path = indir / f"effects_k{k}.csv"
        _write_csv(
            path,
            ["study_label", "subgroup_label", "odds_ratio", "ci_low", "ci_high", "ci_level"],
            _effect_rows(rng, k),
        )
        effects.append(path)
    counts = [fixtures / name for name in BUNDLED_COUNTS]
    for papers in LEDGER_SIZES:
        path = indir / f"ledger_p{papers}.csv"
        _write_csv(
            path,
            ["paper_label", "region", "block_label", "outcomes", "predictors", "covariates"],
            _ledger_rows(rng, papers),
        )
        counts.append(path)
    return {"effects": effects, "counts": counts}


def cli_commands(rng: random.Random, inputs: dict[str, list[Path]], blocks: int) -> list[Command]:
    """The seeded cli_audit mix: `blocks` shuffled copies of CLI_BLOCK."""
    commands = []
    for _ in range(blocks):
        kinds = [kind for kind, count in CLI_BLOCK for _ in range(count)]
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "reproduce":
                commands.append(Command(kind, ("reproduce",), None))
                continue
            if kind == "count":
                path = rng.choice(inputs["counts"])
                alpha = rng.choice(("0.05", "0.01"))
                commands.append(Command(kind, ("count", str(path), "--alpha", alpha), path))
                continue
            path = rng.choice(inputs["effects"])
            if kind.startswith("convert"):
                method = kind.split("_")[1]
                commands.append(
                    Command(kind, ("convert", str(path), "--method", method), path)
                )
            elif kind.startswith("pool"):
                model = kind.split("_")[1]
                level = rng.choice(("0.95", "0.9"))
                commands.append(
                    Command(kind, ("pool", str(path), "--model", model, "--level", level), path)
                )
            else:
                method = rng.choice(("natural", "log"))
                commands.append(
                    Command(kind, ("plot", str(path), "--method", method), path)
                )
    return commands


def sim_commands(workload: str, rng: random.Random, indir: Path, count: int) -> list[Command]:
    """`count` simulate invocations of one workload, each with its own seed."""
    indir.mkdir(parents=True, exist_ok=True)
    commands = []
    for i in range(count):
        config = dict(SIM_CONFIGS[workload])
        config["trials"] = SIM_TRIALS[workload]
        config["seed"] = rng.randrange(1 << 31)
        path = indir / f"sim_{i:04d}.json"
        path.write_text(json.dumps(config, sort_keys=True) + "\n", encoding="utf-8")
        commands.append(Command("simulate", ("simulate", "--config", str(path)), path))
    return commands
