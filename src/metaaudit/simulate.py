"""Seeded Monte Carlo study sets for calibrating the plot classifier.

Each trial draws k synthetic studies, converts them to two-sided p-values
and classifies them as their p-value plot, from the sorted p-values alone.
Three scenarios are supported:

* NULL: every study's true log odds ratio is 0.
* FIXED_EFFECT: every study's true log odds ratio is log_or (log_or = 0 is
  bit-identical to NULL by construction).
* MIXTURE: each study independently carries log_or with probability
  effect_fraction, otherwise 0.

Determinism contract: trial t of a run seeded with s uses the PCG64 stream
seeded by SeedSequence([s, t]), so trials are independent of each other and
of how many trials run. Per study the draw order is fixed: (1) a uniform
for the standard error, (2) for MIXTURE only, a uniform for the effect
indicator, (3) a 53-bit uniform u in (0, 1). Step 3 splits by the study's
true log odds ratio:

* a null study (true log OR 0) takes p = 2 min(u, 1 - u), the exact
  two-sided p-value of z = Phi^-1(u), without evaluating the quantile or
  the CDF. u is m / 2^53 for an integer m, so 1 - u and the doubling are
  exact and p lies in [2^-52, 1]. Its standard-error output is unused,
  so the LCG steps past it without forming it (pcg64.skip_open_uniforms
  when no study can carry an effect, pcg64.study_draws in a MIXTURE), and
  every other draw keeps its place;
* an effect study maps u through the package's own normal quantile to
  the z draw and takes the two-sided p-value of (log_or + se * z) / se.

Every study makes the same draws in the same order whichever branch it
takes, so the stream does not depend on the split. Reports are therefore
reproducible bit for bit from (config, seed).

The stream is numpy's PCG64/SeedSequence algorithm implemented locally
(metaaudit.pcg64): the uniforms are Generator.random() and u is
Generator.integers(1, 2**53) / 2**53, bit for bit. numpy is the test
oracle for the stream and the draws, not a dependency.
"""

from __future__ import annotations

import math
from enum import Enum
from pathlib import Path
from typing import Any, NamedTuple

from .errors import CheckedRecord, ConfigError, check_finite, check_integer
from .pcg64 import skip_open_uniforms, study_draws
from .pvplot import MAX_FIT_POINTS, PlotConfig, PlotVerdict, RankedPValues, classify_plot

# The significance level at which every trial's p-values are read.
_ALPHA = 0.05


class Scenario(Enum):
    NULL = "null"
    FIXED_EFFECT = "fixed_effect"
    MIXTURE = "mixture"


class _SimulationConfig(NamedTuple):
    scenario: Scenario
    k: int
    trials: int
    seed: int
    se_range: tuple[float, float] = (0.1, 0.3)
    log_or: float = 0.0
    effect_fraction: float = 1.0


class SimulationConfig(CheckedRecord, _SimulationConfig):
    """Parameters of one simulation run; the fields are the JSON config keys.

    se_range is the (low, high) range of the uniform draw of per-study
    standard errors. log_or is ignored for NULL; effect_fraction is used
    only by MIXTURE. Numbers are stored as floats, so the config reads the
    same in a report whether it was given ints or floats.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SimulationConfig:
        self = super().__new__(cls, *args, **kwargs)
        if not isinstance(self.scenario, Scenario):
            raise ConfigError(f"scenario must be a Scenario, got {self.scenario!r}")
        check_integer("k", self.k, 1, ConfigError, MAX_FIT_POINTS)
        check_integer("trials", self.trials, 1, ConfigError)
        check_integer("seed", self.seed, 0, ConfigError)
        if not isinstance(self.se_range, (list, tuple)) or len(self.se_range) != 2:
            raise ConfigError(f"se_range must be a (low, high) pair, got {self.se_range!r}")
        numbers = [("se_range", value) for value in self.se_range]
        numbers += [("log_or", self.log_or), ("effect_fraction", self.effect_fraction)]
        low, high, log_or, effect_fraction = [check_finite(*pair, ConfigError) for pair in numbers]
        if not 0.0 < low <= high:
            raise ConfigError(f"se_range needs 0 < low <= high, got ({low!r}, {high!r})")
        if not 0.0 <= effect_fraction <= 1.0:
            raise ConfigError(f"effect_fraction must be inside [0, 1], got {effect_fraction!r}")
        # A 53-bit open uniform maps to |z| <= 8.21 < 9, so every draw's
        # estimate / se is bounded by (|log_or| + 9 high) / low.
        if not math.isfinite(9.0 * high / low):
            raise ConfigError(f"se_range ({low!r}, {high!r}) makes the z draws overflow")
        shift = 0.0 if self.scenario is Scenario.NULL else abs(log_or)
        if not math.isfinite((shift + 9.0 * high) / low):
            raise ConfigError(f"log_or {log_or!r} makes the z draws overflow")
        return super().__new__(cls, *self[:4], (low, high), log_or, effect_fraction)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object from its pairs; a key given twice is a ConfigError."""
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"duplicate config key: {key}")
        obj[key] = value
    return obj


def load_config(path: str | Path) -> SimulationConfig:
    """The UTF-8 JSON config at path, BOM or not; its keys are SimulationConfig's fields."""
    import json  # Only this reader parses JSON; report imports it to write.

    fields = SimulationConfig._fields
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8-sig"),
                         object_pairs_hook=_unique_keys)
        if not isinstance(raw, dict):
            raise ConfigError("simulation config must be a JSON object")
        unknown = sorted(set(raw) - set(fields))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        missing = sorted(set(fields) - set(SimulationConfig._field_defaults) - set(raw))
        if missing:
            raise ConfigError(f"missing config keys: {', '.join(missing)}")
        try:
            raw["scenario"] = Scenario(raw["scenario"])
        except ValueError:
            valid = ", ".join(s.value for s in Scenario)
            raise ConfigError(f"scenario must be one of: {valid}") from None
        return SimulationConfig(**raw)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror}") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


class SimulationReport(NamedTuple):
    """Aggregated classification results of a simulation run."""

    config: SimulationConfig
    verdict_counts: dict[str, int]
    mean_fraction_below_alpha: float
    mean_ks_statistic: float
    mean_ks_p: float
    fraction_ks_pass: float


def simulate_trial(config: SimulationConfig, trial_index: int) -> tuple[float, ...]:
    """P-values of one trial's k synthetic studies.

    The trial's RNG stream depends only on (config.seed, trial_index), so
    a trial's output is the same whether or not other trials ran.
    """
    check_integer("trial_index", trial_index, 0, ConfigError)
    entropy = [config.seed, trial_index]
    log_or = 0.0 if config.scenario is Scenario.NULL else config.log_or
    fraction = None
    if config.scenario is Scenario.MIXTURE:
        # With log_or 0 no study has an effect, so none forms its se output.
        fraction = config.effect_fraction if log_or else 0.0
    elif log_or == 0.0:
        us = skip_open_uniforms(entropy, config.k)
        return tuple([2.0 * (u if u < 0.5 else 1.0 - u) for u in us])
    # Only a trial whose scenario can carry an effect gets here, so a run
    # whose studies are all null never executes normal.
    from . import normal
    low, high = config.se_range
    ps = []
    for se_u, u in zip(*study_draws(entropy, config.k, fraction)):
        if se_u is None:
            ps.append(2.0 * (u if u < 0.5 else 1.0 - u))
        else:
            se = low + (high - low) * se_u
            z = normal.std_normal_quantile(u)
            ps.append(normal.two_sided_p((log_or + se * z) / se))
    return tuple(ps)


def run_simulation(config: SimulationConfig) -> SimulationReport:
    """Run all trials, classify each trial's p-values and aggregate.

    Each trial's p-values are classified as a RankedPValues at _ALPHA,
    with no labelled plot, up to the deciding rule: only a trial that
    reaches the BILINEAR rule is fitted. The verdict histogram always sums
    to config.trials. KS aggregates are the per-trial mean statistic, mean
    asymptotic p and the fraction of trials whose KS p clears the uniform
    threshold, all read from the classifier's trace.
    """
    plot_config = PlotConfig()
    counts: dict[str, int] = {v.value: 0 for v in PlotVerdict}
    fractions, statistics, ks_ps, ks_passes = [], [], [], []
    for trial in range(config.trials):
        ranked = RankedPValues(simulate_trial(config, trial), _ALPHA)
        verdict, trace = classify_plot(ranked, plot_config, every_rule=False)
        counts[verdict.value] += 1
        # checks[1] is effect_majority and checks[2] uniform_ks.
        fractions.append(trace.checks[1].statistic)
        statistics.append(trace.ks_statistic)
        ks_ps.append(trace.checks[2].statistic)
        ks_passes.append(trace.checks[2].holds)
    n = config.trials
    return SimulationReport(
        config=config,
        verdict_counts=counts,
        mean_fraction_below_alpha=math.fsum(fractions) / n,
        mean_ks_statistic=math.fsum(statistics) / n,
        mean_ks_p=math.fsum(ks_ps) / n,
        fraction_ks_pass=sum(ks_passes) / n,
    )
