"""Seeded Monte Carlo simulation: determinism, distribution, calibration.

Distributional checks run on fixed seeds, so every assertion is
deterministic; the thresholds were chosen with generous margins over the
measured values.
"""

import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.stats

import metaaudit
from metaaudit import ConfigError, PlotVerdict, normal, pvplot, simulate
from metaaudit.pvplot import PlotConfig, RankedPValues, classify_plot
from metaaudit.report import canonical_json
from metaaudit.simulate import (
    Scenario,
    SimulationConfig,
    load_config,
    run_simulation,
    simulate_trial,
)


def _null(k=27, trials=10, seed=2027, **kwargs):
    return SimulationConfig(
        scenario=Scenario.NULL, k=k, trials=trials, seed=seed, **kwargs
    )


def test_zero_effect_is_bit_identical_to_null():
    # FIXED_EFFECT consumes the same draw sequence as NULL, so log_or = 0
    # must reproduce the null stream bit for bit.
    null = _null(trials=20)
    zero = SimulationConfig(
        scenario=Scenario.FIXED_EFFECT, k=27, trials=20, seed=2027, log_or=0.0
    )
    for trial in range(20):
        assert simulate_trial(null, trial) == simulate_trial(zero, trial)


def test_trials_are_independent_of_run_length():
    short = _null(trials=10)
    long = _null(trials=1000)
    for trial in (0, 3, 9):
        assert simulate_trial(short, trial) == simulate_trial(long, trial)


def test_reruns_are_identical():
    config = _null(trials=30)
    assert run_simulation(config) == run_simulation(config)


def test_first_trial_frozen():
    # Pins the draw-order contract on top of the PCG64 stream, bit for bit.
    config = _null(k=5, trials=1, seed=1)
    expected = (
        0.0990726073481294,
        0.10270110572551205,
        0.8466528979451513,
        0.8183982727383226,
        0.055118226486136956,
    )
    got = simulate_trial(config, 0)
    assert got == expected
    # Every study is null, so its p is exactly 2 min(u, 1 - u) of its open
    # uniform u = m / 2^53, drawn after the SE uniform.
    ms = (8561015897205333, 8544674593265038, 3812985675697934, 3685738156144967, 248230424264289)
    assert got == tuple(2.0 * min(u, 1.0 - u) for u in (m / 2**53 for m in ms))


def test_null_studies_skip_the_normal_quantile_and_cdf(monkeypatch):
    def forbidden(value):
        raise AssertionError(f"normal function called on {value!r}")

    # simulate reads both from the normal module at each call, as
    # perfbench's tracer and mock.patch see them.
    monkeypatch.setattr(normal, "std_normal_quantile", forbidden)
    monkeypatch.setattr(normal, "two_sided_p", forbidden)
    zero = SimulationConfig(
        scenario=Scenario.FIXED_EFFECT, k=27, trials=3, seed=2027, log_or=0.0
    )
    for config in (_null(trials=3), zero):
        assert sum(run_simulation(config).verdict_counts.values()) == 3
    effect = SimulationConfig(
        scenario=Scenario.FIXED_EFFECT, k=27, trials=1, seed=2027, log_or=0.5
    )
    with pytest.raises(AssertionError, match="normal function called"):
        simulate_trial(effect, 0)


@pytest.mark.parametrize(
    "config, sha256",
    [
        (
            _null(k=27, trials=100, seed=2027),
            "6f7fe7b740d8eb62eb8e9e3e42b4f0510149930b811d1022d044fba2e3b1946d",
        ),
        (
            SimulationConfig(
                scenario=Scenario.MIXTURE, k=200, trials=10, seed=2027,
                log_or=0.5, effect_fraction=0.3,
            ),
            "aad47ef7421e114df87dc293e69a1dc2800d5bf5f235d2cb08e9bfc1b930e83a",
        ),
        (
            SimulationConfig(
                scenario=Scenario.FIXED_EFFECT, k=13, trials=100, seed=2027, log_or=0.5
            ),
            "03b5bae04874b4b59b7670c7d3e68ce1623af2e551dcd543277b97c11369d168",
        ),
        (
            # Null studies inside a mixture take the generic draw path.
            SimulationConfig(
                scenario=Scenario.MIXTURE, k=27, trials=100, seed=404,
                log_or=0.5, effect_fraction=0.3,
            ),
            "d0e0e68d396c6c626ab6c47f47c9ae91e80b7b2adbbc9e6154ec1d6d58b7881e",
        ),
        (
            _null(k=13, trials=100, seed=2027),
            "9ada6779fe5d450269a40fd08a056beb2190ef8862820f219d0ad73d38e9d4ba",
        ),
        (
            # At least min_points, below 2 * bilinear_min_segment: no fit runs.
            _null(k=5, trials=100, seed=2027),
            "7da485fedc0352421c638b7c1bf1bcf9104e00477559a0026f02f3612f25dbd4",
        ),
    ],
    ids=["null_k27", "mixture_k200", "fixed_effect_k13", "mixture_k27", "null_k13", "null_k5"],
)
def test_trial_bits_pinned(config, sha256):
    # The report pins keep 6 significant digits; this one hashes the repr
    # of every trial's p-values and, in the format of the record the trace
    # replaced, its every-rule trace's KS figures, changepoint and slopes,
    # so a change in the last bit of any draw, KS figure or fitted slope
    # fails it.
    plot_config = PlotConfig()
    digest = hashlib.sha256()
    for trial in range(config.trials):
        ps = simulate_trial(config, trial)
        ranked = RankedPValues(ps, 0.05)
        verdict, trace = classify_plot(ranked, plot_config)
        fraction, ks_p = trace.checks[1].statistic, trace.checks[2].statistic
        digest.update(repr(ps).encode("utf-8"))
        digest.update(
            f"PlotDiagnostics(ks_statistic={trace.ks_statistic!r}, ks_p={ks_p!r}, "
            f"fraction_below_alpha={fraction!r}, changepoint_index={trace.changepoint_index!r}, "
            f"segment_slopes={trace.segment_slopes!r})".encode("utf-8")
        )
        # run_simulation classifies only up to the deciding rule.
        assert classify_plot(ranked, plot_config, every_rule=False).verdict is verdict
    assert digest.hexdigest() == sha256


@pytest.mark.parametrize(
    "config",
    [
        _null(k=27, trials=12),
        SimulationConfig(
            scenario=Scenario.MIXTURE, k=200, trials=3, seed=2027,
            log_or=0.5, effect_fraction=0.3,
        ),
    ],
    ids=["null_k27", "mixture_k200"],
)
def test_each_trial_is_classified_once_through_the_module_names(monkeypatch, config):
    # perfbench/tracing.py wraps classify_plot and simulate_trial where
    # simulate refers to them: it counts simulate's verdicts from one
    # classify_plot call per trial, reads .n of its first argument, the
    # config as its second positional argument or classify_plot's config
    # default, and takes the trial index from simulate_trial's second
    # positional argument.
    def forbidden(*args, **kwargs):
        raise AssertionError("run_simulation built a labelled plot")

    classified, drawn = [], []

    def classify(plot, *args, **kwargs):
        result = pvplot.classify_plot(plot, *args, **kwargs)
        classified.append((plot.n, result.verdict.value))
        assert (args, kwargs) == ((PlotConfig(),), {"every_rule": False})
        return result

    def trial(*args, **kwargs):
        drawn.append((args, kwargs))
        return simulate_trial(*args, **kwargs)

    monkeypatch.setattr(pvplot, "build_plot", forbidden)
    monkeypatch.setattr(simulate, "build_plot", forbidden, raising=False)
    monkeypatch.setattr(simulate, "classify_plot", classify)
    monkeypatch.setattr(simulate, "simulate_trial", trial)
    report = run_simulation(config)
    assert [n for n, _ in classified] == [config.k] * config.trials
    assert drawn == [((config, t), {}) for t in range(config.trials)]
    verdicts = [verdict for _, verdict in classified]
    assert report.verdict_counts == {v.value: verdicts.count(v.value) for v in PlotVerdict}
    parameters = inspect.signature(pvplot.classify_plot).parameters
    assert parameters["config"].default == PlotConfig()
    assert parameters["every_rule"].kind is inspect.Parameter.KEYWORD_ONLY


@pytest.mark.parametrize(
    "config, verdict_counts, sha256",
    [
        (
            SimulationConfig(
                scenario=Scenario.MIXTURE, k=200, trials=30, seed=2027,
                log_or=0.5, effect_fraction=0.3,
            ),
            {"uniform45": 0, "effect_line": 0, "bilinear": 24, "ambiguous": 6},
            "67c1a4dee4819bfdf06f39b9eeb9e01f5fd125bd43bfab6d86d7df8616f05c73",
        ),
        (
            SimulationConfig(
                scenario=Scenario.MIXTURE, k=27, trials=300, seed=404,
                log_or=0.5, effect_fraction=0.3,
            ),
            {"uniform45": 17, "effect_line": 1, "bilinear": 120, "ambiguous": 162},
            "b4df98ef120232a0f9256f3ac54fcb857bd16f57822a08ac21681910c119d374",
        ),
    ],
    ids=["k200", "k27"],
)
def test_mixture_reports_pinned(config, verdict_counts, sha256):
    # SHA-256 of the canonical report, taken before the fit and the trial
    # loop were reworked; every rule's verdict occurs in one of these runs
    # or in the calibration runs pinned in test_acceptance.
    report = run_simulation(config)
    assert report.verdict_counts == verdict_counts
    assert hashlib.sha256(canonical_json(report).encode("utf-8")).hexdigest() == sha256


def test_huge_effect_floors_every_p():
    config = SimulationConfig(
        scenario=Scenario.FIXED_EFFECT, k=27, trials=5, seed=7, log_or=10.0
    )
    for trial in range(5):
        assert all(p < 1e-6 for p in simulate_trial(config, trial))


def _draws(config):
    return [p for trial in range(config.trials) for p in simulate_trial(config, trial)]


def test_null_draws_center_on_half():
    config = _null(k=50, trials=2000, seed=88)
    draws = _draws(config)
    assert len(draws) == 100_000
    assert 0.49 <= math.fsum(draws) / len(draws) <= 0.51


def test_null_draws_pass_uniformity_test():
    config = _null(k=20, trials=500, seed=55)
    draws = _draws(config)
    assert len(draws) == 10_000
    assert scipy.stats.kstest(draws, "uniform").pvalue >= 0.001
    assert all(0.0 < p <= 1.0 for p in draws)


def test_verdict_histogram_sums_to_trials():
    report = run_simulation(_null(trials=40))
    assert sum(report.verdict_counts.values()) == 40
    total = sum(
        report.verdict_counts[verdict.value] / report.config.trials for verdict in PlotVerdict
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_null_mostly_classifies_uniform():
    report = run_simulation(_null(trials=200))
    assert report.verdict_counts[PlotVerdict.UNIFORM45.value] / report.config.trials >= 0.85
    assert report.verdict_counts[PlotVerdict.EFFECT_LINE.value] / report.config.trials == 0.0


def test_strong_effect_always_classifies_effect_line():
    config = SimulationConfig(
        scenario=Scenario.FIXED_EFFECT, k=27, trials=100, seed=404, log_or=0.7
    )
    report = run_simulation(config)
    assert report.verdict_counts[PlotVerdict.EFFECT_LINE.value] / config.trials == 1.0


def test_mixture_fraction_controls_significance_rate():
    common = dict(k=27, trials=50, seed=31, log_or=0.7)
    all_effect = run_simulation(
        SimulationConfig(scenario=Scenario.MIXTURE, effect_fraction=1.0, **common)
    )
    no_effect = run_simulation(
        SimulationConfig(scenario=Scenario.MIXTURE, effect_fraction=0.0, **common)
    )
    assert all_effect.mean_fraction_below_alpha > 0.8
    assert no_effect.mean_fraction_below_alpha < 0.15


def test_ks_aggregates_reported():
    report = run_simulation(_null(trials=50))
    assert 0.0 < report.mean_ks_statistic < 1.0
    assert 0.0 < report.mean_ks_p <= 1.0
    assert 0.8 <= report.fraction_ks_pass <= 1.0


def test_config_validation():
    with pytest.raises(ConfigError):
        SimulationConfig(scenario="null", k=5, trials=1, seed=0)
    with pytest.raises(ConfigError):
        _null(k=0)
    with pytest.raises(ConfigError):
        _null(trials=0)
    with pytest.raises(ConfigError):
        _null(seed=-1)
    with pytest.raises(ConfigError):
        _null(se_range=(0.0, 0.3))
    with pytest.raises(ConfigError):
        _null(se_range=(0.5, 0.2))
    with pytest.raises(ConfigError):
        _null(se_range=(0.1, 0.2, 0.3))
    with pytest.raises(ConfigError):
        SimulationConfig(
            scenario=Scenario.MIXTURE, k=5, trials=1, seed=0, effect_fraction=1.5
        )
    with pytest.raises(ConfigError):
        _null(k=True)


@pytest.mark.parametrize(
    "key, make",
    [
        ("se_range", lambda v: (v, 0.3)),
        ("se_range", lambda v: (0.1, v)),
        ("log_or", lambda v: v),
        ("effect_fraction", lambda v: v),
    ],
    ids=["se_low", "se_high", "log_or", "effect_fraction"],
)
@pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["above", "below"])
def test_config_rejects_ints_beyond_float_range(key, make, value):
    with pytest.raises(ConfigError, match=key):
        SimulationConfig(
            scenario=Scenario.MIXTURE, k=5, trials=1, seed=0, **{key: make(value)}
        )


@pytest.mark.parametrize(
    "scenario, kwargs, key",
    [
        (Scenario.FIXED_EFFECT, {"log_or": 1e308}, "log_or"),
        (Scenario.MIXTURE, {"log_or": -1e308, "effect_fraction": 0.5}, "log_or"),
        (Scenario.FIXED_EFFECT, {"log_or": 1e300, "se_range": (1e-10, 1.0)}, "log_or"),
        (Scenario.NULL, {"se_range": (1e308, 1.7e308)}, "se_range"),
        (Scenario.NULL, {"se_range": (1e-310, 1e-1)}, "se_range"),
    ],
)
def test_config_rejects_draws_that_overflow(scenario, kwargs, key):
    with pytest.raises(ConfigError, match=f"^{key} .* makes the z draws overflow"):
        SimulationConfig(scenario=scenario, k=5, trials=1, seed=0, **kwargs)


@pytest.mark.parametrize(
    "scenario, kwargs",
    [
        (Scenario.NULL, {"log_or": 1e308}),
        (Scenario.FIXED_EFFECT, {"log_or": 1e300, "se_range": (1e-7, 1.0)}),
        (Scenario.FIXED_EFFECT, {"se_range": (1e-300, 1e-300)}),
        (Scenario.MIXTURE, {"log_or": -1e307, "se_range": (0.5, 1e306)}),
    ],
)
def test_config_accepts_extreme_draws_that_stay_finite(scenario, kwargs):
    config = SimulationConfig(scenario=scenario, k=50, trials=3, seed=0, **kwargs)
    for trial in range(3):
        assert all(0.0 <= p <= 1.0 for p in simulate_trial(config, trial))


def test_config_stores_numbers_as_floats():
    config = SimulationConfig(
        scenario=Scenario.MIXTURE, k=5, trials=1, seed=0,
        se_range=[1, 2], log_or=0, effect_fraction=1,
    )
    assert config.se_range == (1.0, 2.0)
    assert [type(v) for v in (*config.se_range, config.log_or, config.effect_fraction)] == [float] * 4


def test_config_replace_and_make_check_and_normalize():
    config = _null()
    with pytest.raises(ConfigError, match="k must be an integer >= 1"):
        config._replace(k=0)
    with pytest.raises(ConfigError, match="se_range needs 0 < low <= high"):
        SimulationConfig._make((*config[:4], (2, 1), 0.0, 1.0))
    changed = config._replace(se_range=[1, 2], log_or=0)
    assert type(changed) is SimulationConfig
    assert (changed.se_range, changed.log_or) == ((1.0, 2.0), 0.0)
    assert type(changed.log_or) is float


def test_trial_index_validation():
    config = _null()
    with pytest.raises(ConfigError):
        simulate_trial(config, -1)
    with pytest.raises(ConfigError):
        simulate_trial(config, 1.5)


_NULL_TEXT = '{"scenario": "null", "k": 27, "trials": 200, "seed": 2027}'
_NULL_CONFIG = _null(trials=200)


def _with_log_or(token):
    return _NULL_TEXT[:-1] + f', "log_or": {token}}}'


def _loaded(path):
    """load_config's config at path, or its ConfigError's text after the path."""
    try:
        return load_config(path)
    except ConfigError as exc:
        return str(exc).removeprefix(f"{path}: ")


# Each text with what load_config gives for it; None where the message is
# the scanner's own, which may differ between Python versions.
@pytest.mark.parametrize(
    "text, expected",
    [
        (" \t\n\r" + _NULL_TEXT + "\r\n\t ", _NULL_CONFIG),
        ("", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        (" \t\r\n ", "invalid JSON: Expecting value: line 2 column 2 (char 4)"),
        # Only space, tab, newline and carriage return are JSON whitespace.
        ("\f" + _NULL_TEXT, "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        (_NULL_TEXT + "\u3000", "invalid JSON: Extra data: line 1 column 59 (char 58)"),
        (_NULL_TEXT + "\n{}", "invalid JSON: Extra data: line 2 column 1 (char 59)"),
        ("\ufeff\ufeff" + _NULL_TEXT,
         "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        (_with_log_or("NaN"), "log_or must be a finite number, got nan"),
        (_with_log_or("Infinity"), "log_or must be a finite number, got inf"),
        (_with_log_or("-Infinity"), "log_or must be a finite number, got -inf"),
        (_with_log_or("1e400"), "log_or must be a finite number, got inf"),
        (_NULL_TEXT.replace('"null"', '"nu\x01ll"'), None),
        (_NULL_TEXT.replace('"null"', '"\\ud800"'),
         "scenario must be one of: null, fixed_effect, mixture"),
        ('{"se_range": [0.1, 0.3', None),
        ("[" * 100_000, None),
        (_NULL_TEXT[:-1] + ', "k": 5}', "duplicate config key: k"),
        ("[1, 2]", "simulation config must be a JSON object"),
    ],
    ids=["whitespace", "empty", "only-whitespace", "form-feed", "ideographic-space",
         "trailing-data", "second-bom", "nan", "infinity", "minus-infinity", "1e400",
         "control-character", "lone-surrogate", "unterminated-array", "deep-nesting",
         "duplicate-key", "not-an-object"],
)
def test_load_config_reads_as_json_loads_does(tmp_path, monkeypatch, text, expected):
    path = tmp_path / "sim.json"
    path.write_text(text, encoding="utf-8")
    loaded = _loaded(path)
    if expected is not None:
        assert loaded == expected
    else:
        assert loaded.startswith("invalid JSON: ")
    # The same config, or the same message, as json.loads gives the reader.
    monkeypatch.setattr(simulate, "_parse_json",
                        lambda text: json.loads(text, object_pairs_hook=simulate._unique_keys))
    assert loaded == _loaded(path)


WITHOUT_JSON_ACCELERATOR = """
import sys
sys.modules["_json"] = None
from metaaudit import simulate
print(simulate._scan_once.__module__)
print(repr(simulate.load_config(sys.argv[1])))
"""


def test_a_build_without_the_json_accelerator_reads_the_same_config(tmp_path):
    path = tmp_path / "sim.json"
    path.write_text(_NULL_TEXT, encoding="utf-8")
    package_root = Path(metaaudit.__file__).parent.parent
    result = subprocess.run(
        [sys.executable, "-c", WITHOUT_JSON_ACCELERATOR, str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert result.returncode == 0, result.stderr
    assert simulate._scan_once.__module__ == "_json"
    assert result.stdout.splitlines() == ["json.scanner", repr(_NULL_CONFIG)]


ONLY_AN_ERROR_LOADS_JSON = """
import sys
from metaaudit.errors import ConfigError
from metaaudit.simulate import load_config

def loaded():
    return sorted(name for name in sys.modules if name == "json" or name.startswith("json."))

load_config(sys.argv[1])
print(loaded())
try:
    load_config(sys.argv[2])
except ConfigError:
    print(loaded())
"""


def test_only_a_malformed_config_loads_json(tmp_path):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(_NULL_TEXT, encoding="utf-8")
    bad.write_text(_NULL_TEXT + " x", encoding="utf-8")
    package_root = Path(metaaudit.__file__).parent.parent
    result = subprocess.run(
        [sys.executable, "-c", ONLY_AN_ERROR_LOADS_JSON, str(good), str(bad)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert result.returncode == 0, result.stderr
    # Raising json.decoder's own error imports it, and with it the package.
    first, second = result.stdout.splitlines()
    assert first == "[]"
    assert "json.decoder" in second
