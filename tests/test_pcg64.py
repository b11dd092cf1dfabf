"""The local PCG64 stream against numpy, its test oracle.

numpy is imported here only; the package itself never imports it.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from metaaudit.normal import std_normal_quantile, two_sided_p
from metaaudit import pcg64
from metaaudit.pcg64 import (
    open_uniform,
    pcg64_stream,
    seed_sequence_state,
    skip_open_uniforms,
    uniform,
)
from metaaudit.simulate import Scenario, SimulationConfig, simulate_trial

# 2**32 - 1 and 2**32 straddle the one-word boundary; 2**64 + 5 fills the
# pool exactly with the trial word; 2**129 + 3 gives more than 4 entropy
# words, which runs SeedSequence's extra mixing loop. A trial of 2**32 or
# more takes two words, which moves the padding and the mixes that the
# cached seed prefix can do alone.
SEEDS = [0, 1, 2027, 2**32 - 1, 2**32, 2**64 + 5, 2**129 + 3]
TRIALS = [0, 1, 999, 10**6, 2**32 - 1, 2**32]
SEED_TRIALS = list(itertools.product(SEEDS, TRIALS))


def _numpy_generator(seed, trial):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, trial])))


@pytest.mark.parametrize("seed, trial", SEED_TRIALS)
def test_seed_state_matches_seed_sequence(seed, trial):
    want = np.random.SeedSequence([seed, trial]).generate_state(4, np.uint64)
    assert seed_sequence_state([seed, trial]) == tuple(int(word) for word in want)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 2**130 - 1), st.lists(st.integers(0, 2**40 - 1), min_size=1, max_size=6))
@example(2**128, [2**32, 0, 2**32 - 1, 2**40 - 1])
def test_seed_state_matches_seed_sequence_for_any_trial_order(seed, trials):
    # Each seed's prefix is cached; every trial order must finish it alike.
    for trial in trials:
        want = np.random.SeedSequence([seed, trial]).generate_state(4, np.uint64)
        assert seed_sequence_state([seed, trial]) == tuple(int(word) for word in want)


@pytest.mark.parametrize("seed, trial", SEED_TRIALS)
def test_raw_stream_matches_pcg64(seed, trial):
    want = _numpy_generator(seed, trial).bit_generator.random_raw(200)
    got = list(itertools.islice(pcg64_stream([seed, trial]), 200))
    assert got == [int(x) for x in want]


@pytest.mark.parametrize("seed, trial", SEED_TRIALS)
def test_mapped_draws_match_generator(seed, trial):
    rng = _numpy_generator(seed, trial)
    draw = pcg64_stream([seed, trial]).__next__
    for _ in range(100):
        assert uniform(draw) == float(rng.random())
        assert open_uniform(draw) == int(rng.integers(1, 2**53)) / 2**53


def _numpy_studies(config, trial):
    """simulate_trial's draw order, drawn from numpy's Generator.

    Yields (true log OR, se, u) per study.
    """
    rng = _numpy_generator(config.seed, trial)
    low, high = config.se_range
    for _ in range(config.k):
        se = low + (high - low) * float(rng.random())
        true_log_or = 0.0
        if config.scenario is Scenario.FIXED_EFFECT:
            true_log_or = config.log_or
        elif config.scenario is Scenario.MIXTURE and float(rng.random()) < config.effect_fraction:
            true_log_or = config.log_or
        yield true_log_or, se, int(rng.integers(1, 2**53)) / 2**53


def _numpy_trial(config, trial):
    """simulate_trial's p-values from numpy's draws: a null study takes
    2 min(u, 1 - u), an effect study the p of (log OR + se * z) / se."""
    ps = []
    for true_log_or, se, u in _numpy_studies(config, trial):
        if true_log_or == 0.0:
            ps.append(2.0 * min(u, 1.0 - u))
        else:
            z = std_normal_quantile(u)
            ps.append(two_sided_p((true_log_or + se * z) / se))
    return tuple(ps)


@pytest.mark.parametrize(
    "scenario, kwargs",
    [
        (Scenario.NULL, {}),
        (Scenario.FIXED_EFFECT, {"log_or": 0.4}),
        (Scenario.MIXTURE, {"log_or": 0.5, "effect_fraction": 0.3}),
    ],
)
@pytest.mark.parametrize("seed", [0, 404, 2**129 + 3])
def test_trials_match_numpy_draws(scenario, kwargs, seed):
    config = SimulationConfig(scenario=scenario, k=50, trials=1, seed=seed, **kwargs)
    for trial in (0, 7, 10**6):
        assert simulate_trial(config, trial) == _numpy_trial(config, trial)


@pytest.mark.parametrize(
    "scenario, kwargs",
    [
        (Scenario.NULL, {}),
        (Scenario.FIXED_EFFECT, {"log_or": 0.0}),
        (Scenario.MIXTURE, {"log_or": 0.5, "effect_fraction": 0.3}),
    ],
)
@pytest.mark.parametrize("seed", [0, 404, 2**129 + 3])
def test_null_studies_take_twice_the_smaller_tail_of_u(scenario, kwargs, seed):
    config = SimulationConfig(scenario=scenario, k=50, trials=1, seed=seed, **kwargs)
    nulls = 0
    for trial in (0, 7, 10**6):
        studies = list(_numpy_studies(config, trial))
        for (true_log_or, _, u), p in zip(studies, simulate_trial(config, trial), strict=True):
            if true_log_or == 0.0:
                assert p == 2.0 * min(u, 1.0 - u)
                nulls += 1
    assert nulls > 50


def _raw_with_leftover(leftover):
    """A raw output x whose Lemire product x * (2**53 - 1) has these low 64 bits."""
    span = 2**53 - 1
    return leftover * pow(span, -1, 2**64) % 2**64


@pytest.mark.parametrize("rejected", [0, _raw_with_leftover(1), _raw_with_leftover(2047)])
def test_open_uniform_redraws_below_threshold(rejected):
    accepted = _raw_with_leftover(2048)
    draws = iter([rejected, accepted, 0])
    assert open_uniform(draws.__next__) == ((accepted * (2**53 - 1) >> 64) + 1) / 2**53
    assert next(draws) == 0, "exactly one redraw"


@pytest.mark.parametrize("seed, trial", [(0, 0), (2027, 999), (2**129 + 3, 10**6)])
def test_skip_open_uniforms_redraws_like_open_uniform(monkeypatch, seed, trial):
    # Raised to 2**63, the threshold makes about half the outputs redraw.
    monkeypatch.setattr(pcg64, "_OPEN_REDRAW_BELOW", 2**63)
    stream = pcg64_stream([seed, trial])
    calls = 0

    def draw():
        nonlocal calls
        calls += 1
        return next(stream)

    want = []
    for _ in range(200):
        draw()
        want.append(open_uniform(draw))
    assert skip_open_uniforms([seed, trial], 200) == want
    assert 100 < calls - 400 < 300, "redraws"


def test_open_uniform_bounds():
    # The extreme accepted raw outputs map to the smallest and largest
    # values of integers(1, 2**53) / 2**53, both strictly inside (0, 1).
    smallest = open_uniform(iter([1]).__next__)
    largest = open_uniform(iter([2**64 - 1]).__next__)
    assert smallest == 1 / 2**53
    assert largest == (2**53 - 1) / 2**53
    assert 0.0 < smallest and largest < 1.0
    assert math.isfinite(std_normal_quantile(smallest))


def test_uniform_uses_the_top_53_bits():
    assert uniform(iter([2**11 - 1]).__next__) == 0.0
    assert uniform(iter([2**64 - 1]).__next__) == (2**53 - 1) / 2**53
