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
from metaaudit.pcg64 import seed_sequence_state, skip_open_uniforms, study_draws
from metaaudit.simulate import Scenario, SimulationConfig, simulate_trial

# 2**32 - 1 and 2**32 straddle the one-word boundary; 2**64 + 5 fills the
# pool exactly with the trial word; 2**129 + 3 gives more than 4 entropy
# words, which runs SeedSequence's extra mixing loop. A trial of 2**32 or
# more takes two words, which changes the word count and so the padding
# and every hash constant after the trial's first word.
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
@given(st.integers(0, 2**130 - 1), st.integers(0, 2**130 - 1),
       st.lists(st.integers(0, 2**40 - 1), min_size=1, max_size=6))
@example(2**128, 2**64 + 5, [2**32, 0, 2**32 - 1, 2**40 - 1])
def test_seed_state_matches_seed_sequence_for_any_trial_order(seed, other, trials):
    # A trial's state depends only on (seed, trial), never on which seeds and
    # trials were seeded before it: the two seeds' trials alternate.
    for trial in trials:
        for each in (seed, other):
            want = np.random.SeedSequence([each, trial]).generate_state(4, np.uint64)
            assert seed_sequence_state([each, trial]) == tuple(int(word) for word in want)


# effect_fraction None draws no indicator; a float draws one per study.
FRACTIONS = [None, 0.0, 0.3, 1.0]


def _numpy_draws(seed, trial, count, effect_fraction):
    """study_draws' (se uniforms, open uniforms) from numpy's Generator."""
    rng = _numpy_generator(seed, trial)
    ses, us = [], []
    for _ in range(count):
        se = float(rng.random())
        if effect_fraction is not None and float(rng.random()) >= effect_fraction:
            se = None
        ses.append(se)
        us.append(int(rng.integers(1, 2**53)) / 2**53)
    return ses, us


@pytest.mark.parametrize("effect_fraction", FRACTIONS, ids=lambda f: f"fraction={f}")
@pytest.mark.parametrize("seed, trial", SEED_TRIALS)
def test_study_draws_match_generator(seed, trial, effect_fraction):
    want = _numpy_draws(seed, trial, 100, effect_fraction)
    assert study_draws([seed, trial], 100, effect_fraction) == want


def _draws_from_raw(raws, count, effect_fraction=None):
    """study_draws' draws read one raw output at a time, as numpy's Generator
    maps them, with the module's redraw threshold; also the outputs read."""
    raws = iter(raws)
    ses, us, read = [], [], 0

    def draw():
        nonlocal read
        read += 1
        return next(raws)

    for _ in range(count):
        se = (draw() >> 11) / 2**53
        if effect_fraction is not None and (draw() >> 11) / 2**53 >= effect_fraction:
            se = None
        scaled = draw() * (2**53 - 1)
        while scaled % 2**64 < pcg64._OPEN_REDRAW_BELOW:
            scaled = draw() * (2**53 - 1)
        ses.append(se)
        us.append(((scaled >> 64) + 1) / 2**53)
    return ses, us, read


def _numpy_raw(state, inc, count):
    """The first count raw outputs of numpy's PCG64 set to (state, inc)."""
    bit_generator = np.random.PCG64()
    bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                           "has_uint32": 0, "uinteger": 0}
    return [int(x) for x in bit_generator.random_raw(count)]


def _crafted(monkeypatch, position, raws):
    """Seed every stream so that its outputs from position on are raws (one
    or two), and return its first 8 raw outputs, as numpy draws them.

    A state whose top 6 bits are 0 has rotation 0, so its output is its
    high word XOR its low word. With two outputs, the increment is the one
    value that steps the first state to the second, and the second state's
    lowest bit is chosen to make it odd. The start state is the first one
    stepped back position + 1 times with the inverse multiplier.
    """
    high = 0x0123456789ABCDEF >> 6
    states = [high << 64 | (raws[0] ^ high)]
    if len(raws) == 1:
        inc = pcg64._seeded([0, 0])[1]
    else:
        # The increment is odd when the two states' low bits differ.
        second = high ^ (raws[1] ^ high ^ states[0] ^ 1) & 1
        states.append(second << 64 | (raws[1] ^ second))
        inc = (states[1] - states[0] * pcg64._PCG_MULT) % 2**128
    state = states[0]
    for _ in range(position + 1):
        state = (state - inc) * pow(pcg64._PCG_MULT, -1, 2**128) % 2**128
    monkeypatch.setattr(pcg64, "_seeded", lambda entropy: (state, inc))
    assert inc % 2 == 1
    got = _numpy_raw(state, inc, 8)
    assert got[position:position + len(raws)] == list(raws)
    return got


def _raw_with_leftover(leftover):
    """A raw output x whose Lemire product x * (2**53 - 1) has these low 64 bits."""
    span = 2**53 - 1
    return leftover * pow(span, -1, 2**64) % 2**64


# A study's open uniform is its second output, or its third after an indicator.
_U_AT = [pytest.param(None, 1, id="no-indicator"), pytest.param(1.0, 2, id="indicator")]


@pytest.mark.parametrize("effect_fraction, position", _U_AT)
@pytest.mark.parametrize("rejected", [0, _raw_with_leftover(1), _raw_with_leftover(2047)])
def test_a_leftover_below_2048_redraws_exactly_once(monkeypatch, effect_fraction, position,
                                                    rejected):
    accepted = _raw_with_leftover(2048)
    raws = _crafted(monkeypatch, position, [rejected, accepted])
    ses, us = study_draws([0, 0], 2, effect_fraction)
    assert us[0] == ((accepted * (2**53 - 1) >> 64) + 1) / 2**53
    # The next study's se output is the one after the accepted draw.
    assert ses[1] == (raws[position + 2] >> 11) / 2**53
    assert (ses, us) == _draws_from_raw(raws, 2, effect_fraction)[:2]


@pytest.mark.parametrize("effect_fraction, position", _U_AT)
@pytest.mark.parametrize("raw, u", [(1, 1 / 2**53), (2**64 - 1, (2**53 - 1) / 2**53)])
def test_the_extreme_raw_outputs_give_the_extreme_open_uniforms(monkeypatch, effect_fraction,
                                                               position, raw, u):
    # Both are values of integers(1, 2**53) / 2**53, strictly inside (0, 1).
    _crafted(monkeypatch, position, [raw])
    assert study_draws([0, 0], 1, effect_fraction)[1] == [u]
    assert 0.0 < u < 1.0 and math.isfinite(std_normal_quantile(u))


@pytest.mark.parametrize("effect_fraction", [None, 1.0])
@pytest.mark.parametrize("raw, se_u", [(2**11 - 1, 0.0), (2**64 - 1, (2**53 - 1) / 2**53)])
def test_the_se_uniform_uses_the_top_53_bits(monkeypatch, effect_fraction, raw, se_u):
    _crafted(monkeypatch, 0, [raw])
    assert study_draws([0, 0], 1, effect_fraction)[0] == [se_u]


@pytest.mark.parametrize("effect_fraction", [2**-53, 0.25, round(0.3 * 2**53) / 2**53, 1 - 2**-53])
def test_an_indicator_equal_to_the_fraction_marks_a_null_study(monkeypatch, effect_fraction):
    se_raw = 2**63 + 12345
    top = int(effect_fraction * 2**53)
    # The low 11 bits of the indicator output are never read.
    _crafted(monkeypatch, 0, [se_raw, top << 11 | 2047])
    assert study_draws([0, 0], 1, effect_fraction)[0] == [None]
    _crafted(monkeypatch, 0, [se_raw, (top - 1) << 11])
    assert study_draws([0, 0], 1, effect_fraction)[0] == [(se_raw >> 11) / 2**53]


@pytest.mark.parametrize("seed, trial", [(0, 0), (2027, 999), (2**129 + 3, 10**6)])
def test_skip_open_uniforms_redraws_like_open_uniform(monkeypatch, seed, trial):
    # Raised to 2**63, the threshold makes about half the outputs redraw.
    monkeypatch.setattr(pcg64, "_OPEN_REDRAW_BELOW", 2**63)
    raws = [int(x) for x in _numpy_generator(seed, trial).bit_generator.random_raw(1200)]
    ses, us, read = _draws_from_raw(raws, 200)
    assert skip_open_uniforms([seed, trial], 200) == us
    assert study_draws([seed, trial], 200) == (ses, us)
    assert 100 < read - 400 < 300, "redraws"
    ses, us, _ = _draws_from_raw(raws, 200, 0.3)
    assert study_draws([seed, trial], 200, 0.3) == (ses, us)


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


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(Scenario), st.integers(0, 2**130), st.integers(0, 2**40),
       st.integers(1, 60), st.sampled_from([0.0, -0.0]) | st.floats(-3.0, 3.0),
       st.sampled_from([0.0, 1.0, 2**-53]) | st.floats(0.0, 1.0))
@example(Scenario.MIXTURE, 2**130, 2**40, 60, -0.0, 1.0)
@example(Scenario.MIXTURE, 2**130, 2**40, 60, 0.5, 2**-53)
@example(Scenario.FIXED_EFFECT, 0, 0, 1, -0.0, 1.0)
def test_any_trial_matches_numpy_draws(scenario, seed, trial, k, log_or, effect_fraction):
    config = SimulationConfig(scenario=scenario, k=k, trials=1, seed=seed, log_or=log_or,
                              effect_fraction=effect_fraction)
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
