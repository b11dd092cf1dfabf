"""numpy's PCG64 stream, seeded by SeedSequence, in pure Python.

study_draws and skip_open_uniforms map the raw 64-bit outputs of
numpy.random.PCG64(numpy.random.SeedSequence(entropy)) bit for bit, as
numpy's Generator.random() and Generator.integers(1, 2**53) / 2**53 do,
so seeded draws do not depend on numpy being installed. Neither forms an
output it does not read: one LCG step by M^2 and (M + 1) * inc skips it.

The generator is PCG64 XSL-RR: a 128-bit linear congruential generator
whose state is permuted into each 64-bit output (O'Neill 2014, "PCG: A
Family of Simple Fast Space-Efficient Statistically Good Algorithms for
Random Number Generation", HMC-CS-2014-0905). Seeding follows numpy's
SeedSequence: the entropy integers are split into 32-bit words, hashed
into a pool of 4 words and expanded into the 256 bits that set PCG64's
state and increment. numpy is the test oracle for the stream and the
draws.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Two LCG steps in one, past an output that is not read.
_PCG_MULT_SQ = _PCG_MULT * _PCG_MULT & _MASK128

_U53 = float(1 << 53)
# integers(1, 2**53) draws from 2**53 - 1 values with Lemire's method, which
# redraws a raw output whose scaled low 64 bits fall below
# (2**64 - 2**53 + 1) mod (2**53 - 1), that is 2048.
_OPEN_SPAN = (1 << 53) - 1
_OPEN_REDRAW_BELOW = ((1 << 64) - (1 << 53) + 1) % _OPEN_SPAN


@lru_cache(maxsize=16)
def _hash_plan(n_words: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """SeedSequence's (xor, mult) hash constants for n_words entropy words.

    Each hashmix XORs with the running constant and multiplies by the next,
    so its pair depends only on its place. Returns the pool words' pairs,
    the (source, destination, xor, mult) of every mix, and the output
    words' pairs.
    """
    # Each pool word into every other one, then each later word into all four.
    mixes = [(src, dst) for src in range(n_words) for dst in range(_POOL_SIZE) if src != dst]
    consts_a, consts_b = [_INIT_A], [_INIT_B]
    while len(consts_a) <= _POOL_SIZE + len(mixes):
        consts_a.append(consts_a[-1] * _MULT_A & _MASK32)
    while len(consts_b) <= 2 * _POOL_SIZE:
        consts_b.append(consts_b[-1] * _MULT_B & _MASK32)
    pairs_a = tuple(zip(consts_a, consts_a[1:]))
    mixes = tuple(mix + pair for mix, pair in zip(mixes, pairs_a[_POOL_SIZE:]))
    return pairs_a[:_POOL_SIZE], mixes, tuple(zip(consts_b, consts_b[1:]))


def seed_sequence_state(entropy: Sequence[int]) -> tuple[int, int, int, int]:
    """SeedSequence(entropy).generate_state(4, uint64) as Python ints."""
    # The little-endian 32-bit words of each value, [0] for 0.
    words = [value >> shift & _MASK32 for value in entropy
             for shift in range(0, max(value.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    pool_hashes, mixes, out_hashes = _hash_plan(len(words))
    # The pool, then the words beyond it, which only ever act as sources.
    cells = []
    for word, (xor, mult) in zip(words, pool_hashes):
        value = (word ^ xor) * mult & _MASK32
        cells.append(value ^ value >> 16)
    cells += words[_POOL_SIZE:]
    for src, dst, xor, mult in mixes:
        value = (cells[src] ^ xor) * mult & _MASK32
        mixed = (_MIX_MULT_L * cells[dst] - _MIX_MULT_R * (value ^ value >> 16)) & _MASK32
        cells[dst] = mixed ^ mixed >> 16
    out = []
    for i, (xor, mult) in enumerate(out_hashes):
        value = (cells[i % _POOL_SIZE] ^ xor) * mult & _MASK32
        out.append(value ^ value >> 16)
    return tuple(out[i] | out[i + 1] << 32 for i in range(0, len(out), 2))


def _seeded(entropy: Sequence[int]) -> tuple[int, int]:
    """PCG64's 128-bit (state, increment) before its first output."""
    s_high, s_low, i_high, i_low = seed_sequence_state(entropy)
    inc = (((i_high << 64 | i_low) << 1) | 1) & _MASK128
    # pcg64_srandom_r: step from 0, add the initial state, step again.
    state = (inc + (s_high << 64 | s_low)) & _MASK128
    return (state * _PCG_MULT + inc) & _MASK128, inc


def skip_open_uniforms(entropy: Sequence[int], count: int) -> list[float]:
    """count open uniforms, each made after one output that is skipped.

    The skipped outputs are never formed: one step by M^2 and (M + 1) * inc
    moves the LCG past each of them.
    """
    state, inc = _seeded(entropy)
    skip_inc = (_PCG_MULT + 1) * inc & _MASK128
    out = []
    for _ in range(count):
        state = (state * _PCG_MULT_SQ + skip_inc) & _MASK128
        while True:
            rot = state >> 122
            x = ((state >> 64) ^ state) & _MASK64
            scaled = (((x >> rot) | (x << (64 - rot))) & _MASK64) * _OPEN_SPAN
            if scaled & _MASK64 >= _OPEN_REDRAW_BELOW:
                break
            state = (state * _PCG_MULT + inc) & _MASK128
        out.append(((scaled >> 64) + 1) / _U53)
    return out


def study_draws(entropy: Sequence[int], count: int, effect_fraction: float | None = None) -> tuple:
    """count studies' se uniforms and open uniforms, in simulate's draw order.

    A study draws its se output, then, when effect_fraction is a float, an
    indicator, then an open uniform as skip_open_uniforms makes it. A study
    whose indicator uniform is not below effect_fraction has no effect: its
    se output is stepped past, and its se uniform is None.
    """
    state, inc = _seeded(entropy)
    skip_inc = (_PCG_MULT + 1) * inc & _MASK128
    # uniform < effect_fraction, both sides scaled by 2**53 exactly.
    below = None if effect_fraction is None else effect_fraction * _U53
    ses, us = [None] * count, []
    for i in range(count):
        # Past the se output, to the indicator or, with none, the open uniform.
        start, state = state, (state * _PCG_MULT_SQ + skip_inc) & _MASK128
        if below is not None:
            rot = state >> 122
            x = ((state >> 64) ^ state) & _MASK64
            indicator = ((x >> rot) | (x << (64 - rot))) & _MASK64
            state = (state * _PCG_MULT + inc) & _MASK128
        if below is None or indicator >> 11 < below:
            se_state = (start * _PCG_MULT + inc) & _MASK128
            rot = se_state >> 122
            x = ((se_state >> 64) ^ se_state) & _MASK64
            ses[i] = ((((x >> rot) | (x << (64 - rot))) & _MASK64) >> 11) / _U53
        while True:
            rot = state >> 122
            x = ((state >> 64) ^ state) & _MASK64
            scaled = (((x >> rot) | (x << (64 - rot))) & _MASK64) * _OPEN_SPAN
            if scaled & _MASK64 >= _OPEN_REDRAW_BELOW:
                break
            state = (state * _PCG_MULT + inc) & _MASK128
        us.append(((scaled >> 64) + 1) / _U53)
    return ses, us
