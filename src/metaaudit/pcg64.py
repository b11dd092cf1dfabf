"""numpy's PCG64 stream, seeded by SeedSequence, in pure Python.

pcg64_stream(entropy) yields the raw 64-bit outputs of
numpy.random.PCG64(numpy.random.SeedSequence(entropy)) bit for bit, and
uniform and open_uniform map them as numpy's Generator.random() and
Generator.integers(1, 2**53) / 2**53 do, so seeded draws do not depend on
numpy being installed. skip_open_uniforms gives the open uniforms of a
stream that skips one output before each, without forming the skipped ones.

The generator is PCG64 XSL-RR: a 128-bit linear congruential generator
whose state is permuted into each 64-bit output (O'Neill 2014, "PCG: A
Family of Simple Fast Space-Efficient Statistically Good Algorithms for
Random Number Generation", HMC-CS-2014-0905). Seeding follows numpy's
SeedSequence: the entropy integers are split into 32-bit words, hashed
into a pool of 4 words and expanded into the 256 bits that set PCG64's
state and increment. The hashing that all but the last entropy value
decide is cached, so the streams of one seed's trials, [seed, trial],
hash only the trial's words each. numpy is the test oracle for the stream
and the draws.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator, Sequence

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
# Two LCG steps in one: skip_open_uniforms' multiplier.
_PCG_MULT_SQ = _PCG_MULT * _PCG_MULT & _MASK128

_U53 = float(1 << 53)
# integers(1, 2**53) draws from 2**53 - 1 values with Lemire's method, which
# redraws a raw output whose scaled low 64 bits fall below
# (2**64 - 2**53 + 1) mod (2**53 - 1), that is 2048.
_OPEN_SPAN = (1 << 53) - 1
_OPEN_REDRAW_BELOW = ((1 << 64) - (1 << 53) + 1) % _OPEN_SPAN


def _words(values: Sequence[int]) -> list[int]:
    """The little-endian 32-bit words of each value, [0] for 0."""
    return [value >> shift & _MASK32 for value in values
            for shift in range(0, max(value.bit_length(), 1), 32)]


@lru_cache(maxsize=16)
def _seed_prefix(lead: tuple[int, ...], n_tail: int) -> tuple:
    """The part of SeedSequence's pool hashing that lead alone decides.

    The entropy is lead's words, then n_tail words from its last value (the
    tail), then zeros up to the pool size. Mixes run source-major; a mix
    whose source and destination both depend only on lead is done here. The
    rest are returned in order as (src, dst, xor, mult) steps; a step from a
    fixed source has src None and, in xor, its hashed source term, taken at
    its place in the order. Returns the cells (tail cells 0), the first tail
    cell, the pool words' (xor, mult) pairs, the steps and the output words'
    pairs.
    """
    words = _words(lead)
    first = len(words)
    words += [0] * max(n_tail, _POOL_SIZE - first)
    # Each pool word into every other one, then each later word into all four.
    mixes = [(src, dst) for src in range(len(words)) for dst in range(_POOL_SIZE) if src != dst]
    # Each hashmix XORs with the running constant and multiplies by the next,
    # so its pair depends only on its place.
    consts_a, consts_b = [_INIT_A], [_INIT_B]
    while len(consts_a) <= _POOL_SIZE + len(mixes):
        consts_a.append(consts_a[-1] * _MULT_A & _MASK32)
    while len(consts_b) <= 2 * _POOL_SIZE:
        consts_b.append(consts_b[-1] * _MULT_B & _MASK32)
    pairs_a = tuple(zip(consts_a, consts_a[1:]))
    # The pool, then the words beyond it, which only ever act as sources.
    cells = []
    for word, (xor, mult) in zip(words[:_POOL_SIZE], pairs_a):
        value = (word ^ xor) * mult & _MASK32
        cells.append(value ^ value >> 16)
    cells += words[_POOL_SIZE:]
    live = set(range(first, first + n_tail))
    steps = []
    for (src, dst), (xor, mult) in zip(mixes, pairs_a[_POOL_SIZE:]):
        if src in live:
            steps.append((src, dst, xor, mult))
            live.add(dst)
            continue
        value = (cells[src] ^ xor) * mult & _MASK32
        if dst in live:
            steps.append((None, dst, value ^ value >> 16, None))
        else:
            mixed = (_MIX_MULT_L * cells[dst] - _MIX_MULT_R * (value ^ value >> 16)) & _MASK32
            cells[dst] = mixed ^ mixed >> 16
    out_hashes = tuple(zip(consts_b, consts_b[1:]))
    return tuple(cells), first, pairs_a[:_POOL_SIZE], tuple(steps), out_hashes


def seed_sequence_state(entropy: Sequence[int]) -> tuple[int, int, int, int]:
    """SeedSequence(entropy).generate_state(4, uint64) as Python ints.

    All but the last entropy value go through _seed_prefix, which is cached,
    so seeding many streams that differ only in the last value (simulate's
    [seed, trial]) hashes only that value's words each time.
    """
    tail = _words(entropy[-1:])
    cells, first, pool_hashes, steps, out_hashes = _seed_prefix(tuple(entropy[:-1]), len(tail))
    cells = list(cells)
    for pos, word in enumerate(tail, first):
        if pos < _POOL_SIZE:
            xor, mult = pool_hashes[pos]
            value = (word ^ xor) * mult & _MASK32
            word = value ^ value >> 16
        cells[pos] = word
    for src, dst, xor, mult in steps:
        if src is None:
            term = xor
        else:
            value = (cells[src] ^ xor) * mult & _MASK32
            term = value ^ value >> 16
        mixed = (_MIX_MULT_L * cells[dst] - _MIX_MULT_R * term) & _MASK32
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


def pcg64_stream(entropy: Sequence[int]) -> Iterator[int]:
    """The raw 64-bit outputs of PCG64(SeedSequence(entropy)), endlessly."""
    state, inc = _seeded(entropy)
    while True:
        state = (state * _PCG_MULT + inc) & _MASK128
        rot = state >> 122
        x = ((state >> 64) ^ state) & _MASK64
        yield ((x >> rot) | (x << (64 - rot))) & _MASK64


def skip_open_uniforms(entropy: Sequence[int], count: int) -> list[float]:
    """count rounds of draw(); open_uniform(draw) on pcg64_stream(entropy).__next__.

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


def uniform(draw: Callable[[], int]) -> float:
    """Generator.random(): the top 53 bits of one raw output, over 2**53."""
    return (draw() >> 11) / _U53


def open_uniform(draw: Callable[[], int]) -> float:
    """Generator.integers(1, 2**53) / 2**53, strictly inside (0, 1).

    The redraw happens about once in 10**16 draws and is kept so the
    stream matches numpy's exactly.
    """
    scaled = draw() * _OPEN_SPAN
    while scaled & _MASK64 < _OPEN_REDRAW_BELOW:
        scaled = draw() * _OPEN_SPAN
    return ((scaled >> 64) + 1) / _U53
