"""numpy's PCG64 stream, seeded by SeedSequence, in pure Python.

pcg64_stream(entropy) yields the raw 64-bit outputs of
numpy.random.PCG64(numpy.random.SeedSequence(entropy)) bit for bit, and
uniform and open_uniform map them as numpy's Generator.random() and
Generator.integers(1, 2**53) / 2**53 do, so seeded draws do not depend on
numpy being installed.

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

_U53 = float(1 << 53)
# integers(1, 2**53) draws from 2**53 - 1 values with Lemire's method, which
# redraws a raw output whose scaled low 64 bits fall below
# (2**64 - 2**53 + 1) mod (2**53 - 1), that is 2048.
_OPEN_SPAN = (1 << 53) - 1
_OPEN_REDRAW_BELOW = ((1 << 64) - (1 << 53) + 1) % _OPEN_SPAN


def _words32(value: int) -> list[int]:
    """The little-endian 32-bit words of a non-negative integer; [0] for 0."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def seed_sequence_state(entropy: Sequence[int]) -> tuple[int, int, int, int]:
    """SeedSequence(entropy).generate_state(4, uint64) as Python ints."""
    words = [word for value in entropy for word in _words32(value)]
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    out = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        out.append(value ^ (value >> 16))
    return tuple(out[i] | out[i + 1] << 32 for i in range(0, len(out), 2))


def pcg64_stream(entropy: Sequence[int]) -> Iterator[int]:
    """The raw 64-bit outputs of PCG64(SeedSequence(entropy)), endlessly."""
    s_high, s_low, i_high, i_low = seed_sequence_state(entropy)
    inc = (((i_high << 64 | i_low) << 1) | 1) & _MASK128
    # pcg64_srandom_r: step from 0, add the initial state, step again.
    state = (inc + (s_high << 64 | s_low)) & _MASK128
    state = (state * _PCG_MULT + inc) & _MASK128
    while True:
        state = (state * _PCG_MULT + inc) & _MASK128
        rot = state >> 122
        x = ((state >> 64) ^ state) & _MASK64
        yield ((x >> rot) | (x << (64 - rot))) & _MASK64


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
