"""numpy's `default_rng(seed)` streams, seeded a block of seeds at a time.

`np.random.default_rng(seed)` is a PCG64 generator seeded through
`SeedSequence(seed)`. `pcg64_states` reproduces that seeding for a whole
block of 64-bit seeds: SeedSequence's hash runs as uint32 numpy arithmetic
over the block, PCG64's set-seed step in Python ints. A `Stream` is the
(state, inc) pair that seeding gives, and every draw from it goes through a
`Generator` that is reused by the thread and takes the stream's state first,
so every draw is numpy's own.

The streams are numpy's, bit for bit, for the installed numpy. numpy does not
promise that a stream stays the same across its versions (NEP 19); the tests
use the installed numpy as the oracle.
"""
from __future__ import annotations

import threading
from typing import NamedTuple

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence's hash constants. Each hashmix xors its word with the running
# constant, multiplies the constant by MULT, and multiplies the word by it.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _hash_constants(init: int, mult: int, count: int) -> list[tuple[np.uint32, np.uint32]]:
    """(xor, multiply) constants of `count` successive hashmix calls: the
    running constant never depends on the words hashed, only on the call."""
    pairs, h = [], init
    for _ in range(count):
        nxt = (h * mult) & _MASK32
        pairs.append((np.uint32(h), np.uint32(nxt)))
        h = nxt
    return pairs


# mix_entropy makes one hashmix per pool word and one per ordered pair of
# distinct pool words; generate_state(4, uint64) one per output uint32 word.
_MIX_CONSTANTS = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE + _POOL_SIZE * (_POOL_SIZE - 1))
_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hashmix(value: np.ndarray, constants: tuple[np.uint32, np.uint32]) -> np.ndarray:
    xor, mult = constants
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> 16)


def pcg64_states(seeds) -> list[tuple[int, int]]:
    """[(state, inc)] that `np.random.PCG64(seed)` starts from, for each of
    `seeds` (integers in [0, 2**64)).

    A seed below 2**64 is one or two uint32 entropy words, and SeedSequence
    fills its 4-word pool past the entropy with hashes of 0, so every seed
    hashes as the two words (low, high) followed by two zeros.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    constants = iter(_MIX_CONSTANTS)
    words = [seeds & np.uint64(_MASK32), seeds >> np.uint64(32)]
    zeros = np.zeros(len(seeds), dtype=np.uint32)
    pool = [_hashmix(w.astype(np.uint32), next(constants)) for w in words]
    pool += [_hashmix(zeros, next(constants)) for _ in range(_POOL_SIZE - len(words))]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(constants)))
    # generate_state(4, uint64): 8 uint32 words, cycling the pool, read as
    # little-endian pairs.
    out = [_hashmix(pool[i % _POOL_SIZE], c).astype(np.uint64) for i, c in enumerate(_STATE_CONSTANTS)]
    w0, w1, w2, w3 = (out[2 * i] | (out[2 * i + 1] << np.uint64(32)) for i in range(4))
    states = []
    for hi_state, lo_state, hi_seq, lo_seq in zip(w0.tolist(), w1.tolist(), w2.tolist(), w3.tolist()):
        # pcg64_set_seed: initstate = w0:w1, initseq = w2:w3; then
        # pcg_setseq_128_srandom_r: state = 0, inc = initseq << 1 | 1, step,
        # add initstate, step.
        inc = ((hi_seq << 65) | (lo_seq << 1) | 1) & _MASK128
        state = ((inc + ((hi_state << 64) | lo_state)) * _PCG_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


_local = threading.local()


class Stream(NamedTuple):
    """One PCG64 stream: the 128-bit state and increment PCG64 starts from.
    No draw moves it, so the same Stream draws the same values every time."""

    state: int
    inc: int

    @classmethod
    def of(cls, seed: int | Stream) -> Stream:
        """`seed` itself if it is a Stream, else the stream of
        `np.random.default_rng(seed)` for an int seed, which
        `np.random.PCG64(seed)` checks as default_rng does."""
        if isinstance(seed, Stream):
            return seed
        state = np.random.PCG64(seed).state["state"]
        return cls(state["state"], state["inc"])

    def generator(self) -> np.random.Generator:
        """The thread's reused Generator, set to this stream's start. It
        serves one stream at a time: the next call to generator() in the
        thread resets it."""
        gen = getattr(_local, "generator", None)
        if gen is None:
            gen = _local.generator = np.random.Generator(np.random.PCG64(0))
        gen.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": self.state, "inc": self.inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen
