"""Deterministic random-number handling.

Everything stochastic in the library (data generation, topology sampling,
partitioning, link failures, TernGrad quantization) flows through a
:class:`numpy.random.Generator` created here, so a single integer seed makes
an entire experiment reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.types import SeedLike


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts an ``int`` seed, an existing generator (returned unchanged so
    callers can thread one generator through a pipeline), or ``None`` for an
    OS-entropy-seeded generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# -- keyed uniforms, whole columns at a time -----------------------------------
#
# ``np.random.default_rng((root, *key)).random()`` costs ~15 µs, nearly all of
# it building the SeedSequence / PCG64 / Generator objects. Per-frame fault
# draws are keyed exactly that way, so a round over E directed edges pays it
# E times. The kernel below computes the same first double for whole key
# columns at once by replaying numpy's documented, stream-stable pipeline:
# SeedSequence entropy mixing -> generate_state(4, uint64) -> PCG64 seeding ->
# one XSL-RR step -> 53-bit double. The constants are numpy's (SeedSequence:
# O'Neill's seed_seq_fe; PCG64: the 128-bit default multiplier).

_MASK32 = 0xFFFFFFFF
_XSHIFT = np.uint32(16)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)
_LOW32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)


def _uint32_words(value: int) -> list[int]:
    """An int as SeedSequence sees it: little-endian 32-bit words, 0 -> [0]."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _key_column(name: str, values) -> np.ndarray:
    column = np.asarray(values)
    if column.dtype.kind not in "iu":
        raise ConfigurationError(f"{name} must be integers, got {column.dtype}")
    if column.size and (column.min() < 0 or column.max() > _MASK32):
        raise ConfigurationError(
            f"{name} must lie in [0, 2**32): a wider value occupies two "
            "SeedSequence words and would key a different stream"
        )
    return column.astype(np.uint32)


class _HashConst:
    """SeedSequence's running multiplier: data-independent, so one scalar."""

    def __init__(self, init: int, mult: int):
        self.value, self.mult = init, mult

    def mix_in(self, words: np.ndarray) -> np.ndarray:
        words = words ^ np.uint32(self.value)
        self.value = (self.value * self.mult) & _MASK32
        words = words * np.uint32(self.value)
        return words ^ (words >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _seed_sequence_state(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(4, uint64)``, one row per key."""
    zeros = np.zeros_like(entropy[0])
    hash_a = _HashConst(_INIT_A, _MULT_A)
    pool = [
        hash_a.mix_in(entropy[i] if i < len(entropy) else zeros)
        for i in range(_POOL_SIZE)
    ]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hash_a.mix_in(pool[i_src]))
    for extra in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hash_a.mix_in(extra))
    hash_b = _HashConst(_INIT_B, _MULT_B)
    words = [hash_b.mix_in(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    return [words[i] | (words[i + 1] << _SHIFT32) for i in range(0, 8, 2)]


def _add128(hi, lo, add_hi, add_lo):
    out_lo = lo + add_lo
    return hi + add_hi + (out_lo < lo).astype(np.uint64), out_lo


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, ``state * multiplier + inc`` mod 2**128.

    uint64 array products wrap mod 2**64, so only the carry of
    ``lo * multiplier_lo`` into the high word needs 32-bit limbs.
    """
    a0, a1 = lo & _LOW32, lo >> _SHIFT32
    b0, b1 = _PCG_MULT_LO & _LOW32, _PCG_MULT_LO >> _SHIFT32
    cross = a1 * b0 + ((a0 * b0) >> _SHIFT32)
    carry = (
        a1 * b1 + (cross >> _SHIFT32) + ((a0 * b1 + (cross & _LOW32)) >> _SHIFT32)
    )
    return _add128(
        hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + carry,
        lo * _PCG_MULT_LO,
        inc_hi,
        inc_lo,
    )


def keyed_uniforms(root_seed: int, *key_columns) -> np.ndarray:
    """``default_rng((root_seed, *key)).random()`` for every row of the columns.

    ``key_columns`` are integer scalars/arrays (broadcast together) with
    every entry in ``[0, 2**32)``; entry ``i`` of the result equals, bit for
    bit, the first double numpy draws from the generator keyed by
    ``(root_seed, key_columns[0][i], key_columns[1][i], ...)``. Wider or
    negative keys raise :class:`~repro.exceptions.ConfigurationError`
    instead of silently keying another stream.
    """
    if isinstance(root_seed, bool) or int(root_seed) != root_seed or root_seed < 0:
        raise ConfigurationError(
            f"root_seed must be a non-negative integer, got {root_seed!r}"
        )
    columns = np.broadcast_arrays(
        *(_key_column(f"key column {i}", c) for i, c in enumerate(key_columns))
    )
    shape = columns[0].shape
    entropy = [
        np.full(columns[0].size, word, dtype=np.uint32)
        for word in _uint32_words(int(root_seed))
    ] + [column.ravel() for column in columns]
    seed_hi, seed_lo, inc_hi, inc_lo = _seed_sequence_state(entropy)
    # pcg64_srandom: inc = (initseq << 1) | 1, state = step(inc + initstate);
    # the first draw steps once more and applies the XSL-RR output function.
    inc_hi = (inc_hi << np.uint64(1)) | (inc_lo >> np.uint64(63))
    inc_lo = (inc_lo << np.uint64(1)) | np.uint64(1)
    hi, lo = _add128(seed_hi, seed_lo, inc_hi, inc_lo)
    for _ in range(2):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    xored, rot = hi ^ lo, hi >> np.uint64(58)
    out = (xored >> rot) | (xored << ((np.uint64(64) - rot) & np.uint64(63)))
    return ((out >> np.uint64(11)) * (1.0 / 9007199254740992.0)).reshape(shape)
