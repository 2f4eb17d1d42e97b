"""Deterministic random-number handling.

Every stochastic component of the library (sensors, workload phase
jitter, policy sampling, replay-buffer sampling, weight initialisation)
accepts either an integer seed or a ready-made
:class:`numpy.random.Generator`. Centralising the coercion here keeps
the convention uniform and makes whole experiments reproducible from a
single root seed.

:func:`generator_from_root` names a consumer's stream by a root seed
and a structural path. When one round needs thousands of such streams
that differ only in their last path element (one per device),
:func:`generators_from_root` derives all their seeds in one vectorised
pass over numpy's :class:`~numpy.random.SeedSequence` mixing, and
yields the same streams bit for bit at a fraction of the cost.
"""

from __future__ import annotations

import operator
from typing import Iterator, List, Optional, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

SeedLike = Union[int, np.random.Generator, None]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` yields a freshly-seeded generator (non-reproducible), an
    ``int`` yields a deterministic generator, and an existing generator
    is returned unchanged (no copy — the caller shares its stream).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_generator(parent: np.random.Generator, index: int = 0) -> np.random.Generator:
    """Derive an independent child generator from ``parent``.

    The child stream is a deterministic function of the parent state and
    ``index``, so components seeded through :func:`spawn_generator` do
    not perturb each other's streams when one of them draws more or
    fewer samples. Used to give each simulated device, sensor and agent
    its own stream from one experiment-level root seed.
    """
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    seed_seq = np.random.SeedSequence(
        entropy=int(parent.integers(0, 2**63 - 1)), spawn_key=(index,)
    )
    return np.random.default_rng(seed_seq)


def generator_from_root(root_seed: Optional[int], *path: int) -> np.random.Generator:
    """Build a generator from a root seed and a structural path.

    ``path`` identifies the consumer (e.g. ``(device_index, 2)`` for the
    power sensor of device ``device_index``), so two consumers with
    different paths get independent streams even though they share the
    root seed, and re-running the experiment with the same root seed
    reproduces every stream exactly.
    """
    seed_seq = np.random.SeedSequence(entropy=root_seed, spawn_key=tuple(path))
    return np.random.default_rng(seed_seq)


# numpy's SeedSequence (numpy/random/bit_generator.pyx): a 4-word pool
# of 32-bit words, its hash and mix constants, and PCG64's seed size.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_STATE_WORDS = 4  # PCG64 seeds from generate_state(4, np.uint64)

# The mixing below runs on 32-bit words held either as Python ints
# (words every stream shares) or as uint64 arrays with one row per
# stream; masking after each product keeps both exact mod 2**32.


def _hashmix(value, const: int):
    """numpy's ``hashmix``: the hashed word and the next hash constant."""
    next_const = (const * _MULT_A) & _MASK32
    value = ((value ^ const) * next_const) & _MASK32
    return value ^ (value >> _XSHIFT), next_const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _mix_in(pool: list, const: int, words) -> int:
    """Mix each further entropy word into every pool word, in place;
    returns the next hash constant."""
    for word in words:
        for dst in range(_POOL_SIZE):
            hashed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], hashed)
    return const


def _non_negative(value) -> int:
    """``value`` as a Python int, refused as ``SeedSequence`` refuses a
    float or a negative entropy or spawn-key element."""
    if isinstance(value, (float, np.inexact)):
        raise TypeError("seed must be integer")
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    return value


def _int_words(value) -> List[int]:
    """A non-negative integer as little-endian 32-bit words, the way
    ``SeedSequence`` reads its entropy and each spawn-key element."""
    value = _non_negative(value)
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _index_array(indices: Sequence[int]) -> np.ndarray:
    """``indices`` as a 1-D array of non-negative integers: uint64 when
    they all fit, else an object array of Python ints."""
    array = np.asarray(indices)
    if array.ndim == 1 and array.dtype.kind in "iu":
        if array.dtype.kind == "i" and np.any(array < 0):
            raise ValueError("expected non-negative integer")
        return array.astype(np.uint64)
    # Floats, bools, empty lists and Python ints past int64 (which numpy
    # may read as float64) go one at a time.
    values = [_non_negative(value) for value in indices]
    fits = not values or max(values) <= np.iinfo(np.uint64).max
    return np.array(values, dtype=np.uint64 if fits else object)


def _derive_states(
    root_seed: int, prefix: Sequence[int], indices: Sequence[int]
) -> np.ndarray:
    """The PCG64 seeds ``SeedSequence(root_seed, spawn_key=(*prefix, i))
    .generate_state(4, np.uint64)`` for every ``i``, one row each.

    The entropy is the root's words padded to the pool size, then each
    spawn-key element's words. Everything but the index is shared, so
    its mixing runs once on Python ints; the index words are mixed in
    as arrays, one pass per index width in words.
    """
    entropy = _int_words(root_seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    for element in prefix:
        entropy += _int_words(element)
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    const = _mix_in(pool, const, entropy[_POOL_SIZE:])

    values = _index_array(indices)
    states = np.empty((len(values), _STATE_WORDS), dtype=np.uint64)
    if not len(values):
        return states
    width = (int(values.max()).bit_length() + 31) // 32
    lengths = 1 + sum(((values >> (32 * k)) != 0) for k in range(1, width))
    for length in np.unique(lengths):
        rows = np.flatnonzero(lengths == length) if width > 1 else slice(None)
        selected = values[rows]
        group_pool = list(pool)
        _mix_in(
            group_pool,
            const,
            (
                ((selected >> (32 * k)) & _MASK32).astype(np.uint64)
                for k in range(int(length))
            ),
        )
        # generate_state(4, np.uint64): 8 words cycling through the pool,
        # read pairwise as little-endian uint64.
        words = []
        out_const = _INIT_B
        for index in range(2 * _STATE_WORDS):
            value = group_pool[index % _POOL_SIZE] ^ out_const
            out_const = (out_const * _MULT_B) & _MASK32
            value = (value * out_const) & _MASK32
            words.append(value ^ (value >> _XSHIFT))
        for column in range(_STATE_WORDS):
            states[rows, column] = words[2 * column] | (words[2 * column + 1] << 32)
    return states


class _DerivedSeed(ISeedSequence):
    """One row of :func:`_derive_states`: all that PCG64 asks of the
    seed sequence it is built from."""

    def __init__(self, state: np.ndarray) -> None:
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _STATE_WORDS or dtype != np.uint64:
            raise ValueError(
                "a derived seed only seeds PCG64: generate_state(4, np.uint64)"
            )
        return self._state


def generators_from_root(
    root_seed: int, prefix: Sequence[int], indices: Sequence[int]
) -> Iterator[np.random.Generator]:
    """``generator_from_root(root_seed, *prefix, i)`` for each ``i`` of
    ``indices``, in order, from one vectorised seed derivation.

    The seeds are derived by the call (32 bytes per index), so bad
    inputs fail there, as ``SeedSequence`` fails on them. Each generator
    is built only when the iteration reaches it, by numpy's own PCG64
    seeding, and its stream is bit-identical to
    :func:`generator_from_root`'s. Its ``bit_generator`` carries no
    spawnable seed sequence, so ``Generator.spawn`` is not available.
    """
    states = _derive_states(root_seed, prefix, indices)
    return (
        np.random.Generator(np.random.PCG64(_DerivedSeed(state)))
        for state in states
    )
