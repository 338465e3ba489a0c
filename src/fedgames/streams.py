"""Keyed per-step random streams, seeded from one table per episode and
stream family.

``harness._rng(*key)`` builds one numpy ``Generator`` from a key: a
``SeedSequence`` hashes the key's uint32 words into a pool, and PCG64
takes 4 uint64 words of that pool's output as its state. Building the
``SeedSequence`` and its state is most of that call's time, and an
episode builds one stream per step and stream family.

numpy's RNG policy (NEP 19) keeps ``SeedSequence``'s output stable
across versions, and its hash constants do not depend on the key. So the
words of every (seed, purpose, step) stream of an episode come from one
vectorized pass of the same hash over a (K, W) key array
(``seed_words``), and each step's generator is ``Generator(PCG64(s))``
with ``s`` an ``ISeedSequence`` that hands PCG64 that step's words
(``SeedTable``). Every draw is bit-identical to ``_rng(*key)``'s.

numpy.random is imported on first use, not when fedgames is imported.
"""

from __future__ import annotations

import functools

import numpy as np

# numpy.random.bit_generator.SeedSequence's constants, with its default
# pool of 4 words
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_UINT64_WORDS = 4  # the state words PCG64 asks for


def _powers(init: int, mult: int, count: int) -> np.ndarray:
    """(count, 1) uint32: init, init mult, init mult^2, ... modulo 2^32, as
    a column that broadcasts over a row of keys."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


@functools.cache
def _mix_constants(W: int) -> np.ndarray:
    """The entropy hash's constants for keys of W words: one per hashmix
    call of ``SeedSequence.mix_entropy``, and one more."""
    calls = _POOL + _POOL * (_POOL - 1) + _POOL * max(W - _POOL, 0)
    return _powers(_INIT_A, _MULT_A, calls + 1)


# the output hash runs over 2 * 4 uint32 words, the pool cycled twice
_OUT_CONSTANTS = _powers(_INIT_B, _MULT_B, 2 * _UINT64_WORDS + 1)
_MIX_L, _MIX_R = np.uint32(_MIX_MULT_L), np.uint32(_MIX_MULT_R)


def _hashmix(value: np.ndarray, consts: np.ndarray, k: int, width: int) -> np.ndarray:
    """SeedSequence's hashmix of ``value`` by the hash constants k..k+width-1,
    one per row (each call xors with its constant, then multiplies by the
    next)."""
    out = value ^ consts[k : k + width]
    out *= consts[k + 1 : k + width + 1]
    out ^= out >> _XSHIFT
    return out


def _mix_into(x: np.ndarray, y: np.ndarray) -> None:
    """x <- SeedSequence's mix(x, y); ``y`` is overwritten."""
    x *= _MIX_L
    y *= _MIX_R
    x -= y
    np.right_shift(x, _XSHIFT, out=y)
    x ^= y


def seed_words(keys: np.ndarray) -> np.ndarray:
    """(K, 4) uint64: row k is ``SeedSequence(keys[k]).generate_state(4,
    np.uint64)``, the state PCG64 seeds from, for the (K, W) uint32 entropy
    words ``keys``, all rows at once.

    The hash runs the steps of ``SeedSequence.mix_entropy`` and
    ``generate_state`` in order: the first 4 words into the pool (zeros
    past W), every pool word into every other, then each word past the
    fourth into every pool word. The hash constant advances once per
    hashmix call, and their count depends only on W, so the constants
    are one precomputed sequence and each step is one array operation
    over the K keys, held as the columns of a (4, K) pool."""
    words = np.asarray(keys, dtype=np.uint32).T
    W, K = words.shape
    consts = _mix_constants(W)
    pool = np.zeros((_POOL, K), dtype=np.uint32)
    pool[: min(W, _POOL)] = words[:_POOL]
    pool = _hashmix(pool, consts, 0, _POOL)
    k = _POOL
    for src in range(_POOL):
        # every other pool word, in order, takes one hash of word src
        h = _hashmix(pool[src], consts, k, _POOL - 1)
        k += _POOL - 1
        if src > 0:
            _mix_into(pool[:src], h[:src])
        if src < _POOL - 1:
            _mix_into(pool[src + 1 :], h[src:])
    for src in range(_POOL, W):
        _mix_into(pool, _hashmix(words[src], consts, k, _POOL))
        k += _POOL
    state = _hashmix(np.concatenate((pool, pool)), _OUT_CONSTANTS, 0, 2 * _UINT64_WORDS)
    # little-endian word pairs, as generate_state assembles them
    return np.ascontiguousarray(state.T).astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _int_words(n: int) -> list[int]:
    """The uint32 words ``SeedSequence`` reads from a nonnegative int:
    least significant first, one word for 0."""
    n = int(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def key_words(prefix: tuple, count: int) -> np.ndarray:
    """(count, W) uint32 entropy words of the keys (*prefix, i) for
    i < count, as ``SeedSequence`` reads a list of ints: each entry in its
    32-bit words, in order."""
    words = [w for entry in prefix for w in _int_words(entry)]
    keys = np.empty((count, len(words) + 1), dtype=np.uint32)
    keys[:, :-1] = words
    keys[:, -1] = np.arange(count)
    return keys


class SeedTable:
    """The generators of the streams keyed (*prefix, i), i < count, from
    one ``seed_words`` pass: ``table.rng(i)`` draws what ``_rng(*prefix,
    i)`` draws."""

    def __init__(self, prefix: tuple, count: int):
        from numpy.random import PCG64, Generator

        self._generator, self._bit_generator, self._seed = Generator, PCG64, _seed_type()
        self._words = seed_words(key_words(prefix, count))

    def rng(self, i: int):
        return self._generator(self._bit_generator(self._seed(self._words[i])))


@functools.cache
def _seed_type():
    """The ``ISeedSequence`` that hands PCG64 precomputed words, defined on
    first use so that importing fedgames does not import numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class TableSeed(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _UINT64_WORDS or np.dtype(dtype) != np.uint64:
                raise ValueError("a seed table holds the 4 uint64 words of a PCG64 state only")
            return self.words

    return TableSeed
