"""Named random substreams derived from one root seed.

Every source of randomness in an experiment hangs off the root seed through
a (stream, *indices) spawn key, so any component can be regenerated in
isolation: each client draws its batches and augmentations from its own
substream, whatever order the clients run in.

``substream`` seeds one generator through numpy's ``SeedSequence``.
``substreams`` gives the generators of many consecutive keys, the same
streams byte for byte, by running ``SeedSequence``'s hashing once over an
array of keys. One ``SeedSequence`` per key was most of the cost of a
textured sample at side 8; the array pass derives a thousand keys' seeds in
about 0.4 ms (2-core Xeon, numpy 2.4). It costs about 300 µs whatever the
number of keys, some 15 times ``substream`` for one key, so scalar keys
stay on ``SeedSequence``, which is also the reference that ``substreams``
is tested against.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import UsageError

# Stream tags. Values are part of the reproducibility contract: changing
# them changes every derived stream.
DATA = 0
INIT = 1
CLIENT = 2
AUG = 3
SPLIT = 4

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx, NEP 19).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def substream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def subseed(seed: int, *key: int) -> int:
    """A 64-bit child seed for APIs that take a plain integer seed."""
    state = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)).generate_state(2, np.uint64)
    return int(state[0])


class _PCG64Seed(ISeedSequence):
    """The four uint64 words that a ``SeedSequence`` would hand ``PCG64``,
    derived in advance; any other request is refused."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise UsageError(f"a derived PCG64 seed gives 4 uint64 words only, not {n_words} of {np.dtype(dtype)}")
        return self._words


def _pcg64_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence.generate_state(4, np.uint64)`` for each row of an
    ``(n, W)`` uint32 array of assembled entropy with ``W >= 4``.

    The hash constants depend on no data, so each step of numpy's loops is
    one array operation over the rows; uint32 arrays wrap as its C code does.
    """
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    # mix_entropy: hash in the first pool-size words, mix every pool word
    # into every other, then mix each remaining word into every pool word.
    pool = [hashmix(entropy[:, i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, entropy.shape[1]):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[:, i_src]))

    # generate_state(4, np.uint64): eight uint32 words cycling over the pool,
    # read as little-endian pairs.
    hash_const = _INIT_B
    state = np.empty((entropy.shape[0], 8), dtype="<u4")
    for i_dst in range(8):
        value = pool[i_dst % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i_dst] = value ^ (value >> _XSHIFT)
    return state.view("<u8").astype(np.uint64)


def substreams(seed: int, *prefix: int, n: int) -> list[np.random.Generator]:
    """``[substream(seed, *prefix, i) for i in range(n)]``, the same streams
    byte for byte, derived in one array pass.

    Each key's entropy is assembled as ``SeedSequence`` does with a spawn key
    present: the seed's 32-bit words, zero-padded to the pool size of 4, then
    one word per key element. The rows then run through ``mix_entropy`` and
    ``generate_state(4, np.uint64)`` together, and each row seeds a ``PCG64``
    through a stub that answers only that request, so the generators'
    ``bit_generator.seed_seq`` cannot ``spawn``. Each prefix element and index
    must fit one 32-bit word, which keeps every row the same width.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    for k in prefix:
        if not 0 <= k <= _MASK32:
            raise UsageError(f"key elements must lie in [0, 2**32), got {k}")
    if not 0 <= n <= _MASK32 + 1:
        raise UsageError(f"n must lie in [0, 2**32] so that every index fits one word, got {n}")
    if n == 0:
        return []
    # The seed's little-endian words, zero-padded to the pool size.
    seed_words = max(_POOL_SIZE, -(-seed.bit_length() // 32))
    entropy = np.empty((n, seed_words + len(prefix) + 1), dtype=np.uint32)
    entropy[:, :seed_words] = np.frombuffer(seed.to_bytes(4 * seed_words, "little"), dtype="<u4")
    entropy[:, seed_words:-1] = prefix
    entropy[:, -1] = np.arange(n, dtype=np.uint32)
    return [np.random.Generator(np.random.PCG64(_PCG64Seed(words))) for words in _pcg64_states(entropy)]
