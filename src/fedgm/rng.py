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

``mix_draws`` gives the draws of ``amplitude_mix``'s per-row loop,
``[(g.integers(0, m), g.uniform(0.0, high)) for m in highs]``, from one
``random_raw`` call decoded as arrays: the same values and the same final
``bit_generator.state`` as those calls, the 32-bit buffer included. It
reproduces numpy's PCG64 draws, so it takes PCG64 generators only, which
is what ``substream`` gives. A bounded draw that numpy would reject and
redraw (probability below (m - 1) / 2**32 per row) is drawn by the scalar
calls, the rows around it by the array pass.
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


def _mix_pass(
    bitgen: np.random.PCG64, state: dict, highs: np.ndarray, high: float
) -> tuple[np.ndarray | None, np.ndarray | None, int | None]:
    """The draws of ``mix_draws`` over ``highs`` from ``bitgen`` in
    ``state``, its current state, taken from one ``random_raw`` call, and the
    index of the first row whose bounded draw numpy would reject (None if no
    row's is). ``bitgen`` is left where the scalar calls would leave it only
    when none is rejected.

    Each row with ``m > 1`` takes one 32-bit value: the buffered half if
    there is one, else the low half of a fresh word, whose high half is
    buffered. The value is ``(u * m) >> 32``, rejected while its low 32 bits
    fall below ``2**32 mod m``. A row with ``m = 1`` draws nothing. Every
    row's ``uniform`` then takes one fresh word and leaves the buffer alone.
    """
    buffered = state["has_uint32"]
    bounded = highs > 1
    # draw c takes a fresh word's low half when c + buffered is even
    fresh = bounded & ((np.cumsum(bounded) - bounded + buffered) % 2 == 0)
    offsets = np.cumsum(fresh) + np.arange(len(highs)) - fresh
    words = bitgen.random_raw(len(highs) + int(np.count_nonzero(fresh)))
    weights = 0.0 + high * ((words[offsets + fresh] >> np.uint64(11)) * 2.0**-53)

    # the 32-bit values in the order they are handed out: the buffered half
    # if any, then each fresh word's low and high halves
    fresh_words = words[offsets[fresh]]
    halves = np.empty(buffered + 2 * len(fresh_words), dtype=np.uint64)
    halves[:buffered] = state["uinteger"]
    halves[buffered::2] = fresh_words & np.uint64(_MASK32)
    halves[buffered + 1 :: 2] = fresh_words >> np.uint64(32)
    m = highs[bounded]
    scaled = halves[: len(m)] * m
    rejected = np.flatnonzero((scaled & np.uint64(_MASK32)) < np.uint64(2**32) % m)
    if len(rejected):
        return None, None, int(np.flatnonzero(bounded)[rejected[0]])
    draws = np.zeros(len(highs), dtype=np.int64)
    draws[bounded] = scaled >> np.uint64(32)
    # numpy leaves a used buffered half in place, so the last half buffered
    # stays in ``uinteger`` whether or not it was handed out
    after = bitgen.state
    after["has_uint32"] = (buffered + len(m)) % 2
    after["uinteger"] = int(halves[-1]) if len(halves) else state["uinteger"]
    bitgen.state = after
    return draws, weights, None


def mix_draws(generator: np.random.Generator, highs, high: float) -> tuple[np.ndarray, np.ndarray]:
    """``[(generator.integers(0, m), generator.uniform(0.0, high)) for m in
    highs]`` as an int64 and a float64 array, with the same bytes, leaving
    ``generator.bit_generator.state`` where those calls would, its 32-bit
    buffer included.

    The rows are drawn by array passes. On the first row whose bounded draw
    numpy would reject, the generator is rewound, the rows before it are
    drawn again by the array pass, that row by the scalar calls, and the
    pass resumes after it. Only ``PCG64`` generators are taken, and every
    ``m`` must lie in ``[1, 2**32)``, where numpy uses a 32-bit draw.
    """
    bitgen = generator.bit_generator
    if not isinstance(bitgen, np.random.PCG64):
        raise UsageError(f"mix_draws reproduces PCG64's draws only, got a {type(bitgen).__name__} generator")
    highs = np.asarray(highs)
    if highs.ndim != 1 or (highs.size and highs.dtype.kind not in "iu"):
        raise UsageError(f"highs must be a 1-d array of integers, got {highs.dtype} of shape {highs.shape}")
    if highs.size and not (highs.min() >= 1 and highs.max() <= _MASK32):
        raise UsageError(f"each high must lie in [1, 2**32), got {highs.min()} to {highs.max()}")
    highs = highs.astype(np.uint64)
    draws = np.zeros(len(highs), dtype=np.int64)
    weights = np.empty(len(highs))
    start = 0
    while start < len(highs):
        saved = bitgen.state
        rows_draws, rows_weights, rejected = _mix_pass(bitgen, saved, highs[start:], high)
        if rejected is None:
            draws[start:], weights[start:] = rows_draws, rows_weights
            break
        bitgen.state = saved
        end = start + rejected
        draws[start:end], weights[start:end], _ = _mix_pass(bitgen, saved, highs[start:end], high)
        draws[end] = generator.integers(0, int(highs[end]))
        weights[end] = generator.uniform(0.0, high)
        start = end + 1
    return draws, weights
