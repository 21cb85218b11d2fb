import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedgm import rng as streams
from fedgm.errors import UsageError


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**64 - 1),
    prefix=st.lists(st.integers(0, 2**32 - 1), max_size=3),
    n=st.integers(0, 40),
)
@example(seed=0, prefix=[], n=3)
@example(seed=2**32, prefix=[0], n=2)
@example(seed=2**64 - 1, prefix=[2**32 - 1, 0, 7], n=5)
def test_substreams_match_substream(seed, prefix, n):
    generators = streams.substreams(seed, *prefix, n=n)
    assert len(generators) == n
    for i, g in enumerate(generators):
        ref = streams.substream(seed, *prefix, i)
        assert g.bit_generator.state == ref.bit_generator.state
        assert g.normal(0.0, 1.0, size=5).tobytes() == ref.normal(0.0, 1.0, size=5).tobytes()
        assert g.integers(0, 2**63, size=3).tobytes() == ref.integers(0, 2**63, size=3).tobytes()


def test_substreams_of_no_keys_is_empty():
    assert streams.substreams(5, 1, n=0) == []


@pytest.mark.parametrize(
    "seed, prefix, n",
    [(-1, (), 2), (0, (-1,), 2), (0, (1, 2**32), 2), (0, (), -1), (0, (), 2**32 + 1)],
)
def test_substreams_reject_keys_outside_their_words(seed, prefix, n):
    with pytest.raises(UsageError):
        streams.substreams(seed, *prefix, n=n)


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (2, np.uint64), (8, np.uint64), (4, np.float64)])
def test_derived_seed_answers_only_pcg64s_request(n_words, dtype):
    (g,) = streams.substreams(3, 1, n=1)
    seed_seq = g.bit_generator.seed_seq
    assert seed_seq.generate_state(4, np.uint64).tobytes() == (
        np.random.SeedSequence(entropy=3, spawn_key=(1, 0)).generate_state(4, np.uint64).tobytes()
    )
    with pytest.raises(UsageError, match="4 uint64 words only"):
        seed_seq.generate_state(n_words, dtype)


def _scalar_mix_draws(g, highs, high):
    """The per-row calls that ``mix_draws`` reproduces."""
    pairs = [(g.integers(0, m), g.uniform(0.0, high)) for m in highs]
    return np.array([j for j, _ in pairs], dtype=np.int64), np.array([w for _, w in pairs], dtype=np.float64)


def _assert_same_draws(g, twin, highs, high):
    draws, weights = streams.mix_draws(g, highs, high)
    ref_draws, ref_weights = _scalar_mix_draws(twin, highs, high)
    assert draws.dtype == np.int64 and weights.dtype == np.float64
    assert draws.tobytes() == ref_draws.tobytes()
    assert weights.tobytes() == ref_weights.tobytes()
    assert g.bit_generator.state == twin.bit_generator.state
    assert g.integers(0, 7, size=3).tobytes() == twin.integers(0, 7, size=3).tobytes()
    assert g.random(2).tobytes() == twin.random(2).tobytes()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**64 - 1),
    batch=st.integers(2, 20),
    full=st.integers(0, 4),
    short=st.integers(0, 19),
    eta=st.floats(0.0, 1.0),
    buffered=st.booleans(),
)
@example(seed=0, batch=2, full=3, short=0, eta=0.0, buffered=False)
@example(seed=5, batch=2, full=0, short=0, eta=0.5, buffered=True)
@example(seed=2**64 - 1, batch=20, full=2, short=2, eta=1.0, buffered=True)
def test_mix_draws_match_the_per_row_calls(seed, batch, full, short, eta, buffered):
    # the rows of amplitude_mix's epochs: full batches and a short last one
    # of at least 2 rows; each row draws among its batch's other rows, so a
    # 2-row batch draws from one value, which numpy returns without a draw
    short %= batch
    sizes = [batch] * full + ([short] if short >= 2 else [])
    highs = [rows - 1 for rows in sizes for _ in range(rows)]
    g, twin = streams.substream(seed, 3), streams.substream(seed, 3)
    if buffered:  # start on a buffered 32-bit half
        assert g.integers(0, 5) == twin.integers(0, 5)
    _assert_same_draws(g, twin, highs, eta)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**64 - 1),
    highs=st.lists(st.integers(1, 2**32 - 1), max_size=24),
    buffered=st.booleans(),
)
def test_mix_draws_match_the_per_row_calls_over_wide_ranges(seed, highs, buffered):
    # numpy rejects a bounded draw with probability up to (m - 1) / 2**32,
    # so ranges near 2**32 reject often, several times in one call
    g, twin = streams.substream(seed), streams.substream(seed)
    if buffered:
        assert g.integers(0, 5) == twin.integers(0, 5)
    _assert_same_draws(g, twin, highs, 0.7)


# PCG64 steps its 128-bit state, then outputs the XOR of the new state's
# halves rotated by its top 6 bits; a new state below 2**64 outputs itself.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG64_MULT_INV = pow(_PCG64_MULT, -1, 2**128)


def _generator_with_word(word, position, has_uint32=0, uinteger=0):
    """A PCG64 generator whose raw word number ``position`` (from 0) is
    ``word``, and an independent twin in the same state."""
    state = np.random.PCG64(11).state
    s, inc = word, state["state"]["inc"]
    for _ in range(position + 1):
        s = ((s - inc) * _PCG64_MULT_INV) % 2**128
    state = {**state, "state": {"state": s, "inc": inc}, "has_uint32": has_uint32, "uinteger": uinteger}
    g, twin = np.random.Generator(np.random.PCG64()), np.random.Generator(np.random.PCG64())
    g.bit_generator.state = twin.bit_generator.state = state
    probe = np.random.PCG64()
    probe.state = state
    assert int(probe.random_raw(position + 1)[-1]) == word
    return g, twin


# Six rows drawing from 5 values each, 2**32 mod 5 = 1, so a 32-bit value of
# 0 is rejected. With no buffered half, row r's bounded draw takes the low
# half of word 3r/2 for even r and the high half of word 3(r-1)/2 for odd r;
# starting on a buffered half, row 0 takes it and row 5 the low half of word 7.
@pytest.mark.parametrize(
    "word, position, has_uint32, uinteger",
    [
        pytest.param(1 << 32, 0, 0, 0, id="first-row"),
        pytest.param(0, 0, 0, 0, id="first-row-twice"),
        pytest.param(1 << 32, 3, 0, 0, id="middle-row"),
        pytest.param(0, 3, 0, 0, id="middle-row-twice"),
        pytest.param(1, 3, 0, 0, id="buffered-half-of-a-fresh-word"),
        pytest.param(7 << 32, 0, 1, 0, id="buffered-half-at-the-start"),
        pytest.param(0, 7, 1, 9, id="last-row-twice-from-a-buffered-start"),
    ],
)
def test_mix_draws_redraw_a_rejected_row_as_numpy_does(word, position, has_uint32, uinteger):
    g, twin = _generator_with_word(word, position, has_uint32, uinteger)
    _assert_same_draws(g, twin, [5] * 6, 0.4)


def test_mix_draws_take_pcg64_generators_only():
    with pytest.raises(UsageError, match="PCG64's draws only, got a MT19937"):
        streams.mix_draws(np.random.Generator(np.random.MT19937(0)), [3, 3], 0.5)


@pytest.mark.parametrize("highs", [[0, 3], [3, 2**32], [-1], [2.0, 3.0], [[3, 3]], [2**70]])
def test_mix_draws_reject_highs_outside_a_32_bit_draw(highs):
    with pytest.raises(UsageError):
        streams.mix_draws(streams.substream(0), highs, 0.5)
