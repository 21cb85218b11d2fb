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
