"""Named random substreams derived from one root seed.

Every source of randomness in an experiment hangs off the root seed through
a (stream, *indices) spawn key, so any component can be regenerated in
isolation: each client draws its batches and augmentations from its own
substream, whatever order the clients run in.
"""

from __future__ import annotations

import numpy as np

# Stream tags. Values are part of the reproducibility contract: changing
# them changes every derived stream.
DATA = 0
INIT = 1
CLIENT = 2
AUG = 3
SPLIT = 4


def substream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def subseed(seed: int, *key: int) -> int:
    """A 64-bit child seed for APIs that take a plain integer seed."""
    state = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)).generate_state(2, np.uint64)
    return int(state[0])
