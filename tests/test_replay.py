"""Replayed tapes against fresh recordings.

``local_train`` records the first batch of each shape and replays that tape
for later batches of the same shape. A replayed step must give the loss,
stats and gradients of a step recorded afresh on the same values, bit for
bit, and must still run every check a recorded step runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgm import autodiff as ad
from fedgm import rng as streams
from fedgm.autodiff import Tape, backward
from fedgm.data import AugmentationSpec, DomainDataset, batch_iter
from fedgm.errors import DivergenceError, ShapeError, UsageError
from fedgm.federation import HyperParams, _matching_loss, local_train, plain_ce_loss
from fedgm.model import HeadSnapshot, init_params, stage_params


def _param_arrays(params):
    return [a for pair in params.feature for a in pair] + [params.head_w, params.head_b]


def _record(step, params, values):
    tape = Tape()
    staged = stage_params(tape, params)
    leaves = [tape.constant(v) for v in values]
    loss, stat_nodes = step.record(tape, staged, *leaves)
    return tape, staged, leaves, loss, stat_nodes


def _stats(tape, stat_nodes):
    return list(stat_nodes), np.array([float(tape.value(n)) for n in stat_nodes.values()]).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    widths=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    classes=st.integers(2, 4),
    batch=st.integers(2, 7),
    n_snaps=st.integers(0, 3),
    lam=st.sampled_from([0.0, 0.3, 1.0]),
    gm_enabled=st.booleans(),
    plain=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_replayed_steps_match_fresh_recordings(widths, classes, batch, n_snaps, lam, gm_enabled, plain, seed):
    rng = np.random.default_rng(seed)
    arch = [3] + widths
    params = init_params(arch, classes, seed)
    n = 3 * batch + int(rng.integers(1, batch))  # the last batch is short
    ds = DomainDataset(0, rng.normal(0.0, 1.5, (n, 3)), rng.integers(0, classes, n))
    snaps = [  # none: a round-1 client
        HeadSnapshot(j, rng.normal(0.0, 0.7, (classes, arch[-1])), rng.normal(0.0, 0.3, classes), 0)
        for j in range(n_snaps)
    ]
    hp = HyperParams(lam=lam, gm_enabled=gm_enabled)
    step = plain_ce_loss if plain else _matching_loss(snaps, hp, AugmentationSpec.gaussian_noise(0.3), rng)
    records = {}
    replayed = 0
    for epoch in range(2):
        for X, y in batch_iter(ds, batch, seed, epoch):
            values = step.feeds(X, y, classes)
            shapes = tuple(v.shape for v in values)
            if shapes in records:
                tape, staged, leaves, loss, stat_nodes = records[shapes]
                feeds = dict(zip(staged.all_ids(), _param_arrays(params)))
                feeds.update(zip(leaves, values))
                tape.replay(feeds)
                replayed += 1
            else:
                records[shapes] = _record(step, params, values)
            tape, staged, _, loss, stat_nodes = records[shapes]
            f_tape, f_staged, _, f_loss, f_stat_nodes = _record(step, params, values)
            assert tape.value(loss).tobytes() == f_tape.value(f_loss).tobytes()
            assert _stats(tape, stat_nodes) == _stats(f_tape, f_stat_nodes)
            grads = backward(tape, loss)
            f_grads = backward(f_tape, f_loss)
            for nid, f_nid in zip(staged.all_ids(), f_staged.all_ids()):
                assert grads[nid].tobytes() == f_grads[f_nid].tobytes()
            # move the parameters in place, as SGD does, so each step differs
            for f_nid, arr in zip(f_staged.all_ids(), _param_arrays(params)):
                arr -= 0.1 * f_grads[f_nid]
    assert replayed >= 4  # both batch shapes were replayed at least once


def test_tape_replay_rebinds_leaves_and_checks_them():
    tape = Tape()
    w = tape.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]), param=True)
    x = tape.constant(np.ones((3, 2)))
    z = ad.reduce_sum(tape, ad.relu(tape, ad.matmul(tape, x, ad.transpose(tape, w))))
    tape.replay({x: np.full((3, 2), -2.0)})
    assert float(tape.value(z)) == 0.0  # every pre-activation is negative now
    assert np.array_equal(backward(tape, z)[w], np.zeros((2, 2)))
    with pytest.raises(ShapeError, match=r"leaf 1 was recorded with dims \(3, 2\)"):
        tape.replay({x: np.ones((4, 2))})
    with pytest.raises(UsageError, match="not a leaf"):
        tape.replay({z: np.ones(())})


def _second_batch_row(ds, hp, round_t):
    """Index of a row that local_train's round ``round_t`` sees in its second batch."""
    epoch = (round_t - 1) * hp.local_epochs
    first, _ = next(batch_iter(ds, hp.batch, streams.subseed(hp.seed, streams.CLIENT), epoch))
    return next(i for i in range(ds.N) if not (first == ds.X[i]).all(axis=1).any())


def _two_batch_dataset(batch):
    rng = np.random.default_rng(4)
    return DomainDataset(1, rng.normal(0.0, 1.0, (2 * batch, 2)), np.arange(2 * batch) % 2)


@pytest.mark.parametrize("plain", [False, True])
def test_replayed_step_rejects_out_of_range_label(plain):
    hp = HyperParams(batch=4, lr0=0.05, lr1=0.01)
    ds = _two_batch_dataset(hp.batch)
    ds.y[_second_batch_row(ds, hp, 2)] = 7  # only the replayed batch is bad
    step = plain_ce_loss if plain else None
    with pytest.raises(UsageError, match=r"label 7 at index \d+ outside \[0, 2\)"):
        local_train(init_params([2, 4], 2, 0), ds, [], hp, 2, AugmentationSpec.identity(), step)


@pytest.mark.parametrize("plain", [False, True])
def test_replayed_step_rejects_non_finite_loss(plain):
    hp = HyperParams(batch=4, lr0=0.05, lr1=0.01)
    ds = _two_batch_dataset(hp.batch)
    ds.X[_second_batch_row(ds, hp, 2)] = 1e308  # only the replayed batch overflows
    step = plain_ce_loss if plain else None
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="at round 2, step 1"):
        local_train(init_params([2, 4], 2, 0), ds, [], hp, 2, AugmentationSpec.identity(), step)
