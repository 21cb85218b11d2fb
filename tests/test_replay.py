"""Compiled steps against fresh recordings.

``local_train`` trains its clients in lockstep: it records the first batch
of each feed shape eagerly, once, for client 0, compiles that tape into one
step for all the clients (``autodiff.compile_step``), which calls of the
same structure share, and runs every batch of that shape, the first
included, for every client at once through it. On the first batch it
differentiates the tape with ``backward`` and raises OracleError unless the
compiled slice 0 matches.
Each client's slice of a compiled step must give the loss, stats and
gradients of that client's step recorded afresh on the same values, bit for
bit, and the checks of a recorded step must still run on it.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgm import autodiff as ad
from fedgm import federation
from fedgm import rng as streams
from fedgm.autodiff import Tape, backward, compile_step
from fedgm.data import AugmentationSpec, DomainDataset, batch_iter
from fedgm.errors import DivergenceError, OracleError, ShapeError, UsageError
from fedgm.federation import HyperParams, _matching_loss, _Recorded, cosine_lr, local_train, plain_ce_loss
from fedgm.model import HeadSnapshot, ModelParams, flatten, init_params, stage_params


def _record(step, params, values):
    tape = Tape()
    staged = stage_params(tape, params)
    leaves = [tape.constant(v) for v in values]
    loss, stat_nodes = step.record(tape, staged, *leaves)
    return tape, staged, leaves, loss, stat_nodes


def _fresh(step, params, values):
    """Stats and gradients of the step recorded afresh, as bytes."""
    tape, staged, _, loss, stat_nodes = _record(step, params, values)
    assert stat_nodes["total"] == loss
    grads = backward(tape, loss)
    return (
        np.array([float(tape.value(n)) for n in stat_nodes.values()]).tobytes(),
        [grads[nid].tobytes() for nid in staged.all_ids()],
    )


def _compiled(rec, params, clients):
    """Each client's stats and gradients of the recorded step ``rec`` run
    compiled on ``params`` and the clients' values ``clients``, as bytes."""
    for nid, arr in zip(rec.tape.params, params.arrays()):  # move the bound parameters in place, as SGD does
        rec.args[rec.step.leaves.index((nid,))][:] = arr
    outs, grads = rec.run(clients, slice(None), {})
    return [
        (np.array([float(v[i]) for v in outs]).tobytes(), [np.asarray(g[i]).tobytes() for g in grads])
        for i in range(len(clients))
    ]


def _recorded(step, params, clients):
    """The recording of the first client values in ``clients``, compiled for
    all of them, as local_train keeps it."""
    tape, _, leaves, loss, stat_nodes = _record(step, params, clients[0])
    return _Recorded(tape, [np.stack([a] * len(clients)) for a in params.arrays()], leaves, loss, stat_nodes)


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
        HeadSnapshot(j, rng.normal(0.0, 0.7, (classes, arch[-1])), rng.normal(0.0, 0.3, classes))
        for j in range(n_snaps)
    ]
    hp = HyperParams(lam=lam, gm_enabled=gm_enabled)
    step = plain_ce_loss if plain else _matching_loss(snaps, hp, AugmentationSpec.gaussian_noise(0.3))
    records = {}
    compiled = 0
    for epoch in range(2):
        for X, y in batch_iter(ds, batch, seed, epoch):
            values = [ad.as_tensor(v) for v in step.feeds(X, y, classes, rng=rng)]
            shapes = tuple(v.shape for v in values)
            fresh = _fresh(step, params, values)
            if shapes in records:
                assert _compiled(records[shapes], params, [values]) == [fresh]
                compiled += 1
            else:
                records[shapes] = _recorded(step, params, [values])
            # move the parameters in place, as SGD does, so each step differs
            tape, staged, _, loss, _ = _record(step, params, values)
            grads = backward(tape, loss)
            for nid, arr in zip(staged.all_ids(), params.arrays()):
                arr -= 0.1 * grads[nid]
    assert compiled >= 4  # both batch shapes ran compiled at least once


def _saturating_params():
    """One relu layer and a head whose logits on ``_SATURATED`` rows differ by 1000."""
    return ModelParams(
        arch=[2, 2],
        classes=2,
        feature=[(np.eye(2), np.zeros(2))],
        head_w=np.array([[100.0, 0.0], [0.0, 0.0]]),
        head_b=np.zeros(2),
    )


_SATURATED = np.tile([10.0, 0.0], (4, 1))  # softmax is exactly one-hot on class 0
_UNIFORM = np.zeros((4, 2))  # zero features: both classes at 0.5
_LABELS = np.zeros(4, dtype=np.int64)


def _l2_norms(step, params, X):
    tape, *_ = _record(step, params, step.feeds(X, _LABELS, 2))
    return [float(tape.value(nid)) for nid, kind in enumerate(tape.ops) if kind == "l2-norm"]


@pytest.mark.parametrize("recorded, compiled", [(_UNIFORM, _SATURATED), (_SATURATED, _UNIFORM)])
def test_zero_norm_subgradient_decided_per_step(recorded, compiled, monkeypatch):
    monkeypatch.setattr(ad, "_STEP_CACHE", {})  # compile from this recording
    params = _saturating_params()
    snaps = [HeadSnapshot(1, np.array([[100.0, 0.0], [0.0, 0.0]]), np.zeros(2))]
    step = _matching_loss(snaps, HyperParams(lam=0.5), AugmentationSpec.identity())
    # the matched head gradients vanish exactly on the saturated batch only
    assert min(_l2_norms(step, params, _SATURATED)) == 0.0
    assert min(_l2_norms(step, params, _UNIFORM)) > 0.0
    rec = _recorded(step, params, [step.feeds(recorded, _LABELS, 2)])
    values = step.feeds(compiled, _LABELS, 2)
    (got,) = _compiled(rec, params, [values])
    assert got == _fresh(step, params, values)
    assert all(np.isfinite(np.frombuffer(g)).all() for g in got[1])


def test_zero_norm_subgradient_taken_by_one_slice_only(monkeypatch):
    monkeypatch.setattr(ad, "_STEP_CACHE", {})
    params = _saturating_params()
    snaps = [HeadSnapshot(1, np.array([[100.0, 0.0], [0.0, 0.0]]), np.zeros(2))]
    step = _matching_loss(snaps, HyperParams(lam=0.5), AugmentationSpec.identity())
    rec = _recorded(step, params, [step.feeds(X, _LABELS, 2) for X in (_UNIFORM, _UNIFORM)])
    # one client's head-gradient norms vanish, the other's do not, in one call
    for batches in ((_SATURATED, _UNIFORM), (_UNIFORM, _SATURATED)):
        clients = [step.feeds(X, _LABELS, 2) for X in batches]
        got = _compiled(rec, params, clients)
        assert got == [_fresh(step, params, values) for values in clients]
        assert all(np.isfinite(np.frombuffer(g)).all() for client in got for g in client[1])


def test_calls_share_one_compiled_step_with_their_own_snapshot_heads():
    rng = np.random.default_rng(7)
    params = init_params([3, 5], 3, 7)
    X, y = rng.normal(0.0, 1.0, (6, 3)), rng.integers(0, 3, 6)
    hp = HyperParams(lam=0.3)
    results = []
    steps = []
    for call in range(2):
        snaps = [HeadSnapshot(j, rng.normal(0.0, 0.7, (3, 5)), rng.normal(0.0, 0.3, 3)) for j in range(2)]
        step = _matching_loss(snaps, hp, AugmentationSpec.identity())
        values = step.feeds(X, y, 3)
        rec = _recorded(step, params, [values])
        (got,) = _compiled(rec, params, [values])
        assert got == _fresh(step, params, values)
        results.append(got)
        steps.append(rec.step)
    assert steps[0] is steps[1]
    assert results[0] != results[1]  # the snapshot heads are arguments, not baked in
    # scale constants such as lambda are baked in, so another lambda compiles anew
    step = _matching_loss(snaps, HyperParams(lam=0.7), AugmentationSpec.identity())
    rec = _recorded(step, params, [values])
    assert _compiled(rec, params, [values]) == [_fresh(step, params, values)]
    assert rec.step is not steps[0]


def test_local_train_calls_share_compiled_steps(monkeypatch):
    monkeypatch.setattr(ad, "_STEP_CACHE", {})
    rng = np.random.default_rng(3)
    ds = DomainDataset(0, rng.normal(0.0, 1.0, (20, 2)), np.arange(20) % 2)
    hp = HyperParams(batch=4, lr0=0.05, lr1=0.01)
    for t in (2, 3):
        heads = [HeadSnapshot(1, rng.normal(0.0, 0.5, (2, 4)), rng.normal(0.0, 0.1, 2))]
        local_train(init_params([2, 4], 2, 0), [ds], _matching_loss(heads, hp, AugmentationSpec.identity()), hp, t)
    assert len(ad._STEP_CACHE) == 1  # one batch shape, one tape structure


def test_compiled_step_takes_every_leaf_and_checks_shapes():
    tape = Tape()
    w = tape.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]), param=True)
    x = tape.constant(np.ones((3, 2)))
    z = ad.reduce_sum(tape, ad.relu(tape, ad.matmul(tape, x, ad.transpose(tape, w))))
    c = tape.constant(2.0)  # a leaf recorded after the loss is an argument too
    step = compile_step(tape, 1, z, [z, c])
    assert step is compile_step(tape, 1, z, [z, c])
    assert step.source.startswith("def step(v0, v1, v6):")
    # every value carries a leading client axis, here of one client
    (total, two), (g,) = step(tape.value(w)[None], np.full((1, 3, 2), -2.0), np.array([5.0]))
    assert float(total[0]) == 0.0 and float(two[0]) == 5.0  # every pre-activation is negative now
    assert np.array_equal(g, np.zeros((1, 2, 2)))
    with pytest.raises(ShapeError, match=r"leaf 1 was recorded with dims \(1, 3, 2\), got \(1, 4, 2\)"):
        step(tape.value(w)[None], np.ones((1, 4, 2)), np.array([2.0]))


def test_step_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(ad, "_STEP_CACHE", {})
    for k in range(ad._STEP_CACHE_SIZE + 3):
        tape = Tape()
        w = tape.leaf(np.ones(k + 1), param=True)
        compile_step(tape, 1, ad.reduce_sum(tape, w), [])
    assert len(ad._STEP_CACHE) == ad._STEP_CACHE_SIZE


def _batch_row(ds, hp, round_t, second):
    """Index of a row that local_train's round ``round_t`` sees in its first
    batch, or, ``second``, in its second."""
    epoch = (round_t - 1) * hp.local_epochs
    first, _ = next(batch_iter(ds, hp.batch, streams.subseed(hp.seed, streams.CLIENT), epoch))
    in_first = [bool((first == row).all(axis=1).any()) for row in ds.X]
    return in_first.index(not second)


def _two_batch_dataset(batch):
    rng = np.random.default_rng(4)
    return DomainDataset(1, rng.normal(0.0, 1.0, (2 * batch, 2)), np.arange(2 * batch) % 2)


# (plain, second): a bad row in the second batch, or in the first
_BAD_BATCH = [
    pytest.param(False, True, id="False"),
    pytest.param(True, True, id="True"),
    pytest.param(False, False, id="False-first-batch"),
    pytest.param(True, False, id="True-first-batch"),
]


@pytest.mark.parametrize("plain, second", _BAD_BATCH)
def test_replayed_step_rejects_out_of_range_label(plain, second):
    hp = HyperParams(batch=4, lr0=0.05, lr1=0.01)
    ds = _two_batch_dataset(hp.batch)
    ds.y[_batch_row(ds, hp, 2, second)] = 7  # only one batch is bad
    step = plain_ce_loss if plain else _matching_loss([], hp, AugmentationSpec.identity())
    with pytest.raises(UsageError, match=r"label 7 at index \d+ outside \[0, 2\)"):
        local_train(init_params([2, 4], 2, 0), [ds], step, hp, 2)


@pytest.mark.parametrize("plain, second", _BAD_BATCH)
def test_replayed_step_rejects_non_finite_loss(plain, second):
    hp = HyperParams(batch=4, lr0=0.05, lr1=0.01)
    ds = _two_batch_dataset(hp.batch)
    ds.X[_batch_row(ds, hp, 2, second)] = 1e308  # only one batch overflows
    step = plain_ce_loss if plain else _matching_loss([], hp, AugmentationSpec.identity())
    # the divergence check runs before the oracle check, so a bad first batch diverges too
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match=f"at round 2, step {int(second)}"):
        local_train(init_params([2, 4], 2, 0), [ds], step, hp, 2)


def _lockstep_call(k):
    """local_train's arguments for k clients of 10 rows: batches of 4, 4 and 2 rows."""
    rng = np.random.default_rng(5)
    datasets = [DomainDataset(d, rng.normal(0.0, 1.0, (10, 2)), np.arange(10) % 2) for d in range(k)]
    heads = [HeadSnapshot(j, rng.normal(0.0, 0.5, (2, 4)), rng.normal(0.0, 0.1, 2)) for j in range(3)]
    hp = HyperParams(batch=4, local_epochs=2, lr0=0.05, lr1=0.01)
    return init_params([2, 4], 2, 0), datasets, _matching_loss(heads, hp, AugmentationSpec.gaussian_noise(0.1)), hp, 2


@pytest.mark.parametrize("k", [1, 3])
def test_backward_runs_once_per_feed_shape_on_client_0(k):
    calls, recordings = [], []
    real_backward, real_loss = federation.backward, federation.local_loss

    def spy(tape, loss):
        calls.append(tape)
        return real_backward(tape, loss)

    def spy_loss(tape, *args, **kwargs):
        recordings.append(tape)
        return real_loss(tape, *args, **kwargs)

    initial, datasets, step_loss, hp, round_t = _lockstep_call(k)
    with mock.patch.object(federation, "backward", spy), mock.patch.object(federation, "local_loss", spy_loss):
        for call in range(2):
            local_train(initial, datasets, step_loss, hp, round_t)
            # two feed shapes (batches of 4 and 2 rows), each recorded and
            # checked once, whatever the number of clients
            assert len(calls) == len(recordings) == 2 * (call + 1)
    assert calls == recordings  # backward differentiates the one recording
    epoch = (round_t - 1) * hp.local_epochs
    X0 = next(batch_iter(datasets[0], hp.batch, streams.subseed(hp.seed, streams.CLIENT), epoch))[0]
    # the first check differentiates client 0's recording of its first batch
    assert any(np.array_equal(v, X0) for v in calls[0].vals)


@pytest.mark.parametrize("what", ["total", "gradient"])
def test_compiled_slice_0_off_by_one_ulp_is_an_oracle_error(what):
    compiles = []
    real = federation.compile_step

    def off_by_one_ulp(*args):
        step = real(*args)
        compiles.append(args[1])

        def bumped(*values):
            outs, grads = map(list, step(*values))
            arrays, j = (outs, list(args[3]).index(args[2])) if what == "total" else (grads, -1)
            arrays[j] = arrays[j].copy()
            arrays[j][0] = np.nextafter(arrays[j][0], np.inf)
            return outs, grads

        bumped.leaves = step.leaves
        return bumped

    with mock.patch.object(federation, "compile_step", off_by_one_ulp):
        with pytest.raises(OracleError, match="client 0's"):
            local_train(*_lockstep_call(3))
    assert compiles == [3]  # an engine fault, raised from the one step of the call


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 3),
    widths=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    classes=st.integers(2, 4),
    batch=st.integers(2, 6),
    n_snaps=st.integers(0, 5),
    lam=st.sampled_from([0.0, 0.3, 1.0]),
    gm_enabled=st.booleans(),
    plain=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_lockstep_clients_match_separate_eager_steps(k, widths, classes, batch, n_snaps, lam, gm_enabled, plain, seed):
    rng = np.random.default_rng(seed)
    arch = [3] + widths
    initial = init_params(arch, classes, seed)
    n = 2 * batch + int(rng.integers(1, batch))  # the last batch is short
    datasets = [DomainDataset(d, rng.normal(0.0, 1.5, (n, 3)), rng.integers(0, classes, n)) for d in range(k)]
    heads = [
        HeadSnapshot(j, rng.normal(0.0, 0.7, (classes, arch[-1])), rng.normal(0.0, 0.3, classes))
        for j in range(n_snaps)
    ]
    hp = HyperParams(lam=lam, gm_enabled=gm_enabled, local_epochs=2, batch=batch, lr0=0.05, lr1=0.01, seed=seed)
    aug = AugmentationSpec.gaussian_noise(0.3)
    step = plain_ce_loss if plain else _matching_loss(heads, hp, aug)
    round_t = 2
    # the optimizer sees every step's (k, P) gradient buffer and ends with the momentum
    steps, compiles = [], []
    sgd_step, compile_fn = federation._sgd_step, federation.compile_step

    def spy_sgd(flat, grad, velocity, lr, hp_):
        steps.append((grad.copy(), velocity))
        sgd_step(flat, grad, velocity, lr, hp_)

    ends = np.cumsum([a.size for a in initial.arrays()])[:-1]

    def per_param(buf, i):  # client i's part of each parameter in a (k, P) buffer, as bytes
        return [part.tobytes() for part in np.split(buf[i], ends)]

    def spy_compile(*args):
        compiles.append(args[1])
        return compile_fn(*args)

    with mock.patch.object(federation, "_sgd_step", spy_sgd), mock.patch.object(federation, "compile_step", spy_compile):
        updates = local_train(initial, datasets, step, hp, round_t)
    assert compiles == [k, k]  # the full and the short batch each compiled once, when first recorded
    velocity_end = steps[-1][1]
    # the oracle: each client alone, every step recorded afresh
    for i, ds in enumerate(datasets):
        aug_rng = streams.substream(hp.seed, streams.AUG, ds.domain_id, round_t)
        params = initial.copy()
        velocity = [np.zeros_like(a) for a in params.arrays()]
        sums, count = {}, 0
        for epoch in (2, 3):
            for X, y in batch_iter(ds, batch, streams.subseed(hp.seed, streams.CLIENT), epoch):
                tape, staged, _, loss, stat_nodes = _record(step, params, step.feeds(X, y, classes, rng=aug_rng))
                by_id = backward(tape, loss)
                grads = [by_id[nid] for nid in staged.all_ids()]
                assert [g.tobytes() for g in grads] == per_param(steps[count][0], i)
                for name, nid in stat_nodes.items():
                    sums[name] = sums.get(name, 0.0) + float(tape.value(nid))
                lr = cosine_lr(round_t, hp)
                for arr, g, v in zip(params.arrays(), grads, velocity):
                    v *= hp.momentum
                    v += g
                    arr -= lr * v + lr * hp.weight_decay * arr
                count += 1
        assert count == len(steps) == 6
        assert flatten(updates[i].params).tobytes() == flatten(params).tobytes()
        assert per_param(velocity_end, i) == [v.tobytes() for v in velocity]
        assert updates[i].train_stats == {name: total / count for name, total in sums.items()}


def test_three_clients_share_one_compiled_step_per_batch_shape(monkeypatch):
    monkeypatch.setattr(ad, "_STEP_CACHE", {})
    local_train(*_lockstep_call(3))
    # batches of 4, 4 and 2 rows: one function for each shape, each for all 3 clients
    assert sorted(key[0] for key in ad._STEP_CACHE) == [3, 3]


def test_feeds_are_built_once_per_client_and_epoch():
    calls = {"augment": [], "one_hot": []}
    real_augment, real_one_hot = federation.augment, federation.one_hot

    def spy_augment(X, spec, rng, batch=None):
        calls["augment"].append((len(X), batch))
        return real_augment(X, spec, rng, batch)

    def spy_one_hot(y, classes):
        calls["one_hot"].append(len(y))
        return real_one_hot(y, classes)

    initial, datasets, step_loss, hp, round_t = _lockstep_call(3)
    with mock.patch.object(federation, "augment", spy_augment), mock.patch.object(federation, "one_hot", spy_one_hot):
        local_train(initial, datasets, step_loss, hp, round_t)
    # 3 clients x 2 epochs, each call on a client's whole epoch of 10 rows;
    # one call per batch would be 3 clients x 2 epochs x 3 batches
    assert calls == {"augment": [(10, hp.batch)] * 6, "one_hot": [10] * 6}


def test_the_view_pair_is_stacked_once_per_epoch(monkeypatch):
    stacks = []
    real_stack = np.stack

    def spy(arrays, axis=0, **kwargs):
        arrays = list(arrays)
        if axis == 1:
            stacks.append(arrays[0].shape)
        return real_stack(arrays, axis=axis, **kwargs)

    initial, datasets, _, hp, _ = _lockstep_call(3)
    monkeypatch.setattr(np, "stack", spy)
    step_loss = _matching_loss([], hp, AugmentationSpec.gaussian_noise(0.1))  # round 1: no snapshot heads to group
    local_train(initial, datasets, step_loss, hp, 1)
    # the batch and its view of 3 clients, for a whole epoch of 10 rows, once in each of 2 epochs
    assert stacks == [(3, 10, 2)] * 2


def test_an_epoch_holds_its_view_pair_twice_not_three_times(monkeypatch):
    # the clients' epoch feeds, and the step's stack of the batch and its view
    k, n, d = 3, 400, 256
    rng = np.random.default_rng(16)
    datasets = [DomainDataset(i, rng.normal(0.0, 1.0, (n, d)), np.arange(n) % 2) for i in range(k)]
    alive = []
    real_run = _Recorded.run

    def spy(rec, *args):
        alive.append(tracemalloc.get_traced_memory()[0] - base)
        return real_run(rec, *args)

    monkeypatch.setattr(_Recorded, "run", spy)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        hp = HyperParams(batch=100)
        step_loss = _matching_loss([], hp, AugmentationSpec.gaussian_noise(0.1))
        local_train(init_params([d, 4], 2, 0), datasets, step_loss, hp, 1)
    finally:
        tracemalloc.stop()
    pair = 2 * k * n * d * 8  # bytes of the clients' epoch rows and their augmented views
    assert len(alive) == 4 and max(alive[1:]) < 2.75 * pair


def test_stacked_constants_keep_their_memory_order():
    # BLAS rounds a one-row product by the memory order of its operands, and
    # snapshot heads are recorded transposed
    rng = np.random.default_rng(2)
    snaps = [HeadSnapshot(j, rng.normal(0.0, 0.7, (3, 8)), rng.normal(0.0, 0.3, 3)) for j in range(2)]
    step = _matching_loss(snaps, HyperParams(lam=0.3), AugmentationSpec.identity())
    params = init_params([3, 8], 3, 0)
    clients = [step.feeds(rng.normal(0.0, 1.0, (1, 3)), [c], 3) for c in range(2)]
    rec = _recorded(step, params, clients)
    assert _compiled(rec, params, clients) == [_fresh(step, params, values) for values in clients]
    # the two snapshot heads, stacked for the compiled step as the two lanes of
    # one argument, are still transposed per client and lane
    tape = rec.tape
    constants = [nid for nid, kind in enumerate(tape.ops) if kind == ad.LEAF and nid not in tape.params]
    ids = tuple(nid for nid in constants if tape.value(nid).shape == (8, 3))
    heads = rec.args[rec.step.leaves.index(ids)]
    assert [heads[i, j].strides for i in range(2) for j in range(2)] == [(8, 64)] * 4


def _every_op_tape(w_val, s_val, x_val):
    """A scalar loss that uses every op tag, with a matrix-plus-scalar and a
    matrix-minus-row broadcast, on a (3, 4) weight, a scalar and a (5, 4) batch."""
    tape = Tape()
    w, s = tape.leaf(w_val, param=True), tape.leaf(s_val, param=True)
    x = tape.constant(x_val)
    h = ad.relu(tape, ad.matmul(tape, x, ad.transpose(tape, w)))
    z = ad.sub(tape, ad.add(tape, h, ad.scale(tape, s, 2.0)), tape.constant(np.arange(3.0)))
    e = ad.exp(tape, ad.log_softmax_rows(tape, z))
    f = ad.flatten_concat(tape, (e, w))
    q = ad.div(tape, ad.dot(tape, f, f), ad.add(tape, ad.l2_norm(tape, f), s))
    m = ad.reduce_mean(tape, ad.mul(tape, e, h))
    return tape, ad.add(tape, ad.add(tape, q, m), ad.reduce_sum(tape, ad.mul(tape, z, z)))


def test_every_op_compiles_to_each_clients_eager_bytes():
    rng = np.random.default_rng(11)
    recorded = [_every_op_tape(rng.normal(size=(3, 4)), rng.uniform(0.5, 1.0), rng.normal(size=(5, 4))) for _ in range(2)]
    tapes, loss = [t for t, _ in recorded], recorded[0][1]
    assert set(tapes[0].ops) == {ad.LEAF, *ad.OP_TAGS}
    # compiled from one tape, the step takes each client's own value of every
    # leaf, the constants included
    step = compile_step(tapes[0], 2, loss, [loss])
    leaves = [nid for nid, kind in enumerate(tapes[0].ops) if kind == ad.LEAF]
    (total,), grads = step(*(np.stack([t.value(nid) for t in tapes]) for nid in leaves))
    for i, tape in enumerate(tapes):
        by_id = backward(tape, loss)
        assert total[i].tobytes() == tape.value(loss).tobytes()
        assert [g[i].tobytes() for g in grads] == [by_id[p].tobytes() for p in tape.params]


def _forward_lines(source):
    return source[: source.index("ones_like")].splitlines()


def test_snapshot_blocks_run_as_one_group_of_lanes(monkeypatch):
    monkeypatch.setattr(ad, "_STEP_CACHE", {})
    rng = np.random.default_rng(9)
    snaps = [HeadSnapshot(j, rng.normal(0.0, 0.7, (2, 6)), rng.normal(0.0, 0.3, 2)) for j in range(3)]
    step = _matching_loss(snaps, HyperParams(lam=0.5), AugmentationSpec.gaussian_noise(0.2))
    params = init_params([3, 6], 2, 1)
    clients = [step.feeds(rng.normal(0.0, 1.0, (5, 3)), rng.integers(0, 2, 5), 2, rng=rng) for _ in range(3)]
    rec = _recorded(step, params, clients)
    assert _compiled(rec, params, clients) == [_fresh(step, params, values) for values in clients]
    tape = rec.tape
    heads = tuple(nid for nid, kind in enumerate(tape.ops) if kind == ad.LEAF and tape.value(nid).shape == (6, 2))
    assert len(heads) == 3 and heads in rec.step.leaves  # the heads are the lanes of one argument
    # one matmul by the stacked snapshot heads, not one per snapshot
    matmuls = [ln for ln in _forward_lines(rec.step.source) if " @ " in ln and any(f"{v}{h}" in ln for h in heads for v in "vL")]
    assert len(matmuls) == 1


def _two_lane_tape(first, second, chained=False):
    """Two heads applied to one parameter block: each lane is (h @ W_j)**2 summed,
    or, ``chained``, the second head's add reads the first's."""
    rng = np.random.default_rng(4)
    tape = Tape()
    h = tape.leaf(rng.normal(size=(4, 3)), param=True)
    w1, w2 = tape.constant(first), tape.constant(second)
    if chained:
        a = ad.add(tape, h, w1)
        loss = ad.reduce_sum(tape, ad.mul(tape, ad.add(tape, a, w2), a))
        return tape, loss
    z1, z2 = ad.matmul(tape, h, w1), ad.matmul(tape, h, w2)
    s1, s2 = ad.reduce_sum(tape, ad.mul(tape, z1, z1)), ad.reduce_sum(tape, ad.mul(tape, z2, z2))
    return tape, ad.add(tape, s1, s2)


def _compiled_matches_eager(tape, loss, fed=()):
    step = compile_step(tape, 1, loss, [loss], fed)
    leaves = [nid for nid, kind in enumerate(tape.ops) if kind == ad.LEAF]
    (total,), grads = step(*(federation._stacked([[tape.vals[nid]] for nid in ids]) for ids in step.leaves))
    assert total[0].tobytes() == tape.value(loss).tobytes()
    assert [g[0].tobytes() for g in grads] == [g.tobytes() for g in backward(tape, loss).values()]
    assert sorted(n for ids in step.leaves for n in ids) == leaves
    return step


@pytest.mark.parametrize("contiguous", [False, True])
def test_lanes_need_one_memory_order(contiguous, monkeypatch):
    monkeypatch.setattr(ad, "_STEP_CACHE", {})
    rng = np.random.default_rng(6)
    w1, w2 = rng.normal(size=(2, 3)).T, rng.normal(size=(2, 3)).T  # transposed, as snapshot heads are
    if contiguous:
        w2 = np.ascontiguousarray(w2)
    step = _compiled_matches_eager(*_two_lane_tape(w1, w2))
    grouped = [ids for ids in step.leaves if len(ids) > 1]
    matmuls = [ln for ln in _forward_lines(step.source) if " @ " in ln]
    # one transposed and one contiguous head: BLAS would round a shared kernel
    # differently for one of them, so each keeps its own matmul
    assert (grouped, len(matmuls)) == (([], 2) if contiguous else ([(1, 2)], 1))


def test_an_op_that_consumes_its_isomorphic_twin_is_not_a_lane(monkeypatch):
    monkeypatch.setattr(ad, "_STEP_CACHE", {})
    rng = np.random.default_rng(8)
    # both adds take one seed at position 1, but the second also takes the first
    step = _compiled_matches_eager(*_two_lane_tape(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), chained=True))
    assert all(len(ids) == 1 for ids in step.leaves)
    assert not any(ln.lstrip().startswith("L") for ln in step.source.splitlines())  # no group's value


def test_a_lane_read_by_lane_0_is_read_lane_by_lane(monkeypatch):
    monkeypatch.setattr(ad, "_STEP_CACHE", {})
    rng = np.random.default_rng(10)
    tape = Tape()
    w = tape.leaf(rng.normal(size=(2, 2)), param=True)
    g = [tape.constant(rng.normal(size=(2, 2))) for _ in range(3)]
    h = [tape.constant(rng.normal(size=(2, 2))) for _ in range(3)]
    # the second product reads h[0] where its lane's h would be h[1], the third its own h[2]
    products = [ad.mul(tape, g[0], h[0]), ad.mul(tape, g[1], h[0]), ad.mul(tape, g[2], h[2])]
    products += [ad.mul(tape, w, h[1]), ad.mul(tape, w, h[1]), ad.mul(tape, w, h[2])]
    loss = ad.reduce_sum(tape, ad.mul(tape, w, products[0]))
    for z in products[1:]:
        loss = ad.add(tape, loss, ad.reduce_sum(tape, ad.mul(tape, w, z)))
    step = _compiled_matches_eager(tape, loss)
    assert all(len(ids) == 1 for ids in step.leaves)


def _views_step(snaps, gm_enabled=True):
    """A source client's recorded step on 5 rows, compiled for 3 clients, checked against fresh recordings."""
    rng = np.random.default_rng(12)
    step = _matching_loss(snaps, HyperParams(lam=0.5, gm_enabled=gm_enabled), AugmentationSpec.gaussian_noise(0.2))
    params = init_params([3, 6], 2, 1)
    clients = [step.feeds(rng.normal(0.0, 1.0, (5, 3)), rng.integers(0, 2, 5), 2, rng=rng) for _ in range(3)]
    tape, _, leaves, loss, stat_nodes = _record(step, params, clients[0])
    rec = _Recorded(tape, [np.stack([a] * len(clients)) for a in params.arrays()], leaves, loss, stat_nodes)
    assert _compiled(rec, params, clients) == [_fresh(step, params, values) for values in clients]
    return rec, leaves


def test_fedavg_step_runs_both_views_as_one_group_of_lanes(monkeypatch):
    monkeypatch.setattr(ad, "_STEP_CACHE", {})
    rec, (x, x_aug, y_mat) = _views_step([], gm_enabled=False)
    # the batch and its augmented view are the two lanes of one argument
    assert [ids for ids in rec.step.leaves if len(ids) > 1] == [(x, x_aug)]
    # one matmul per layer and backward product for both views: forward
    # x @ W0.T, h @ W1.T; backward G @ W1, h.T @ G, x.T @ G
    assert rec.step.source.count(" @ ") == 5


def test_gm_step_holds_the_view_pair_and_the_snapshot_heads(monkeypatch):
    monkeypatch.setattr(ad, "_STEP_CACHE", {})
    rng = np.random.default_rng(13)
    snaps = [HeadSnapshot(j, rng.normal(0.0, 0.7, (2, 6)), rng.normal(0.0, 0.3, 2)) for j in range(3)]
    rec, (x, x_aug, y_mat) = _views_step(snaps)
    tape = rec.tape
    constants = [nid for nid, kind in enumerate(tape.ops) if kind == ad.LEAF and nid not in tape.params]
    heads = tuple(nid for nid in constants if tape.value(nid).shape == (6, 2))
    assert len(heads) == 3
    # the view group takes in the hidden features, which the snapshot heads
    # still read as one shared input of their group
    assert (x, x_aug) in rec.step.leaves and heads in rec.step.leaves


def _bias_chain(W, b, x1, x2):
    """relu(x_j @ W + b) for two fed batches x_j, then sum(h1 * h1) + sum(h2):
    the shared bias takes one term from each lane."""
    tape = Tape()
    w, bias = tape.leaf(W, param=True), tape.leaf(b, param=True)
    xs = [tape.constant(x1), tape.constant(x2)]
    h1, h2 = (ad.relu(tape, ad.add(tape, ad.matmul(tape, x, w), bias)) for x in xs)
    loss = ad.add(tape, ad.reduce_sum(tape, ad.mul(tape, h1, h1)), ad.reduce_sum(tape, h2))
    return tape, loss, [w, bias, *xs]


@pytest.mark.parametrize("rows", [4, 3], ids=["full", "short"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_bias_add_on_two_fed_leaves_matches_backward(k, rows, monkeypatch):
    monkeypatch.setattr(ad, "_STEP_CACHE", {})
    rng = np.random.default_rng(14 + k)
    clients = [
        (rng.normal(size=(3, 4)), rng.normal(size=4), rng.normal(size=(rows, 3)), rng.normal(size=(rows, 3)))
        for _ in range(k)
    ]
    tape, loss, fed = _bias_chain(*clients[0])
    rec = _Recorded(tape, [np.stack(col) for col in list(zip(*clients))[:2]], fed[2:], loss, {"total": loss})
    assert (fed[2], fed[3]) in rec.step.leaves
    # one add of the bias for both batches
    assert sum(f"v{fed[1]}.reshape" in ln for ln in _forward_lines(rec.step.source)) == 1
    (total,), grads = rec.run([values[2:] for values in clients], slice(None), {})
    for i, values in enumerate(clients):
        tape_i, loss_i, _ = _bias_chain(*values)
        by_id = backward(tape_i, loss_i)
        assert total[i].tobytes() == tape_i.value(loss_i).tobytes()
        assert [g[i].tobytes() for g in grads] == [by_id[p].tobytes() for p in tape_i.params]


def _two_fed_tape(x1, x2, b_uses=1, constant=False):
    """Two batches multiplied by one parameter; the second is a constant, not
    fed, when ``constant``, and is read once more when ``b_uses`` is 2."""
    tape = Tape()
    w = tape.leaf(np.ones((3, 2)), param=True)
    a, b = tape.constant(x1), tape.constant(x2)
    loss = ad.add(tape, ad.reduce_sum(tape, ad.matmul(tape, a, w)), ad.reduce_sum(tape, ad.matmul(tape, b, w)))
    if b_uses == 2:
        loss = ad.add(tape, loss, ad.reduce_sum(tape, b))
    return tape, loss, (w, a) if constant else (w, a, b)


@pytest.mark.parametrize(
    "rows, b_uses, constant",
    [(4, 1, False), (5, 1, False), (4, 2, False), (4, 1, True)],
    ids=["grouped", "other-shape", "other-use", "fed-and-constant"],
)
def test_fed_leaves_group_only_with_fed_leaves_of_one_shape_and_use(rows, b_uses, constant, monkeypatch):
    monkeypatch.setattr(ad, "_STEP_CACHE", {})
    rng = np.random.default_rng(15)
    tape, loss, fed = _two_fed_tape(rng.normal(size=(4, 3)), rng.normal(size=(rows, 3)), b_uses, constant)
    step = _compiled_matches_eager(tape, loss, fed)
    grouped = [ids for ids in step.leaves if len(ids) > 1]
    assert grouped == ([(1, 2)] if (rows, b_uses, constant) == (4, 1, False) else [])
