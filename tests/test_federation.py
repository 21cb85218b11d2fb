import copy
import functools
import hashlib
import itertools
import math
import multiprocessing
import re
import threading
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgm.cli import Config, DataSpec
from fedgm import data, experiments, federation
from fedgm import rng as streams
from fedgm.data import (
    AugmentationSpec,
    DomainDataset,
    batch_iter,
    gen_rotated_domains,
    gen_textured_domains,
    train_test_split,
)
from fedgm.errors import ContractError, DivergenceError, UsageError
from fedgm.federation import (
    ClientUpdate,
    HyperParams,
    StepLoss,
    aggregate,
    cosine_lr,
    evaluate,
    knowledge_vote,
    _matching_loss,
    local_train,
    plain_ce_loss,
    run_da,
    run_dg,
)
from fedgm.model import HeadSnapshot, flatten, init_params, predict_proba, unflatten
from fedgm.objective import averaged_ce, one_hot


def test_cosine_lr_endpoints_and_midpoint():
    hp = HyperParams(lr0=1e-3, lr1=1e-4, rounds=40)
    assert cosine_lr(1, hp) == pytest.approx(1e-3, abs=1e-18)
    assert cosine_lr(40, hp) == pytest.approx(1e-4, abs=1e-18)
    assert cosine_lr(20.5, hp) == pytest.approx(5.5e-4, abs=1e-12)


def test_cosine_lr_single_round():
    hp = HyperParams(lr0=5e-2, lr1=1e-3, rounds=1)
    assert cosine_lr(1, hp) == 5e-2


@pytest.mark.parametrize(
    "aug",
    [None, AugmentationSpec.identity(), AugmentationSpec.gaussian_noise(0.3), AugmentationSpec.amplitude_mix(0.7)],
    ids=["none", "identity", "gaussian_noise", "amplitude_mix"],
)
def test_step_loss_feeds_are_the_rows_their_view_and_the_one_hot_labels(aug):
    assert StepLoss._fields == ("aug", "record", "settings", "heads")
    X = np.random.default_rng(4).normal(0.0, 1.0, (10, 16))
    y = np.arange(10) % 3
    spectra_calls = []

    def spectra():
        spectra_calls.append(len(X))
        return data.row_spectra(X.reshape(10, 4, 4))

    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    with mock.patch.object(federation, "augment", wraps=federation.augment) as spy:
        got = StepLoss(aug, None).feeds(X, y, 3, 4, rng, spectra)  # batches of 4, 4 and 2 rows
    views = [] if aug is None else [data.augment(X, aug, twin, 4)]
    want = [X, *views, one_hot(y, 3)]
    assert [(g.shape, g.tobytes()) for g in got] == [(w.shape, w.tobytes()) for w in want]
    assert spy.call_count == len(views) and rng.random() == twin.random()
    assert spectra_calls == ([10] if aug is not None and aug.kind == "amplitude_mix" else [])


def _tiny_dataset(n=8, margin=2.0, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 0.3, (n, 2))
    y = (np.arange(n) % 2).astype(np.int64)
    X[:, 0] += np.where(y == 0, -margin, margin)
    return DomainDataset(0, X, y)


def test_the_gm_switch_picks_the_step_loss():
    snaps = [HeadSnapshot(0, np.zeros((2, 4)), np.zeros(2))]
    aug = AugmentationSpec.gaussian_noise(0.1)
    fedavg = _matching_loss(snaps, HyperParams(gm_enabled=False), aug)
    assert fedavg.record is averaged_ce and fedavg.aug is aug
    assert _matching_loss(snaps, HyperParams(), aug).record is not averaged_ce


def test_local_train_zero_epochs_forbidden():
    hp = HyperParams(local_epochs=0)
    step_loss = _matching_loss([], hp, AugmentationSpec.identity())
    with pytest.raises(UsageError):
        local_train(init_params([2, 4], 2, 0), [_tiny_dataset()], step_loss, hp, 1)


@pytest.mark.parametrize(
    "aug, width",
    [
        (AugmentationSpec.identity(), 2),
        (AugmentationSpec.gaussian_noise(0.1), 2),
        (AugmentationSpec.input_rotation(30.0), 2),
        (AugmentationSpec.amplitude_mix(0.5), 64),
    ],
    ids=AugmentationSpec.KINDS,
)
def test_local_train_empty_split_has_no_training_steps(aug, width):
    # an empty epoch fails as such, not in the feeds it would build
    empty = DomainDataset(0, np.zeros((0, width)), np.zeros(0, dtype=np.int64))
    with pytest.raises(UsageError, match="no training steps"):
        local_train(init_params([width, 4], 2, 0), [empty], _matching_loss([], HyperParams(), aug), HyperParams(), 1)


def test_local_train_zero_lr_is_identity():
    hp = HyperParams(lr0=0.0, lr1=0.0, local_epochs=1, batch=4, seed=3)
    initial = init_params([2, 4], 2, seed=1)
    (update,) = local_train(initial, [_tiny_dataset()], _matching_loss([], hp, AugmentationSpec.identity()), hp, 1)
    assert flatten(update.params).tobytes() == flatten(initial).tobytes()
    assert update.n_samples == 8


def test_local_train_converges_on_separable_batch():
    # 200 full-batch steps of plain gradient-matched training
    hp = HyperParams(lam=1.0, rounds=1, local_epochs=200, batch=8, lr0=0.1, lr1=0.05, seed=4)
    ds = _tiny_dataset()
    step_loss = _matching_loss([], hp, AugmentationSpec.identity())
    (update,) = local_train(init_params([2, 8], 2, seed=2), [ds], step_loss, hp, 1)
    assert evaluate(update.params, ds) == 1.0


def test_local_train_target_style_matches_recorded_bytes():
    # the target client's fine-tuning: cross-entropy step loss, no snapshots,
    # no augmentation; params and stats were recorded from the dedicated
    # target trainer this call replaced
    rng = np.random.default_rng(0)
    X = rng.normal(0, 0.5, (10, 2))
    y = (np.arange(10) % 2).astype(np.int64)
    X[:, 0] += np.where(y == 0, -1.0, 1.0)
    hp = HyperParams(rounds=3, local_epochs=2, batch=4, lr0=0.05, lr1=0.01, seed=7)
    (update,) = local_train(init_params([2, 6], 2, seed=3), [DomainDataset(2, X, y)], plain_ce_loss, hp, 2)
    digest = hashlib.sha256(flatten(update.params).tobytes()).hexdigest()
    assert digest == "4853d1037e107bbefeba5fd8f74a2ff7432bed4bc8fb942556fd58a7217c453b"
    assert update.train_stats == {"ce_orig": 1.3161356648080431, "total": 1.3161356648080431}
    assert update.n_samples == 10


def _row_in_step(ds, hp, round_t, step):
    """Index of a row that local_train's step ``step`` in round ``round_t`` trains on."""
    seed = streams.subseed(hp.seed, streams.CLIENT)
    X, _ = next(itertools.islice(batch_iter(ds, hp.batch, seed, round_t - 1), step, None))
    return np.flatnonzero((ds.X[:, None] == X).all(axis=2).any(axis=1))[0]


def _overflowing(domain_id, hp, round_t, step):
    """A 12-row dataset whose local_train step ``step`` in round ``round_t`` overflows."""
    rng = np.random.default_rng(domain_id)
    ds = DomainDataset(domain_id, rng.normal(0.0, 1.0, (12, 2)), np.arange(12) % 2)
    if step is not None:
        ds.X[_row_in_step(ds, hp, round_t, step)] = 1e308
    return ds


def _divergence(datasets, hp):
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
        local_train(init_params([2, 4], 2, 0), datasets, _matching_loss([], hp, AugmentationSpec.identity()), hp, 2)
    return str(info.value)


def test_lockstep_divergence_is_the_first_clients_first_error():
    hp = HyperParams(batch=4, lr0=0.05, lr1=0.01)
    late, early = _overflowing(0, hp, 2, 2), _overflowing(1, hp, 2, 0)
    alone = [_divergence([ds], hp) for ds in (late, early)]
    assert alone == ["non-finite loss nan at round 2, step 2", "non-finite loss nan at round 2, step 0"]
    # client 1 fails first, but the lowest-index failing client's failure is raised
    assert _divergence([late, early], hp) == alone[0]
    # client 1 alone diverging
    assert _divergence([_overflowing(0, hp, 2, None), early], hp) == alone[1]


@pytest.mark.parametrize("plain", [False, True], ids=["matching", "plain"])
def test_a_bad_label_fails_its_epoch_before_its_first_step(plain):
    hp = HyperParams(batch=4, lr0=0.05, lr1=0.01)
    step_loss = plain_ce_loss if plain else _matching_loss([], hp, AugmentationSpec.identity())
    ds = _overflowing(0, hp, 2, 0)
    ds.y[_row_in_step(ds, hp, 2, 1)] = 7  # a bad label in the batch after the one that overflows
    # the epoch's labels are checked when its feeds are built, before step 0 can diverge
    with np.errstate(all="ignore"), pytest.raises(UsageError, match=r"label 7 at index \d+ outside \[0, 2\)"):
        local_train(init_params([2, 4], 2, 0), [ds], step_loss, hp, 2)
    # in lockstep client 1's bad label is its own, and client 0's divergence is raised
    assert _divergence([_overflowing(1, hp, 2, 0), ds], hp) == "non-finite loss nan at round 2, step 0"



def test_a_failing_client_is_not_trained_again():
    hp = HyperParams(batch=4, lr0=0.05, lr1=0.01)
    datasets = [_overflowing(0, hp, 2, None), _overflowing(1, hp, 2, 0), _overflowing(2, hp, 2, None)]
    compiles, recordings = [], []
    real_compile, real_loss = federation.compile_step, federation.local_loss

    def spy_compile(tape, k, *args):
        compiles.append(k)
        return real_compile(tape, k, *args)

    def spy_loss(tape, *args, **kwargs):
        recordings.append(tape)
        return real_loss(tape, *args, **kwargs)

    with mock.patch.object(federation, "compile_step", spy_compile), mock.patch.object(
        federation, "local_loss", spy_loss
    ):
        assert _divergence(datasets, hp) == "non-finite loss nan at round 2, step 0"
    # one step for all three clients, from one recording of the one feed shape
    assert compiles == [3] and len(recordings) == 1



def test_the_lowest_index_failure_is_raised_not_the_earliest():
    hp = HyperParams(batch=4, lr0=0.05, lr1=0.01)
    datasets = [_overflowing(0, hp, 2, None), _overflowing(1, hp, 2, 2), _overflowing(2, hp, 2, 0)]
    assert _divergence(datasets, hp) == "non-finite loss nan at round 2, step 2"

def test_client_0_divergence_outranks_client_1_bad_label():
    hp = HyperParams(batch=4, lr0=0.05, lr1=0.01)
    bad_label = _overflowing(1, hp, 2, None)
    bad_label.y[_row_in_step(bad_label, hp, 2, 1)] = 7
    assert _divergence([_overflowing(0, hp, 2, 2), bad_label], hp) == "non-finite loss nan at round 2, step 2"


def test_client_0_bad_label_outranks_client_1_divergence():
    hp = HyperParams(batch=4, lr0=0.05, lr1=0.01)
    bad_label = _overflowing(0, hp, 2, None)
    bad_label.y[_row_in_step(bad_label, hp, 2, 2)] = 7
    step_loss = _matching_loss([], hp, AugmentationSpec.identity())
    with np.errstate(all="ignore"), pytest.raises(UsageError, match=r"label 7 at index \d+ outside \[0, 2\)"):
        local_train(init_params([2, 4], 2, 0), [bad_label, _overflowing(1, hp, 2, 0)], step_loss, hp, 2)



def test_a_client_keeps_its_first_bad_label():
    # each epoch's feeds find the bad label again, at another index of the epoch's rows
    hp = HyperParams(batch=4, lr0=0.05, lr1=0.01, local_epochs=2)
    bad_label = _overflowing(1, hp, 2, None)
    bad_label.y[5] = 7
    errors = []
    for datasets in ([bad_label], [_overflowing(0, hp, 2, None), bad_label]):
        with pytest.raises(UsageError) as info:
            local_train(init_params([2, 4], 2, 0), datasets, _matching_loss([], hp, AugmentationSpec.identity()), hp, 2)
        errors.append(str(info.value))
    assert errors[1] == errors[0]


def test_client_0_divergence_stops_the_call():
    hp = HyperParams(batch=4, lr0=0.05, lr1=0.01)
    with mock.patch.object(federation, "_sgd_step") as sgd_step:
        assert _divergence([_overflowing(0, hp, 2, 0), _overflowing(1, hp, 2, None)], hp).endswith("step 0")
    sgd_step.assert_not_called()  # raised at step 0, before its update


def test_a_last_update_that_overflows_fails_its_client():
    # one step on a finite loss each: the wild client's update leaves float64's range
    hp = HyperParams(batch=12, lr0=1e308, lr1=1e308)
    rng = np.random.default_rng(3)
    calm = DomainDataset(0, rng.normal(0.0, 0.01, (12, 2)), np.arange(12) % 2)
    wild = DomainDataset(0, rng.normal(0.0, 100.0, (12, 2)), np.arange(12) % 2)
    (update,) = local_train(init_params([2, 4], 2, 0), [calm], _matching_loss([], hp, AugmentationSpec.identity()), hp, 2)
    assert np.isfinite(flatten(update.params)).all()
    overflow = "non-finite parameters after round 2, step 0"
    assert _divergence([wild], hp) == _divergence([calm, wild], hp) == overflow
    # client 1's non-finite loss is recorded first, and client 0's overflow is raised
    assert _divergence([wild, _overflowing(1, hp, 2, 0)], hp) == overflow
    assert _divergence([calm, _overflowing(1, hp, 2, 0)], hp) == "non-finite loss nan at round 2, step 0"


def test_local_train_rejects_clients_of_unequal_size():
    hp = HyperParams(batch=4)
    step_loss = _matching_loss([], hp, AugmentationSpec.identity())
    for other in (_tiny_dataset(n=10), DomainDataset(1, np.zeros((8, 3)), np.arange(8) % 2)):
        with pytest.raises(ContractError, match="datasets of one size and width"):
            local_train(init_params([2, 4], 2, 0), [_tiny_dataset(), other], step_loss, hp, 1)


def test_consecutive_local_train_calls_return_models_that_share_no_memory():
    # the clients of one call are views of one (k, P) parameter buffer; the
    # next call must train in a buffer of its own, not overwrite the last models
    hp = HyperParams(batch=4, lr0=0.05, lr1=0.01)
    datasets = [_tiny_dataset(), DomainDataset(1, _tiny_dataset().X + 0.5, _tiny_dataset().y)]
    initial = init_params([2, 4], 2, 0)
    first = local_train(initial, datasets, _matching_loss([], hp, AugmentationSpec.identity()), hp, 1)
    kept = [flatten(u.params) for u in first]
    second = local_train(initial, datasets, _matching_loss([], hp, AugmentationSpec.identity()), hp, 1)
    assert [flatten(u.params).tobytes() for u in first] == [f.tobytes() for f in kept]
    for a, b in itertools.product(first, second):
        assert not any(np.shares_memory(x, y) for x in a.params.arrays() for y in b.params.arrays())


def _params_from_flat(flat):
    return unflatten([1], 2, np.asarray(flat, dtype=float))


def test_aggregate_equal_weights():
    u1 = ClientUpdate(0, _params_from_flat([1.0, 3.0, 1.0, 3.0]), 10)
    u2 = ClientUpdate(1, _params_from_flat([3.0, 5.0, 3.0, 5.0]), 10)
    out = flatten(aggregate([u1, u2]))
    assert np.abs(out - [2.0, 4.0, 2.0, 4.0]).max() <= 1e-12


def test_aggregate_weighted():
    u1 = ClientUpdate(0, _params_from_flat([1.0, 3.0, 1.0, 3.0]), 1)
    u2 = ClientUpdate(1, _params_from_flat([3.0, 5.0, 3.0, 5.0]), 3)
    out = flatten(aggregate([u1, u2]))
    assert np.abs(out - [2.5, 4.5, 2.5, 4.5]).max() <= 1e-12


def test_aggregate_fixed_point():
    p = init_params([2, 5], 3, seed=8)
    updates = [ClientUpdate(i, p.copy(), n) for i, n in enumerate([5, 17, 2])]
    assert np.abs(flatten(aggregate(updates)) - flatten(p)).max() <= 1e-12


def test_aggregate_matches_independent_recomputation():
    import math

    rng = np.random.default_rng(0)
    updates = [
        ClientUpdate(i, init_params([2, 4], 2, seed=i), int(rng.integers(1, 50)))
        for i in range(4)
    ]
    out = flatten(aggregate(updates))
    # oracle: plain per-coordinate weighted mean, different grouping
    total = sum(u.n_samples for u in updates)
    flats = [flatten(u.params).tolist() for u in updates]
    for k in range(out.size):
        expected = math.fsum(u.n_samples * flats[i][k] for i, u in enumerate(updates)) / total
        assert abs(out[k] - expected) <= 1e-12


def test_aggregate_rejects_empty_and_mismatched():
    with pytest.raises(UsageError):
        aggregate([])
    u1 = ClientUpdate(0, init_params([2, 4], 2, 0), 5)
    u2 = ClientUpdate(1, init_params([2, 5], 2, 0), 5)
    with pytest.raises(ContractError):
        aggregate([u1, u2])


def test_evaluate_perfect_and_flipped():
    ds = _tiny_dataset(n=20, margin=3.0)
    hp = HyperParams(lam=1.0, rounds=1, local_epochs=150, batch=20, lr0=0.1, lr1=0.05, seed=6)
    step_loss = _matching_loss([], hp, AugmentationSpec.identity())
    trained = local_train(init_params([2, 8], 2, 1), [ds], step_loss, hp, 1)[0].params
    acc = evaluate(trained, ds)
    assert acc == 1.0
    flipped = DomainDataset(0, ds.X, 1 - ds.y)
    assert evaluate(trained, flipped) == pytest.approx(1.0 - acc, abs=1e-12)


def test_evaluate_random_params_near_chance():
    (d,) = gen_rotated_domains([0.0], 600, 0.1, seed=12, classes=3)
    accs = [evaluate(init_params([2, 16, 8], 3, seed=s), d) for s in range(5)]
    assert abs(float(np.mean(accs)) - 1.0 / 3.0) <= 0.1


def _confident_model(target_class, classes=3, d=2, conf=50.0):
    p = init_params([d], classes, seed=0)
    p.head_w[:] = 0.0
    p.head_b[:] = 0.0
    p.head_b[target_class] = conf
    return p


def test_knowledge_vote_agreement_accepted():
    X = np.zeros((4, 2))
    models = [_confident_model(1), _confident_model(1), _confident_model(1)]
    out = knowledge_vote(models, X, tau=0.9, min_votes=2)
    assert out.n_accepted == 4
    assert np.all(out.labels == 1)
    assert np.all(out.confidences >= 0.9)


def test_knowledge_vote_tie_rejected():
    X = np.zeros((3, 2))
    models = [_confident_model(0), _confident_model(1)]
    out = knowledge_vote(models, X, tau=0.9, min_votes=2)
    assert out.n_accepted == 0


def test_knowledge_vote_below_threshold_rejected():
    X = np.zeros((3, 2))
    lukewarm = _confident_model(1, conf=0.1)  # max prob well under tau
    out = knowledge_vote([lukewarm, lukewarm], X, tau=0.99, min_votes=1)
    assert out.n_accepted == 0


def test_knowledge_vote_invariants():
    rng = np.random.default_rng(9)
    X = rng.normal(0, 2, (50, 2))
    models = [init_params([2, 8], 3, seed=s) for s in range(3)]
    out = knowledge_vote(models, X, tau=0.6, min_votes=2)
    assert np.all(out.confidences >= 0.6)
    assert np.all((out.labels >= 0) & (out.labels < 3))
    assert out.n_accepted <= 50


def _config(mode="dg", rounds=3, held_out=2, n=120, lam=0.5, angles=(0.0, 30.0, 60.0), seeds=(0,)):
    return Config(
        experiment="unit",
        mode=mode,
        data=DataSpec(kind="rotated_moons", angles=list(angles), n_per_domain=n, noise_sigma=0.1, classes=2),
        held_out=held_out,
        arch=[2, 8],
        augmentation=AugmentationSpec.gaussian_noise(0.1),
        hp=HyperParams(lam=lam, rounds=rounds, batch=16, lr0=0.05, lr1=0.01, seed=seeds[0]),
        out_dir="unused",
        seeds=list(seeds),
    )


def test_protocols_reject_a_config_of_the_other_mode():
    # a dg config skips the vote-quorum check, which 2 sources and a quorum of 3 fail
    dg = _config(rounds=2)
    dg.hp.min_votes = 3
    with pytest.raises(UsageError, match="run_da needs a config of mode 'da', got 'dg'"):
        run_da(dg)
    with pytest.raises(UsageError, match="run_dg needs a config of mode 'dg', got 'da'"):
        run_dg(_config(mode="da", rounds=2))


def test_run_dg_single_round_inter_inactive():
    table = run_dg(_config(rounds=1))
    inter_vals = [v for _, v in table.values("train", "inter")]
    assert inter_vals and all(v == 0.0 for v in inter_vals)
    assert len(table.values("eval_unseen", "accuracy")) == 1


def test_run_dg_single_source_sanity_mode():
    table = run_dg(_config(rounds=2, held_out=1, lam=1.0, angles=(0.0, 40.0)))
    assert len(table.values("eval_source", "accuracy")) == 2
    assert table.final_model is not None


def test_run_dg_metrics_shape():
    rounds, angles = 3, (0.0, 25.0, 50.0, 75.0)
    table = run_dg(_config(rounds=rounds, held_out=3, angles=angles))
    acc_rows = [r for r in table.rows if r[3] == "accuracy"]
    assert len(acc_rows) == rounds * len(angles)  # n sources + 1 unseen per round
    assert len(table.values("eval_unseen", "accuracy", 3)) == rounds


def test_run_dg_held_out_must_be_valid():
    with pytest.raises(UsageError):
        run_dg(_config(held_out=7))


@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param("hp.seed", -1, id="negative"),
        pytest.param("hp.seed", 1.5, id="float"),
        pytest.param("hp.seed", True, id="bool"),
        ("hp.rounds", True),
        ("hp.rounds", 2.0),
        ("hp.local_epochs", True),
        ("hp.local_epochs", 1.0),
        ("hp.batch", True),
        ("hp.batch", 16.0),
        ("hp.min_votes", 1.5),
        ("held_out", True),
        ("data.n_per_domain", 120.0),
        ("data.classes", 2.0),
    ],
)
def test_run_dg_rejects_a_seed_that_is_not_a_non_negative_integer(field, value):
    # every integer setting, the seed among them, must be an integer: a bool
    # or a float of integral value is refused, not run
    config = _config(rounds=1)
    *path, name = field.split(".")
    setattr(functools.reduce(getattr, path, config), name, value)
    with pytest.raises(UsageError, match=rf"^{re.escape(field)} must be an integer( >= \d)?, got {value!r}$"):
        run_dg(config)


def test_run_dg_names_an_unknown_data_kind():
    config = _config(rounds=1)
    config.data = DataSpec(kind="foo", n_per_domain=120)
    with pytest.raises(UsageError, match="^data.kind: unknown generator 'foo'$"):
        run_dg(config)


def test_a_numpy_integer_seed_is_valid():
    HyperParams(seed=np.int64(3)).validate()


def test_run_dg_deterministic():
    t1 = run_dg(_config(rounds=2))
    t2 = run_dg(_config(rounds=2))
    assert t1.rows == t2.rows
    assert flatten(t1.final_model).tobytes() == flatten(t2.final_model).tobytes()


def test_run_dg_inter_becomes_active_after_round_one():
    table = run_dg(_config(rounds=2, lam=0.3))
    by_round = {}
    for r, v in table.values("train", "inter"):
        by_round.setdefault(r, []).append(v)
    assert all(v == 0.0 for v in by_round[1])
    assert any(v != 0.0 for v in by_round[2])


def test_run_da_impossible_tau_skips_target_every_round():
    cfg = _config(mode="da", rounds=2)
    cfg.hp.tau = 1.0
    cfg.hp.min_votes = 2
    table = run_da(cfg)
    coverage = [v for _, v in table.values("pseudo", "pl_coverage")]
    assert coverage == [0.0, 0.0]
    assert table.final_target_model is None
    # with the target silent, the deployed model is the global one
    unseen = table.values("eval_unseen", "accuracy")
    target = table.values("eval_target", "accuracy")
    assert unseen == target
    # and the run aggregates sources exactly like the dg protocol
    dg_table = run_dg(_config(rounds=2))
    assert flatten(table.final_model).tobytes() == flatten(dg_table.final_model).tobytes()


def test_run_da_pseudo_label_flow():
    cfg = _config(mode="da", rounds=3, n=200)
    cfg.hp.tau = 0.7
    cfg.hp.min_votes = 1
    table = run_da(cfg)
    coverage = [v for _, v in table.values("pseudo", "pl_coverage")]
    assert any(c > 0 for c in coverage)
    precisions = [v for _, v in table.values("pseudo", "pl_precision") if not np.isnan(v)]
    assert precisions and all(0.0 <= p <= 1.0 for p in precisions)
    assert table.final_target_model is not None
    assert len(table.values("eval_target", "accuracy")) == 3


def test_run_da_precision_tracks_source_accuracy_without_shift():
    # all domains coincide, so pseudo-label precision should sit near the
    # source models' own accuracy
    cfg = _config(mode="da", rounds=3, n=300, angles=(0.0, 0.0, 0.0))
    cfg.hp.tau = 0.7
    cfg.hp.min_votes = 1
    table = run_da(cfg)
    precision = table.final_value("pseudo", "pl_precision", 2)
    source_acc = np.mean(
        [table.final_value("eval_source", "accuracy", d) for d in (0, 1)]
    )
    assert table.final_value("pseudo", "pl_coverage", 2) > 0
    assert abs(precision - source_acc) <= 0.15


def test_run_da_deterministic():
    cfg1 = _config(mode="da", rounds=2, n=200)
    cfg1.hp.tau = 0.7
    cfg1.hp.min_votes = 1
    cfg2 = _config(mode="da", rounds=2, n=200)
    cfg2.hp.tau = 0.7
    cfg2.hp.min_votes = 1
    t1, t2 = run_da(cfg1), run_da(cfg2)
    assert t1.rows == t2.rows


def _textured_amix_config(n_per_domain, batch):
    return Config(
        experiment="unit",
        mode="dg",
        data=DataSpec(kind="textured", n_domains=3, side=8, n_per_domain=n_per_domain, classes=3),
        held_out=0,
        arch=[64, 8],
        augmentation=AugmentationSpec.amplitude_mix(0.6),
        hp=HyperParams(rounds=1, batch=batch, lr0=0.05, lr1=0.01),
        out_dir="unused",
        seeds=[0],
    )


def test_run_dg_amplitude_mix_one_row_batch_rejected_up_front():
    # 241 samples leave 193 training rows, and 193 = 12 * 16 + 1
    with pytest.raises(UsageError, match=r"batch 16 .* 193 training rows of domain 1"):
        run_dg(_textured_amix_config(241, 16))
    with pytest.raises(UsageError, match=r"batch 1 .* domain 1"):
        run_dg(_textured_amix_config(60, 1))


def test_local_train_mixes_gathered_spectra_with_the_bytes_of_raw_rows():
    # each client-epoch's view from the dataset's spectra, gathered in the
    # epoch's order, against augment on the raw rows from the same stream
    calls = []
    real_augment = federation.augment

    def spy(X, spec, rng, batch=None, spectra=None):
        twin = copy.deepcopy(rng)
        out = real_augment(X, spec, rng, batch, spectra)
        raw = real_augment(X, spec, twin, batch)
        calls.append((X.shape, spectra is not None, out.tobytes() == raw.tobytes()))
        assert rng.bit_generator.state == twin.bit_generator.state
        return out

    datasets = gen_textured_domains(3, 8, 200, seed=4, classes=3)
    hp = HyperParams(batch=16, local_epochs=2, lr0=0.05, lr1=0.01, seed=4)
    step_loss = _matching_loss([], hp, AugmentationSpec.amplitude_mix(0.6))
    with mock.patch.object(federation, "augment", spy):
        local_train(init_params([64, 8], 3, 0), datasets, step_loss, hp, 2)
    assert calls == [((200, 64), True, True)] * 6  # 3 clients x 2 epochs


def _swap_config(mode="dg", augmentation=AugmentationSpec.amplitude_mix(0.6)):
    return Config(
        experiment="unit",
        mode=mode,
        data=DataSpec(kind="textured", n_domains=4, side=8, n_per_domain=60, classes=3),
        held_out=3,
        arch=[64, 8],
        augmentation=augmentation,
        hp=HyperParams(rounds=3, batch=16, lr0=0.05, lr1=0.01, seed=3, tau=0.4, min_votes=1),
        out_dir="unused",
        seeds=[3],
    )


@pytest.mark.parametrize(
    "mode, augmentation, computed",
    [
        ("dg", AugmentationSpec.amplitude_mix(0.6), 3),  # once per source client, not per round or epoch
        ("da", AugmentationSpec.amplitude_mix(0.6), 3),  # none for the target's pseudo-labelled set
        ("dg", AugmentationSpec.gaussian_noise(0.1), 0),
    ],
)
def test_a_run_computes_each_source_splits_spectra_once(monkeypatch, mode, augmentation, computed):
    shapes = []
    real = data.row_spectra

    def spy(grids):
        shapes.append(grids.shape)
        return real(grids)

    monkeypatch.setattr(data, "row_spectra", spy)
    table = (run_da if mode == "da" else run_dg)(_swap_config(mode, augmentation))
    assert shapes == [(48, 8, 8)] * computed  # 48 training rows of 60
    if mode == "da":
        assert min(v for _, v in table.values("pseudo", "pl_coverage")) > 0  # the target trained every round


def test_no_spectra_outlive_the_run(monkeypatch):
    splits, spectra = [], []
    real_split, real_spectra = federation.train_test_split, data.row_spectra

    def split_spy(dataset, seed):
        train, test = real_split(dataset, seed)
        splits.append(weakref.ref(train))
        return train, test

    def spectra_spy(grids):
        out = real_spectra(grids)
        spectra.append(weakref.ref(out.phase))
        return out

    monkeypatch.setattr(federation, "train_test_split", split_spy)
    monkeypatch.setattr(data, "row_spectra", spectra_spy)
    run_dg(_swap_config())
    assert len(splits) == 4 and len(spectra) == 3
    assert [ref() for ref in splits + spectra] == [None] * 7


def test_run_dg_trains_a_split_that_misses_a_class():
    # label skew across clients is ordinary in federated learning: a source
    # whose train split lacks a class still trains, and the run finishes
    config = Config(
        experiment="unit",
        mode="dg",
        data=DataSpec(kind="textured", n_domains=3, side=8, n_per_domain=5, classes=3),
        held_out=0,
        arch=[64, 8],
        augmentation=AugmentationSpec.gaussian_noise(0.1),
        hp=HyperParams(rounds=2, batch=2, seed=1),
        out_dir="unused",
        seeds=[1],
    )
    split_seed = streams.subseed(1, streams.SPLIT)
    train = {ds.domain_id: train_test_split(ds, split_seed)[0] for ds in federation.build_domains(config)}
    assert 2 not in train[2].y and all(2 in train[d].y for d in (0, 1))
    table = run_dg(config)
    assert len(table.rows) == 26
    assert all(math.isfinite(value) for *_, value in table.rows)


def _vote_per_sample(models, X, tau, min_votes):
    """Reference knowledge vote: one sample at a time."""
    probs = [predict_proba(m, X) for m in models]
    maxp = np.stack([p.max(axis=1) for p in probs])
    argm = np.stack([p.argmax(axis=1) for p in probs])
    voting = maxp >= tau
    indices, labels, confidences = [], [], []
    for i in range(X.shape[0]):
        votes = argm[voting[:, i], i]
        if votes.size == 0:
            continue
        counts = np.bincount(votes, minlength=models[0].classes)
        winner = int(np.argmax(counts))
        top = counts[winner]
        counts[winner] = 0
        if top < min_votes or top <= counts.max():
            continue
        backers = voting[:, i] & (argm[:, i] == winner)
        indices.append(i)
        labels.append(winner)
        confidences.append(float(maxp[backers, i].mean()))
    return np.array(indices, dtype=np.int64), np.array(labels, dtype=np.int64), np.array(confidences)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    n_models=st.integers(1, 4),
    classes=st.integers(2, 4),
    rows=st.integers(1, 40),
    tau=st.sampled_from([0.34, 0.5, 0.7, 0.9, 1.0]),
    min_votes=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_knowledge_vote_matches_per_sample_vote(n_models, classes, rows, tau, min_votes, seed):
    rng = np.random.default_rng(seed)
    models = [init_params([2, 4], classes, seed=int(rng.integers(0, 2**31))) for _ in range(n_models)]
    for m in models:
        m.head_w *= 3.0  # spread the max-probabilities across tau
    X = rng.normal(0.0, 2.0, (rows, 2))
    out = knowledge_vote(models, X, tau, min_votes)
    indices, labels, confidences = _vote_per_sample(models, X, tau, min_votes)
    assert out.indices.tobytes() == indices.tobytes()
    assert out.labels.tobytes() == labels.tobytes()
    assert out.confidences.tobytes() == confidences.tobytes()


def test_a_run_writes_nothing_to_stdout_and_starts_no_process_or_thread(capfd):
    # a benchmark run's last stdout line is its result, so nothing may print
    # after it, and nothing a run leaves behind may print at exit
    threads = threading.active_count()
    for config, run in (
        (experiments.dg_config(3, 0, True), run_dg),
        (experiments.da_config(experiments.DA_TARGET, 0), run_da),
    ):
        run(replace(config, hp=replace(config.hp, rounds=2)))
    assert capfd.readouterr().out == ""
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads
