"""local_train's kept steps: one recording per structure, replayed on every later call.

The first call of a structure (recorder, settings, k and every leaf shape)
records client 0's step and compiles it; a later call gives that tape its own
client 0 values with ``autodiff.replay`` and checks the compiled slice 0
against ``backward`` on it again. A replayed tape must be the tape a fresh
recording on the same values gives, byte for byte, and a kept step must hold
nothing of the call that last used it.
"""

import gc
import importlib.util
import weakref
from pathlib import Path

import numpy as np
import pytest

from fedgm import autodiff as ad
from fedgm import experiments, federation
from fedgm.data import AugmentationSpec, DomainDataset
from fedgm.federation import HyperParams, StepLoss, _matching_loss, local_train, plain_ce_loss
from fedgm.model import HeadSnapshot, ModelParams, flatten, init_params

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "regen_golden_steps.py"
_spec = importlib.util.spec_from_file_location("regen_golden_steps", SCRIPT)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def _entry(x):
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.shape, x.strides, x.tobytes())
    return ("value", repr(x))


def _contents(tape):
    """Everything a tape holds: ops, inputs, lanes, params, and each value and saved entry with its bytes."""
    return (
        tape.ops, tape.inputs, tape.lanes, tape.params,
        [_entry(v) for v in tape.vals], [_entry(s) for s in tape.saved],
    )


def test_replayed_tapes_equal_fresh_recordings_on_the_benchmark_configs(monkeypatch):
    # the four benchmark configs over 3 rounds, called as the golden steps are built,
    # with new parameters and snapshot heads every round
    monkeypatch.setattr(federation, "_RECORDED", {})
    checked = []
    current = {}
    real_replay = federation.replay

    def spy(tape, values):
        real_replay(tape, values)
        step_loss, params = current["step_loss"], current["params"]
        given = list(values.values())
        p = len(tape.params)
        f = len(given) - p - 2 * len(step_loss.heads)
        initial = ModelParams.from_arrays(params.arch, params.classes, given[:p])
        fresh, leaves, loss, stat_nodes = step_loss.recording(initial, *given[p : p + f])
        assert list(values) == leaves
        assert _contents(tape) == _contents(fresh)
        checked.append(current["name"])

    monkeypatch.setattr(federation, "replay", spy)
    for workload, config in regen.CONFIGS.items():
        width, classes, hp = config.arch[0], config.data.classes, config.hp
        n_train = config.data.n_per_domain - regen._n_test(config.data.n_per_domain)
        source_ids = [d for d in range(config.data.domain_count) if d != config.held_out]
        sources = [regen._dataset(d, n_train, width, classes) for d in source_ids]
        pseudo = regen._dataset(config.held_out, regen.TARGET_ROWS, width, classes)
        for round_t in (1, 2, 3):
            initial = init_params(config.arch, classes, round_t)
            heads = [] if round_t == 1 else [regen._head(10 * round_t + d, config.arch, classes) for d in source_ids]
            step_loss = federation._matching_loss(heads, hp, config.augmentation)
            current.update(name=f"{workload}.round{round_t}", step_loss=step_loss, params=initial)
            local_train(initial, sources, step_loss, hp, round_t)
            if config.mode == "da":
                current.update(name=f"{workload}.target{round_t}", step_loss=plain_ce_loss)
                local_train(initial, [pseudo], plain_ce_loss, hp, round_t)
    # each call replays both batch shapes of a structure an earlier call recorded: a GM
    # round 3 its round 2's, FedAvg and the target every round but the first, and
    # da-moons's sources every round, since their steps are dg-moons-gm's
    replayed = ["dg-moons-gm.round3", "swap-textured-amix.round3", "dg-moons-fedavg.round2", "dg-moons-fedavg.round3"]
    replayed += [f"da-moons.round{t}" for t in (1, 2, 3)] + ["da-moons.target2", "da-moons.target3"]
    assert sorted(checked) == sorted(replayed * 2)


def _lockstep(hp, n_heads):
    rng = np.random.default_rng(5)
    datasets = [DomainDataset(d, rng.normal(0.0, 1.0, (10, 2)), np.arange(10) % 2) for d in range(3)]
    heads = [HeadSnapshot(j, rng.normal(0.0, 0.5, (2, 4)), rng.normal(0.0, 0.1, 2)) for j in range(n_heads)]
    return datasets, _matching_loss(heads, hp, AugmentationSpec.gaussian_noise(0.1))


def test_a_kept_step_holds_nothing_of_a_finished_call(monkeypatch):
    monkeypatch.setattr(federation, "_RECORDED", {})
    refs = []  # every epoch feed and every stacked step argument of the call
    real_stacked = federation._stacked

    def spy_stacked(lanes):
        out = real_stacked(lanes)
        refs.append(weakref.ref(out))
        return out

    class Watched(StepLoss):
        def feeds(self, *args, **kwargs):
            out = super().feeds(*args, **kwargs)
            refs.extend(weakref.ref(a) for a in out)
            return out

    monkeypatch.setattr(federation, "_stacked", spy_stacked)
    hp = HyperParams(batch=4, local_epochs=2, lr0=0.05, lr1=0.01)
    datasets, step_loss = _lockstep(hp, 3)
    initial = init_params([2, 4], 2, 0)
    for call in range(2):  # the call that records both batch shapes, then one that replays them
        refs.clear()
        updates = local_train(initial, datasets, Watched(*step_loss), hp, 2 + call)
        buffer = weakref.ref(updates[0].params.head_w.base)  # the (k, P) buffer every client's model views
        assert buffer().shape == (3, flatten(initial).size) and len(refs) > 6
        del updates
        gc.collect()
        assert len(federation._RECORDED) == 2
        assert buffer() is None and [r for r in refs if r() is not None] == []


def test_kept_steps_are_bounded(monkeypatch):
    # a run_da target's pseudo-labelled set changes size every round: each size is a new structure
    monkeypatch.setattr(federation, "_RECORDED", {})
    rng = np.random.default_rng(1)
    initial = init_params([2, 4], 2, 0)
    for rows in range(1, ad._STEP_CACHE_SIZE + 4):
        pseudo = DomainDataset(0, rng.normal(0.0, 1.0, (rows, 2)), np.arange(rows) % 2)
        local_train(initial, [pseudo], plain_ce_loss, HyperParams(batch=rows), 1)
    assert len(federation._RECORDED) == ad._STEP_CACHE_SIZE
    assert [key[-1] for key in federation._RECORDED][-1] == ((rows, 2), (rows, 2))  # the newest is kept


def test_a_gm_run_records_each_structure_once_and_checks_every_call(monkeypatch):
    # the benchmark's dg-moons-gm run: 30 rounds, each a full batch and a short one
    monkeypatch.setattr(federation, "_RECORDED", {})
    recordings, checks = [], []
    real_loss, real_backward = federation.local_loss, federation.backward

    def spy_loss(tape, *args, **kwargs):
        recordings.append(tape)
        return real_loss(tape, *args, **kwargs)

    def spy_backward(tape, loss):
        checks.append(tape)
        return real_backward(tape, loss)

    monkeypatch.setattr(federation, "local_loss", spy_loss)
    monkeypatch.setattr(federation, "backward", spy_backward)
    federation.run_dg(experiments.dg_config(3, 0, True))
    # round 1 (no heads) and the later rounds (three heads), each at two batch shapes
    assert len(recordings) == 4
    assert len(checks) == 60 and {id(t) for t in checks} == {id(t) for t in recordings}


@pytest.mark.parametrize("gm_enabled", [True, False])
def test_settings_and_head_count_key_the_kept_steps(gm_enabled, monkeypatch):
    monkeypatch.setattr(federation, "_RECORDED", {})
    datasets, _ = _lockstep(HyperParams(), 0)
    initial = init_params([2, 4], 2, 0)
    keys = []
    for lam, n_heads in ((0.5, 2), (0.5, 2), (-0.0, 2), (0.0, 2), (0.0, 3)):
        hp = HyperParams(batch=4, lam=lam, gm_enabled=gm_enabled)
        local_train(initial, datasets, _lockstep(hp, n_heads)[1], hp, 2)
        keys.append(len(federation._RECORDED))
    # FedAvg reads neither: one structure per batch shape; GM keys lambda by repr, so -0.0 is its own
    assert keys == ([2, 2, 4, 6, 8] if gm_enabled else [2, 2, 2, 2, 2])
