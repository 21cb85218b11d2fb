"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion. The directional experiments reproduce the numbers committed
in results/directional.json.
"""

import functools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import fedgm.federation
from fedgm.autodiff import Tape, backward, finite_diff_grad
from fedgm.cli import (
    _flat_loss_fn,
    grad_check_instances,
    main,
    total_loss_gradient,
)
from fedgm.experiments import da_config, dg_config, swap_config
from fedgm.federation import ClientUpdate, aggregate, knowledge_vote, run_da, run_dg
from fedgm.model import flatten, init_params, unflatten
from fedgm.objective import cosine_sim, cross_entropy, local_loss

RESULTS = json.loads((Path(__file__).resolve().parents[1] / "results" / "directional.json").read_text())

# regenerated experiment values may drift across BLAS builds; committed
# numbers are checked coarsely while the criteria themselves are exact
COMMIT_ATOL = 0.02


def criterion(name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {name}: FAIL", flush=True)
                raise
            print(f"ACCEPTANCE {name}: PASS", flush=True)
            return out

        return run

    return wrap


@criterion("gradient-fidelity")
def test_gradient_fidelity_against_finite_differences():
    t0 = time.perf_counter()
    for params, snaps, X, X_aug, y, lam in grad_check_instances([6, 8, 5], 20, seed=3):
        g_ad = total_loss_gradient(params, snaps, X, X_aug, y, lam)
        f = _flat_loss_fn(params.arch, params.classes, snaps, X, X_aug, y, lam)
        g_fd = finite_diff_grad(f, flatten(params), 1e-5)
        err = np.abs(g_ad - g_fd)
        big = np.abs(g_fd) > 1e-6
        if big.any():
            assert (err[big] / np.abs(g_fd)[big]).max() <= 1e-5
        if (~big).any():
            assert err[~big].max() <= 1e-7
    assert time.perf_counter() - t0 < 10.0


@criterion("closed-form-head-gradient")
def test_closed_form_head_gradient_matches_reverse_mode():
    import fedgm.autodiff as ad
    from fedgm.objective import head_grad

    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        batch = int(rng.integers(1, 9))
        d_h = int(rng.integers(2, 9))
        classes = int(rng.integers(2, 6))
        H = rng.normal(0, 1, (batch, d_h))
        w = rng.normal(0, 0.8, (classes, d_h))
        b = rng.normal(0, 0.3, classes)
        y = rng.integers(0, classes, batch)
        t = Tape()
        w_id = t.leaf(w, param=True)
        b_id = t.leaf(b, param=True)
        z = ad.add(t, ad.matmul(t, t.constant(H), ad.transpose(t, w_id)), b_id)
        grads = backward(t, cross_entropy(t, z, y))
        auto = np.concatenate([grads[w_id].ravel(), grads[b_id].ravel()])
        t2 = Tape()
        closed = t2.value(head_grad(t2, t2.constant(H), y, w, b))
        worst = max(worst, float(np.abs(closed - auto).max()))
    assert worst <= 1e-10


@criterion("identity-augmentation-null")
def test_identity_augmentation_contributes_nothing():
    # instances with head-gradient norms above 1, where the cosine epsilon
    # perturbs the intra term by less than 1e-12
    for seed in (10, 13, 15):
        rng = np.random.default_rng(seed)
        params = init_params([3, 6, 5], 3, seed=seed)
        X = rng.normal(0.0, 4.0, (6, 3))
        y = rng.integers(0, 3, 6)
        _, bd = local_loss(Tape(), params, [], X, X, y, 1.0)
        assert bd.intra <= 1e-12

        def grad_at(lam):
            t = Tape()
            from fedgm.model import stage_params

            staged = stage_params(t, params)
            loss, _ = local_loss(t, staged, [], X, X, y, lam)
            grads = backward(t, loss)
            return np.concatenate([grads[nid].ravel() for nid in staged.all_ids()])

        assert np.linalg.norm(grad_at(1.0) - grad_at(0.0)) <= 1e-8


@criterion("aggregation-algebra")
def test_aggregation_weighted_mean_algebra():
    def params_from(head_flat):
        return unflatten([1], 2, np.asarray(head_flat, dtype=float))

    equal = aggregate(
        [
            ClientUpdate(0, params_from([1.0, 3.0, 1.0, 3.0]), 10),
            ClientUpdate(1, params_from([3.0, 5.0, 3.0, 5.0]), 10),
        ]
    )
    assert np.abs(flatten(equal)[:2] - [2.0, 4.0]).max() <= 1e-12
    weighted = aggregate(
        [
            ClientUpdate(0, params_from([1.0, 3.0, 1.0, 3.0]), 1),
            ClientUpdate(1, params_from([3.0, 5.0, 3.0, 5.0]), 3),
        ]
    )
    assert np.abs(flatten(weighted)[:2] - [2.5, 4.5]).max() <= 1e-12
    same = init_params([2, 4], 2, seed=1)
    counts = [7, 1, 29]
    fixed = aggregate([ClientUpdate(i, same.copy(), n) for i, n in enumerate(counts)])
    assert np.abs(flatten(fixed) - flatten(same)).max() <= 1e-12
    weights = np.array(counts) / sum(counts)
    assert abs(weights.sum() - 1.0) <= 1e-15


@criterion("determinism")
def test_metrics_are_byte_identical_and_schedule_free(tmp_path):
    config = {
        "experiment": "det",
        "mode": "dg",
        "data": {"kind": "rotated_moons", "angles": [0.0, 30.0, 60.0], "n_per_domain": 120, "noise_sigma": 0.1},
        "held_out": 2,
        "arch": [2, 8],
        "augmentation": {"kind": "gaussian_noise", "sigma": 0.15},
        "hp": {"rounds": 3, "lr0": 0.05, "lr1": 0.01},
        "seeds": [0],
    }
    payload = dict(config, out_dir=str(tmp_path / "out"))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(payload))
    csv_path = tmp_path / "out" / "seed_0.csv"
    assert main(["run-dg", "--config", str(cfg_path)]) == 0
    first = csv_path.read_bytes()
    assert main(["run-dg", "--config", str(cfg_path)]) == 0  # identical invocation
    assert csv_path.read_bytes() == first
    assert main(["run-dg", "--config", str(cfg_path), "--out", str(tmp_path / "other")]) == 0
    assert (tmp_path / "other" / "seed_0.csv").read_bytes() == first


@criterion("directional-generalization")
def test_gradient_matching_beats_fedavg_baseline_on_unseen_domains():
    committed = RESULTS["dg_directional"]
    t0 = time.perf_counter()
    margins = []
    for fold in range(4):
        gm_accs, bl_accs = [], []
        for seed in committed["seeds"]:
            for gm, accs in ((True, gm_accs), (False, bl_accs)):
                table = run_dg(dg_config(fold, seed, gm))
                acc = table.final_value("eval_unseen", "accuracy", fold)
                accs.append(acc)
                key = f"fold{fold}_seed{seed}_{'gm' if gm else 'baseline'}"
                assert acc == pytest.approx(committed["per_run_unseen_accuracy"][key], abs=COMMIT_ATOL)
        margin = float(np.mean(gm_accs) - np.mean(bl_accs))
        assert margin == pytest.approx(committed["per_fold"][str(fold)]["margin"], abs=COMMIT_ATOL)
        assert margin >= -0.005  # no fold may lose more than half a point
        margins.append(margin)
    assert float(np.mean(margins)) > 0.0
    assert time.perf_counter() - t0 < 120.0


@criterion("adaptation-extension")
def test_pseudo_labeled_target_finetuning(monkeypatch):
    committed = RESULTS["da_extension"]
    target = committed["target"]
    captured = []
    real_vote = knowledge_vote

    def recording_vote(models, X, tau, min_votes):
        out = real_vote(models, X, tau, min_votes)
        captured.append(out)
        return out

    monkeypatch.setattr(fedgm.federation, "knowledge_vote", recording_vote)
    wins = 0
    for seed in committed["seeds"]:
        captured.clear()
        da = run_da(da_config(target, seed))
        assert captured, "the vote must run every round"
        for voted in captured:  # hard invariant: confidence >= tau, all rounds
            if voted.n_accepted:
                assert voted.confidences.min() >= 0.9
        dg = run_dg(dg_config(target, seed, True))
        da_acc = da.final_value("eval_target", "accuracy", target)
        dg_acc = dg.final_value("eval_unseen", "accuracy", target)
        precision = da.final_value("pseudo", "pl_precision", target)
        expected = committed["per_seed"][str(seed)]
        assert da_acc == pytest.approx(expected["da_target_accuracy"], abs=COMMIT_ATOL)
        assert precision == pytest.approx(expected["final_precision"], abs=COMMIT_ATOL)
        assert precision >= 0.9
        wins += int(da_acc >= dg_acc)
    assert wins >= 4


@criterion("augmentation-swap")
def test_amplitude_mix_arm_tracks_noise_arm():
    committed = RESULTS["augmentation_swap"]
    for fold in range(4):
        arm_means = {}
        for arm in ("amplitude_mix", "gaussian_noise"):
            accs = []
            for seed in committed["seeds"]:
                table = run_dg(swap_config(fold, seed, arm))
                totals = [v for _, v in table.values("train", "total")]
                assert np.isfinite(totals).all()
                accs.append(table.final_value("eval_unseen", "accuracy", fold))
            arm_means[arm] = float(np.mean(accs))
            for acc, expected in zip(accs, committed["per_fold"][str(fold)][arm]):
                assert acc == pytest.approx(expected, abs=COMMIT_ATOL)
        assert abs(arm_means["amplitude_mix"] - arm_means["gaussian_noise"]) <= 0.05


@criterion("numeric-hygiene")
def test_uniform_cross_entropy_and_cosine_bounds():
    for classes in (2, 5, 10):
        t = Tape()
        z = t.constant(np.zeros((3, classes)))
        ce = float(t.value(cross_entropy(t, z, [0, classes - 1, classes // 2])))
        assert abs(ce - math.log(classes)) <= 1e-12
    rng = np.random.default_rng(123)
    for i in range(1000):
        n = int(rng.integers(2, 12))
        scale_u = 10.0 ** rng.uniform(-160, 2)
        scale_v = 10.0 ** rng.uniform(-160, 2)
        u = rng.normal(0, 1, n) * scale_u
        v = rng.normal(0, 1, n) * scale_v
        if i % 50 == 0:
            u = np.zeros(n)
        t = Tape()
        c = float(t.value(cosine_sim(t, t.constant(u), t.constant(v))))
        assert -1.0 - 1e-9 <= c <= 1.0 + 1e-9
