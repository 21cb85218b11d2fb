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
from unittest import mock

import numpy as np
import pytest

import fedgm.federation
from fedgm import experiments
from fedgm.autodiff import Tape, backward
from fedgm.cli import finite_difference_errors, head_gradient_deviation, main
from fedgm.federation import ClientUpdate, aggregate, knowledge_vote, run_dg
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
    worst_rel, _, worst_abs = finite_difference_errors([6, 8, 5], 20, seed=3)
    assert worst_rel <= 1e-5
    assert worst_abs <= 1e-7
    assert time.perf_counter() - t0 < 10.0


@criterion("closed-form-head-gradient")
def test_closed_form_head_gradient_matches_reverse_mode():
    assert head_gradient_deviation(50, seed=1) <= 1e-10


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


def _assert_committed(section: dict, name: str, exact=(), unchecked=()) -> None:
    """``section`` has the layout of the committed one; the keys in ``exact``
    are equal, every other float lies within COMMIT_ATOL, and the keys in
    ``unchecked`` are left to their criterion."""
    committed = RESULTS[name]
    assert section.keys() == committed.keys()
    for key, want in committed.items():
        if key in exact:
            assert section[key] == want, key
        elif key not in unchecked:
            _assert_close(section[key], want, key)


def _assert_close(got, want, path: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    else:
        assert isinstance(want, float) and isinstance(got, float), path
        assert got == pytest.approx(want, abs=COMMIT_ATOL), path


# each section is derived once per session, inside the first test that needs
# it, so a derivation that raises fails that test's criterion


@functools.cache
def _directional() -> tuple[dict, float]:
    t0 = time.perf_counter()
    section = experiments.dg_directional()
    return section, time.perf_counter() - t0


@functools.cache
def _adaptation() -> tuple[dict, list]:
    dg = _directional()[0]
    votes = []

    def recording_vote(*args):
        votes.append(knowledge_vote(*args))
        return votes[-1]

    with mock.patch.object(fedgm.federation, "knowledge_vote", recording_vote):
        section = experiments.da_extension(dg)
    return section, votes


@functools.cache
def _swap() -> tuple[dict, list]:
    totals = []

    def recording_run_dg(config):
        table = run_dg(config)
        totals.append([v for _, v in table.values("train", "total")])
        return table

    with mock.patch.object(experiments, "run_dg", recording_run_dg):
        section = experiments.augmentation_swap()
    return section, totals


@criterion("directional-generalization")
def test_gradient_matching_beats_fedavg_baseline_on_unseen_domains():
    section, seconds = _directional()
    _assert_committed(section, "dg_directional", exact=("angles", "seeds"))
    for fold in section["per_fold"].values():
        assert fold["margin"] >= -0.005  # no fold may lose more than half a point
    assert section["average_margin"] > 0.0
    assert seconds < 120.0


@criterion("adaptation-extension")
def test_pseudo_labeled_target_finetuning():
    section, votes = _adaptation()
    _assert_committed(section, "da_extension", exact=("target", "seeds"), unchecked=("wins",))
    assert len(votes) == 30 * len(section["seeds"]), "the vote must run every round"
    for voted in votes:  # hard invariant: confidence >= tau, all rounds
        if voted.n_accepted:
            assert voted.confidences.min() >= 0.9
    for entry in section["per_seed"].values():
        assert entry["final_precision"] >= 0.9
    assert section["wins"] >= 4


@criterion("augmentation-swap")
def test_amplitude_mix_arm_tracks_noise_arm():
    section, totals = _swap()
    _assert_committed(section, "augmentation_swap", exact=("seeds",))
    assert len(totals) == 4 * len(experiments.SWAP_ARMS) * len(section["seeds"])
    for run in totals:
        assert run and np.isfinite(run).all()
    for fold in section["per_fold"].values():
        assert fold["gap"] <= 0.05


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
