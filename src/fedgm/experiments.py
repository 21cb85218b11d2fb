"""Committed benchmark configurations and the derivations that run them.

These are the exact settings behind results/directional.json.
``dg_directional``, ``da_extension`` and ``augmentation_swap`` each compute
one section of it: scripts/derive_directional_results.py writes them and the
acceptance suite compares them with the committed file. Directional claims
only hold for these configurations, so treat any change here as
invalidating the committed numbers (regenerate with the derive script).
"""

from __future__ import annotations

from .config import Config, DataSpec, HyperParams
from .data import AugmentationSpec
from .federation import run_da, run_dg

MOON_ANGLES = [0.0, 25.0, 50.0, 75.0]
SEEDS = [0, 1, 2, 3, 4]
DA_TARGET = 1
SWAP_SEEDS = [0, 1]

SWAP_ARMS = {
    "amplitude_mix": AugmentationSpec.amplitude_mix(0.6),
    "gaussian_noise": AugmentationSpec.gaussian_noise(0.15),
}


def _moon_config(mode: str, fold: int, seed: int, gm: bool) -> Config:
    # 625 samples per domain leave 500 in each training split
    return Config(
        experiment="directional-moons",
        mode=mode,
        data=DataSpec(kind="rotated_moons", angles=MOON_ANGLES, n_per_domain=625, noise_sigma=0.1, classes=2),
        held_out=fold,
        arch=[2, 32, 32],
        augmentation=AugmentationSpec.gaussian_noise(0.15),
        hp=HyperParams(
            lam=0.5, rounds=30, batch=16, lr0=1e-3, lr1=1e-4,
            seed=seed, tau=0.9, min_votes=2, gm_enabled=gm,
        ),
        out_dir="unused",
        seeds=[seed],
    )


def dg_config(fold: int, seed: int, gm: bool) -> Config:
    return _moon_config("dg", fold, seed, gm)


def da_config(target: int, seed: int) -> Config:
    return _moon_config("da", target, seed, True)


def swap_config(fold: int, seed: int, arm: str) -> Config:
    return Config(
        experiment="augmentation-swap",
        mode="dg",
        data=DataSpec(kind="textured", n_domains=4, side=8, n_per_domain=250, classes=3),
        held_out=fold,
        arch=[64, 32, 32],
        augmentation=SWAP_ARMS[arm],
        hp=HyperParams(lam=0.5, rounds=12, batch=16, lr0=1e-3, lr1=1e-4, seed=seed),
        out_dir="unused",
        seeds=[seed],
    )


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def dg_directional() -> dict:
    """Leave-one-domain-out unseen accuracy of both arms, every fold and seed."""
    per_run = {}
    per_fold = {}
    for fold in range(len(MOON_ANGLES)):
        accs = {"gm": [], "baseline": []}
        for seed in SEEDS:
            for arm, gm in (("gm", True), ("baseline", False)):
                acc = run_dg(dg_config(fold, seed, gm)).final_value("eval_unseen", "accuracy", fold)
                accs[arm].append(acc)
                per_run[f"fold{fold}_seed{seed}_{arm}"] = acc
        gm_mean, bl_mean = _mean(accs["gm"]), _mean(accs["baseline"])
        per_fold[str(fold)] = {"gm_mean": gm_mean, "baseline_mean": bl_mean, "margin": gm_mean - bl_mean}
    return {
        "angles": MOON_ANGLES,
        "seeds": SEEDS,
        "per_fold": per_fold,
        "average_margin": _mean([f["margin"] for f in per_fold.values()]),
        "per_run_unseen_accuracy": per_run,
    }


def da_extension(dg: dict) -> dict:
    """Adaptation on fold DA_TARGET against that fold's GM runs in ``dg``,
    the section ``dg_directional`` returns."""
    per_seed = {}
    wins = 0
    for seed in SEEDS:
        da = run_da(da_config(DA_TARGET, seed))
        da_acc = da.final_value("eval_target", "accuracy", DA_TARGET)
        dg_acc = dg["per_run_unseen_accuracy"][f"fold{DA_TARGET}_seed{seed}_gm"]
        wins += int(da_acc >= dg_acc)
        per_seed[str(seed)] = {
            "da_target_accuracy": da_acc,
            "dg_target_accuracy": dg_acc,
            "final_precision": da.final_value("pseudo", "pl_precision", DA_TARGET),
            "final_coverage": da.final_value("pseudo", "pl_coverage", DA_TARGET),
        }
    return {"target": DA_TARGET, "seeds": SEEDS, "per_seed": per_seed, "wins": wins}


def augmentation_swap() -> dict:
    """Unseen accuracy of both swap arms on every textured fold."""
    per_fold = {}
    for fold in range(4):
        entry = {
            arm: [
                run_dg(swap_config(fold, seed, arm)).final_value("eval_unseen", "accuracy", fold)
                for seed in SWAP_SEEDS
            ]
            for arm in SWAP_ARMS
        }
        entry["gap"] = abs(_mean(entry["amplitude_mix"]) - _mean(entry["gaussian_noise"]))
        per_fold[str(fold)] = entry
    return {"seeds": SWAP_SEEDS, "per_fold": per_fold}
