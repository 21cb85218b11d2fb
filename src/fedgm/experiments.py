"""Committed benchmark runs and the sections derived from them.

A builder reads its benchmark's settings from the checkout's configs/ on
every call and replaces only what the study varies. A section is a dict of
configs keyed by run name, run by ``run_all``, plus a reducer. Each computes
one section of results/directional.json, which
scripts/derive_directional_results.py writes and the acceptance suite checks,
so treat a change to a committed config as invalidating those numbers.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from .cli import parse_config
from .config import Config
from .data import AugmentationSpec
from .federation import MetricsTable, run_da, run_dg

CONFIGS = Path(__file__).resolve().parents[2] / "configs"
FOLDS = range(4)
SEEDS = [0, 1, 2, 3, 4]
DA_TARGET = 1
SWAP_SEEDS = [0, 1]

SWAP_ARMS = {
    "amplitude_mix": AugmentationSpec.amplitude_mix(0.6),
    "gaussian_noise": AugmentationSpec.gaussian_noise(0.15),
}


def _committed(name: str, held_out: int, seed: int, **hp) -> Config:
    """configs/<name> with its held-out domain, its seed and ``hp`` replaced."""
    config = parse_config(CONFIGS / name)
    return replace(config, held_out=held_out, hp=replace(config.hp, seed=seed, **hp), seeds=[seed])


def dg_config(fold: int, seed: int, gm: bool) -> Config:
    return _committed("dg_moons.json", fold, seed, gm_enabled=gm)


def da_config(target: int, seed: int) -> Config:
    return _committed("da_moons.json", target, seed)


def swap_config(fold: int, seed: int, arm: str) -> Config:
    return replace(_committed("dg_textured.json", fold, seed), augmentation=SWAP_ARMS[arm])


def run_all(configs: dict[str, Config]) -> dict[str, MetricsTable]:
    """Each config's metrics by its key, run one at a time in the dict's order."""
    return {key: (run_da if config.mode == "da" else run_dg)(config) for key, config in configs.items()}


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def _unseen(configs: dict[str, Config]) -> dict[str, float]:
    """Each dg run's final accuracy on its held-out domain, by key."""
    tables = run_all(configs)
    return {key: table.final_value("eval_unseen", "accuracy", configs[key].held_out) for key, table in tables.items()}


def dg_directional() -> dict:
    """Leave-one-domain-out unseen accuracy of both arms, every fold and seed."""
    arms = {"gm": True, "baseline": False}
    configs = {
        f"fold{fold}_seed{seed}_{arm}": dg_config(fold, seed, gm)
        for fold in FOLDS for seed in SEEDS for arm, gm in arms.items()
    }
    per_run = _unseen(configs)
    per_fold = {}
    for fold in FOLDS:
        gm_mean, bl_mean = (_mean([per_run[f"fold{fold}_seed{seed}_{arm}"] for seed in SEEDS]) for arm in arms)
        per_fold[str(fold)] = {"gm_mean": gm_mean, "baseline_mean": bl_mean, "margin": gm_mean - bl_mean}
    return {
        "angles": configs["fold0_seed0_gm"].data.angles,
        "seeds": SEEDS,
        "per_fold": per_fold,
        "average_margin": _mean([f["margin"] for f in per_fold.values()]),
        "per_run_unseen_accuracy": per_run,
    }


def da_extension(dg: dict) -> dict:
    """Adaptation on fold DA_TARGET against that fold's GM runs in ``dg``,
    the section ``dg_directional`` returns."""
    tables = run_all({f"fold{DA_TARGET}_seed{seed}_da": da_config(DA_TARGET, seed) for seed in SEEDS})
    per_seed = {}
    for seed in SEEDS:
        da = tables[f"fold{DA_TARGET}_seed{seed}_da"]
        per_seed[str(seed)] = {
            "da_target_accuracy": da.final_value("eval_target", "accuracy", DA_TARGET),
            "dg_target_accuracy": dg["per_run_unseen_accuracy"][f"fold{DA_TARGET}_seed{seed}_gm"],
            "final_precision": da.final_value("pseudo", "pl_precision", DA_TARGET),
            "final_coverage": da.final_value("pseudo", "pl_coverage", DA_TARGET),
        }
    wins = sum(e["da_target_accuracy"] >= e["dg_target_accuracy"] for e in per_seed.values())
    return {"target": DA_TARGET, "seeds": SEEDS, "per_seed": per_seed, "wins": wins}


def augmentation_swap() -> dict:
    """Unseen accuracy of both swap arms on every textured fold."""
    configs = {
        f"fold{fold}_{arm}_seed{seed}": swap_config(fold, seed, arm)
        for fold in FOLDS for arm in SWAP_ARMS for seed in SWAP_SEEDS
    }
    per_run = _unseen(configs)
    per_fold = {str(f): {arm: [per_run[f"fold{f}_{arm}_seed{s}"] for s in SWAP_SEEDS] for arm in SWAP_ARMS} for f in FOLDS}
    for entry in per_fold.values():
        entry["gap"] = abs(_mean(entry["amplitude_mix"]) - _mean(entry["gaussian_noise"]))
    return {"seeds": SWAP_SEEDS, "per_fold": per_fold}
