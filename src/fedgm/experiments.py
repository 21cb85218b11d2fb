"""Committed benchmark configurations.

These are the exact settings behind results/directional.json; the
acceptance suite re-runs them and compares. Directional claims only hold
for these configurations, so treat any change here as invalidating the
committed numbers (regenerate with scripts/derive_directional_results.py).
"""

from __future__ import annotations

from .config import Config, DataSpec, HyperParams
from .data import AugmentationSpec

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
