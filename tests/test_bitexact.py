"""Byte-level regression guard for the round protocol.

Each case runs a short protocol and hashes its metrics file exactly as
``MetricsTable.write_csv`` writes it. The digests were recorded from the
reference implementation; a refactor that moves any recorded value by one
bit changes a digest. This is a fast companion to
``scripts/derive_directional_results.py``, not a replacement for it.
"""

import hashlib
from dataclasses import replace

import pytest

from fedgm import rng as streams
from fedgm.config import Config, DataSpec
from fedgm.data import AugmentationSpec, gen_textured_domains
from fedgm.federation import HyperParams, run_da, run_dg


def _moons(mode, gm, n, tau=0.9, min_votes=2):
    return Config(
        experiment="bitexact",
        mode=mode,
        data=DataSpec(kind="rotated_moons", angles=[0.0, 30.0, 60.0], n_per_domain=n, noise_sigma=0.1, classes=2),
        held_out=2,
        arch=[2, 8],
        augmentation=AugmentationSpec.gaussian_noise(0.1),
        hp=HyperParams(
            lam=0.5, rounds=3, batch=16, lr0=0.05, lr1=0.01, seed=1,
            tau=tau, min_votes=min_votes, gm_enabled=gm,
        ),
        out_dir="unused",
        seeds=[1],
    )


def _moons_normalized():
    """Four domains, so every source matches against S = 3 snapshot heads."""
    base = _moons("dg", True, 120)
    return replace(
        base,
        data=replace(base.data, angles=[0.0, 30.0, 60.0, 90.0]),
        held_out=3,
        hp=replace(base.hp, lam=0.3, inter_normalize=True),
    )


def _textured_amix():
    return Config(
        experiment="bitexact",
        mode="dg",
        data=DataSpec(kind="textured", n_domains=3, side=8, n_per_domain=60, classes=3),
        held_out=0,
        arch=[64, 16],
        augmentation=AugmentationSpec.amplitude_mix(0.6),
        hp=HyperParams(lam=0.5, rounds=2, batch=16, lr0=0.05, lr1=0.01, seed=2),
        out_dir="unused",
        seeds=[2],
    )


def _textured_amix_odd_batches():
    """Each 47-row training split ends in a 2-row batch, whose partner draw
    has one value and draws nothing, and the second local epoch starts on a
    buffered 32-bit half, since the first draws 45 bounded values."""
    base = _textured_amix()
    return replace(
        base,
        data=replace(base.data, n_per_domain=59),
        hp=replace(base.hp, batch=15, local_epochs=2),
    )


CASES = {
    "dg-gm": (
        lambda: run_dg(_moons("dg", True, 120)),
        39,
        "92c36f26515a8603c6152ca5743be8fb3cc72e5818c851e267ecb2b0302e04dc",
    ),
    "dg-fedavg": (
        lambda: run_dg(_moons("dg", False, 120)),
        39,
        "b7ccdd9831356924ad6cfa08caffaf263a4ca3e244fd8f45792cd637546c2eef",
    ),
    "dg-gm-normalized": (
        lambda: run_dg(_moons_normalized()),
        57,
        "c8383cf663b0603758977738b8849281f62fadc08c4298128ff71fb7b1c299f6",
    ),
    # tau and min_votes are low enough that the target trains every round
    "da": (
        lambda: run_da(_moons("da", True, 200, tau=0.7, min_votes=1)),
        48,
        "ba756efc09e1e23242e2f47b87ede91531c32eaa528ac460f4cdb798673fc630",
    ),
    "dg-textured-amix": (
        lambda: run_dg(_textured_amix()),
        26,
        "e4a3e585b5be6f6bad351ff655623aae93f992e16fd0bde434e59c94dd2bd8ae",
    ),
    "dg-textured-amix-odd-batches": (
        lambda: run_dg(_textured_amix_odd_batches()),
        26,
        "2a2735e34792268269b6710bf4a1c30f14a7d92e9001fe95488dda08ce88e9a4",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_metrics_file_digest_pinned(case, tmp_path):
    run, n_rows, expected = CASES[case]
    table = run()
    path = tmp_path / "metrics.csv"
    table.write_csv(path)
    assert len(table.rows) == n_rows
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected


def test_swap_workload_data_digest_pinned():
    """The textured grids of the augmentation-swap configuration for seed 1."""
    h = hashlib.sha256()
    for d in gen_textured_domains(4, 8, 250, streams.subseed(1, streams.DATA), 3):
        h.update(d.X.tobytes())
        h.update(d.y.tobytes())
    assert h.hexdigest() == "5787fa038ae5312962ace499fe17cd6c9abb9cd8e0c8335984d9e6d18de3254f"
