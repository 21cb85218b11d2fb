"""Rewrite tests/golden/steps/: the source of every step compile_step builds
for the four benchmark configs.

Each file holds one compiled step's source as ``compile_step`` returns it,
named ``<workload>.<round kind>.k<clients>.b<batch rows>.txt``. The round
kinds are ``round1`` (the source clients with no head snapshots, so no
inter-domain term), ``round2`` (one snapshot per source) and ``target`` (the
adaptation target's plain cross-entropy on its pseudo-labelled rows). The
steps come from ``local_train`` calls on seeded random datasets of the
configs' train-split sizes, with ``federation.compile_step`` spied, so the
set depends on no run, no vote outcome and no BLAS kernel. A source an
earlier file already holds gets no file of its own: da-moons's source
clients run dg-moons-gm's steps, and FedAvg runs one step in every round.

    python3 scripts/regen_golden_steps.py

``tests/test_golden_steps.py`` regenerates the set and compares it with the
files, so a change to generated code shows as a diff of these files.
"""

from __future__ import annotations

import sys
from pathlib import Path
from unittest import mock

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))  # run from a checkout without installing

from fedgm import experiments, federation
from fedgm.autodiff import compile_step
from fedgm.data import DomainDataset, _n_test
from fedgm.files import write_atomic
from fedgm.model import HeadSnapshot, init_params

GOLDEN = REPO / "tests" / "golden" / "steps"

# the benchmark workloads' configs, at fold 3 (dg) and the committed DA target
CONFIGS = {
    "dg-moons-gm": experiments.dg_config(3, 0, True),
    "dg-moons-fedavg": experiments.dg_config(3, 0, False),
    "da-moons": experiments.da_config(experiments.DA_TARGET, 0),
    "swap-textured-amix": experiments.swap_config(3, 0, "amplitude_mix"),
}
TARGET_ROWS = 20  # the target's accepted rows: a 16-row batch, then a 4-row one


def _dataset(domain_id: int, rows: int, width: int, classes: int) -> DomainDataset:
    rng = np.random.default_rng(domain_id)
    return DomainDataset(domain_id, rng.normal(size=(rows, width)), np.arange(rows) % classes)


def _head(domain_id: int, arch: list[int], classes: int) -> HeadSnapshot:
    params = init_params(arch, classes, domain_id)
    return HeadSnapshot(domain_id, params.head_w, params.head_b)


def golden_steps() -> dict[str, str]:
    """Each distinct compiled source by its file name, in the order the steps were built."""
    steps: dict[str, str] = {}
    round_kind = ""

    def spy(tape, k, loss, outs, fed=()):
        step = compile_step(tape, k, loss, outs, fed)
        if step.source not in steps.values():
            steps[f"{round_kind}.k{k}.b{tape.vals[fed[-1]].shape[0]}.txt"] = step.source
        return step

    with mock.patch.object(federation, "compile_step", spy):
        for workload, config in CONFIGS.items():
            width, classes, hp = config.arch[0], config.data.classes, config.hp
            n_train = config.data.n_per_domain - _n_test(config.data.n_per_domain)
            source_ids = [d for d in range(config.data.domain_count) if d != config.held_out]
            sources = [_dataset(d, n_train, width, classes) for d in source_ids]
            initial = init_params(config.arch, classes, 0)
            heads = [_head(d, config.arch, classes) for d in source_ids]
            for round_t, snapshots in ((1, []), (2, heads)):
                round_kind = f"{workload}.round{round_t}"
                step_loss = federation._matching_loss(snapshots, hp, config.augmentation)
                federation.local_train(initial, sources, step_loss, hp, round_t)
            if config.mode == "da":
                round_kind = f"{workload}.target"
                pseudo = _dataset(config.held_out, TARGET_ROWS, width, classes)
                federation.local_train(initial, [pseudo], federation.plain_ce_loss, hp, 1)
    return steps


def main() -> None:
    steps = golden_steps()
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for stale in sorted(set(p.name for p in GOLDEN.glob("*.txt")) - steps.keys()):
        (GOLDEN / stale).unlink()
        print(f"removed {stale}")
    for name, source in steps.items():
        write_atomic(GOLDEN / name, [source])
    print(f"wrote {len(steps)} steps to {GOLDEN.relative_to(REPO)}")


if __name__ == "__main__":
    main()
