"""Rewrite tests/golden/steps/: the source of every step compile_step builds
for the four benchmark configs.

Each file holds one compiled step's source as ``compile_step`` returns it,
then, as comment lines, each constant it folded (``K…``) with its dims and
the sha256 of its bytes, so an edit to an adjoint template that a step
folds shows too. A file is named
``<workload>.<round kind>.k<clients>.b<batch rows>.txt``. The round
kinds are ``round1`` (the source clients with no head snapshots, so no
inter-domain term), ``round2`` (one snapshot per source) and ``target`` (the
adaptation target's plain cross-entropy on its pseudo-labelled rows). The
steps come from ``local_train`` calls on seeded random datasets of the
configs' train-split sizes, with ``federation.compile_step`` spied and
local_train's recorded steps emptied first, so every structure is compiled
here; the set depends on no run, no vote outcome and no BLAS kernel. A source an
earlier file already holds gets no file of its own: da-moons's source
clients run dg-moons-gm's steps, and FedAvg runs one step in every round.
``every-op.k<clients>.txt`` holds, for 1 to 3 clients, the step compiled from
``_every_op_tape`` in tests/test_replay.py, a loss that uses every op tag, so
a change to an op's templates shows here even if no benchmark step uses the
op.

    python3 scripts/regen_golden_steps.py

``tests/test_golden_steps.py`` regenerates the set and compares it with the
files, so a change to generated code shows as a diff of these files.
"""

from __future__ import annotations

import hashlib
import importlib.util
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

_spec = importlib.util.spec_from_file_location("test_replay", REPO / "tests" / "test_replay.py")
replay = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay)

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


def golden_text(step) -> str:
    """``step``'s source, then a comment line per folded constant: its name, dims and the sha256 of its bytes."""
    consts = [(name, value) for name, value in step.__globals__.items() if name.startswith("K")]
    lines = [f"# {name} {value.shape} {hashlib.sha256(value.tobytes()).hexdigest()}\n" for name, value in consts]
    return step.source + "# folded constants: name, dims, sha256 of the bytes\n" + "".join(lines)


def golden_steps() -> dict[str, str]:
    """Each distinct compiled step's text by its file name, in the order the steps were built."""
    steps: dict[str, str] = {}
    round_kind = ""

    def spy(tape, k, loss, outs, fed=()):
        step = compile_step(tape, k, loss, outs, fed)
        text = golden_text(step)
        if text not in steps.values():
            steps[f"{round_kind}.k{k}.b{tape.vals[fed[-1]].shape[0]}.txt"] = text
        return step

    with mock.patch.object(federation, "compile_step", spy), mock.patch.object(federation, "_RECORDED", {}):
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
    tape, loss = replay._every_op_tape(*replay._every_op_values(np.random.default_rng(11)))
    for k in (1, 2, 3):
        steps[f"every-op.k{k}.txt"] = golden_text(compile_step(tape, k, loss, [loss]))
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
