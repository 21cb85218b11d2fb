"""What the committed benchmark (``perfbench/``, ``BENCHMARK.json``) needs from fedgm.

The benchmark wraps module attributes by name, copies recorded tapes and
reads op tags, so a refactor that renames one of them makes its output
incomplete without failing any other test. These checks only read the
benchmark's files.
"""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from fedgm import autodiff, federation
from fedgm.autodiff import OP_TAGS, Tape, backward
from fedgm.data import AugmentationSpec
from fedgm.federation import HyperParams, _matching_loss
from fedgm.model import HeadSnapshot, init_params, stage_params

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve():
    tracing = _load("tracing")
    missing = [
        (mod, attr)
        for slots in tracing.SPAN_TARGETS.values()
        for mod, attr in slots
        if not hasattr(importlib.import_module(mod), attr)
    ]
    assert missing == []


def test_local_train_takes_round_t():
    assert "round_t" in inspect.signature(federation.local_train).parameters


def test_listed_op_tags_exist():
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    tags = [m["name"].removeprefix("autodiff.ops.") for m in listed if m["name"].startswith("autodiff.ops.")]
    assert tags and set(tags) <= set(OP_TAGS)


def test_tape_layout_and_floor_step():
    tape = Tape()
    assert [tape.ops, tape.inputs, tape.vals, tape.saved, tape.params] == [[]] * 5
    # a source step as local_train records it, copied and rebuilt as the
    # traced benchmark does for its dispatch floor
    rng = np.random.default_rng(0)
    params = init_params([2, 6], 2, 0)
    snaps = [HeadSnapshot(1, rng.normal(size=(2, 6)), rng.normal(size=2))]
    step = _matching_loss(snaps, HyperParams(), AugmentationSpec.gaussian_noise(0.1))
    staged = stage_params(tape, params)
    feeds = [tape.constant(v) for v in step.feeds(rng.normal(size=(5, 2)), np.arange(5) % 2, 2, rng=rng)]
    loss, _ = step.record(tape, staged, *feeds)
    grads = backward(tape, loss)
    tracing, floor = _load("tracing"), _load("floor")
    frozen = tracing._frozen_copy(tape)
    bare, _ = floor.build_step(frozen, loss)
    assert floor.verify(bare, frozen, grads) == []
    assert set(frozen.ops) <= {autodiff.LEAF, *OP_TAGS}


def test_workloads_import():
    assert set(_load("workloads").WORKLOADS) == {"dg-moons-gm", "dg-moons-fedavg", "da-moons", "swap-textured-amix"}
