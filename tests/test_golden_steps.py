"""The compiled steps of the benchmark configs, held against tests/golden/steps/.

A change to the code ``compile_step`` generates fails here with the diff;
if the change is meant, ``python3 scripts/regen_golden_steps.py`` rewrites
the files and the diff goes into review. The byte-for-byte differential
tests of the engine stay the oracle; this shows what the steps are.
"""

import difflib
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "regen_golden_steps.py"


_spec = importlib.util.spec_from_file_location("regen_golden_steps", SCRIPT)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def test_compiled_steps_match_the_golden_files():
    want = {p.name: p.read_text(encoding="utf-8") for p in regen.GOLDEN.glob("*.txt")}
    got = regen.golden_steps()
    diff = []
    for name in sorted(want.keys() | got.keys()):
        a, b = want.get(name, "").splitlines(keepends=True), got.get(name, "").splitlines(keepends=True)
        diff += difflib.unified_diff(a, b, f"golden/{name}", f"compiled/{name}")
    if diff:
        pytest.fail("compiled steps differ from tests/golden/steps (regen_golden_steps.py rewrites them):\n" + "".join(diff))


def test_every_benchmark_step_kind_has_a_golden_file():
    names = {p.name for p in regen.GOLDEN.glob("*.txt")}
    for workload, short in (("dg-moons-gm", 4), ("swap-textured-amix", 8)):
        for round_t in (1, 2):
            assert {f"{workload}.round{round_t}.k3.b16.txt", f"{workload}.round{round_t}.k3.b{short}.txt"} <= names
    assert {"dg-moons-fedavg.round1.k3.b16.txt", "dg-moons-fedavg.round1.k3.b4.txt"} <= names
    assert {"da-moons.target.k1.b16.txt", "da-moons.target.k1.b4.txt"} <= names


def test_every_op_steps_have_golden_files():
    # _every_op_tape's steps hold the templates of the ops no benchmark step uses
    names = {p.name for p in regen.GOLDEN.glob("*.txt")}
    assert {"every-op.k1.txt", "every-op.k2.txt", "every-op.k3.txt"} <= names
