"""Regenerate results/directional.json from scratch.

Writes the three sections that fedgm.experiments derives: both arms of the
leave-one-domain-out comparison, the adaptation extension (which reuses the
comparison's fold-1 GM runs), and the augmentation-swap ablation.
Deterministic: rerunning must reproduce the file exactly.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))  # run from a checkout without installing

from fedgm.experiments import augmentation_swap, da_extension, dg_directional
from fedgm.files import write_atomic


def main() -> None:
    out = {}
    for name, derive in (
        ("dg_directional", dg_directional),
        ("da_extension", lambda: da_extension(out["dg_directional"])),
        ("augmentation_swap", augmentation_swap),
    ):
        t0 = time.perf_counter()
        out[name] = derive()
        print(f"{name}: {time.perf_counter() - t0:.1f}s")
    path = REPO / "results" / "directional.json"
    path.parent.mkdir(exist_ok=True)
    write_atomic(path, [json.dumps(out, indent=2, sort_keys=True) + "\n"])
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
