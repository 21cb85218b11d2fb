"""Regenerate results/directional.json from scratch.

Runs both arms of the leave-one-domain-out comparison, the adaptation
extension, and the augmentation-swap ablation with the configurations in
fedgm.experiments, and records every headline number the acceptance suite
asserts against. Deterministic: rerunning must reproduce the file exactly.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))  # run from a checkout without installing

from fedgm.experiments import (
    DA_TARGET,
    MOON_ANGLES,
    SEEDS,
    SWAP_ARMS,
    SWAP_SEEDS,
    da_config,
    dg_config,
    swap_config,
)
from fedgm.federation import run_da, run_dg
from fedgm.files import write_atomic


def derive_dg_directional() -> dict:
    per_run = {}
    per_fold = {}
    for fold in range(len(MOON_ANGLES)):
        gm_accs, bl_accs = [], []
        for seed in SEEDS:
            for gm, accs in ((True, gm_accs), (False, bl_accs)):
                table = run_dg(dg_config(fold, seed, gm))
                acc = table.final_value("eval_unseen", "accuracy", fold)
                accs.append(acc)
                per_run[f"fold{fold}_seed{seed}_{'gm' if gm else 'baseline'}"] = acc
        gm_mean = sum(gm_accs) / len(gm_accs)
        bl_mean = sum(bl_accs) / len(bl_accs)
        per_fold[str(fold)] = {
            "gm_mean": gm_mean,
            "baseline_mean": bl_mean,
            "margin": gm_mean - bl_mean,
        }
    margins = [f["margin"] for f in per_fold.values()]
    return {
        "angles": MOON_ANGLES,
        "seeds": SEEDS,
        "per_fold": per_fold,
        "average_margin": sum(margins) / len(margins),
        "per_run_unseen_accuracy": per_run,
    }


def derive_da_extension() -> dict:
    per_seed = {}
    wins = 0
    for seed in SEEDS:
        da = run_da(da_config(DA_TARGET, seed))
        dg = run_dg(dg_config(DA_TARGET, seed, True))
        da_acc = da.final_value("eval_target", "accuracy", DA_TARGET)
        dg_acc = dg.final_value("eval_unseen", "accuracy", DA_TARGET)
        wins += int(da_acc >= dg_acc)
        per_seed[str(seed)] = {
            "da_target_accuracy": da_acc,
            "dg_target_accuracy": dg_acc,
            "final_precision": da.final_value("pseudo", "pl_precision", DA_TARGET),
            "final_coverage": da.final_value("pseudo", "pl_coverage", DA_TARGET),
        }
    return {"target": DA_TARGET, "seeds": SEEDS, "per_seed": per_seed, "wins": wins}


def derive_augmentation_swap() -> dict:
    per_fold = {}
    for fold in range(4):
        entry = {}
        for arm in SWAP_ARMS:
            entry[arm] = [
                run_dg(swap_config(fold, seed, arm)).final_value("eval_unseen", "accuracy", fold)
                for seed in SWAP_SEEDS
            ]
        a = sum(entry["amplitude_mix"]) / len(SWAP_SEEDS)
        n = sum(entry["gaussian_noise"]) / len(SWAP_SEEDS)
        entry["gap"] = abs(a - n)
        per_fold[str(fold)] = entry
    return {"seeds": SWAP_SEEDS, "per_fold": per_fold}


def main() -> None:
    out = {}
    for name, derive in (
        ("dg_directional", derive_dg_directional),
        ("da_extension", derive_da_extension),
        ("augmentation_swap", derive_augmentation_swap),
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
