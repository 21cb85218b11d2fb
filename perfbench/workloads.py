"""The four benchmark workloads and the result gate they share.

Every workload runs one committed configuration from ``fedgm.experiments``
through a public protocol entry point (``run_dg`` or ``run_da``). A run of
the benchmark with workload seed ``s`` uses the protocol seeds
``s, s+1, ..., s+window-1``: the headline accuracy of a single seed swings by
0.15 (moons) to 0.4 (swap) between seeds, so the reported ``final_acc`` is the
mean over the window, which keeps it comparable from one workload seed to the
next.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from fedgm import experiments, federation
from fedgm import rng as streams
from fedgm.data import train_test_split
from fedgm.model import init_params


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "dg" or "da": which protocol entry point and headline metric
    window: int  # protocol seeds per benchmark run
    config: Callable[[int], object]  # protocol seed -> committed configuration

    def warmup_config(self, seed: int):
        """The same configuration cut to two rounds: round 2 is the first
        with head snapshots, so every code path of a full run executes."""
        cfg = self.config(seed)
        return dataclasses.replace(cfg, hp=dataclasses.replace(cfg.hp, rounds=2))

    def protocol(self, config):
        # looked up at call time so a tracer can wrap the module attribute
        entry = federation.run_dg if self.mode == "dg" else federation.run_da
        return entry(config)

    def observe(self, config, table) -> dict:
        """The numbers the result gate compares, read from the metrics table."""
        t = config.held_out
        if self.mode == "dg":
            return {"accuracy": table.final_value("eval_unseen", "accuracy", t)}
        return {
            "accuracy": table.final_value("eval_target", "accuracy", t),
            "final_precision": table.final_value("pseudo", "pl_precision", t),
            "final_coverage": table.final_value("pseudo", "pl_coverage", t),
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dg-moons-gm", "dg", 2, lambda s: experiments.dg_config(3, s, True)),
        Workload("dg-moons-fedavg", "dg", 5, lambda s: experiments.dg_config(3, s, False)),
        Workload("da-moons", "da", 2, lambda s: experiments.da_config(experiments.DA_TARGET, s)),
        Workload("swap-textured-amix", "dg", 5, lambda s: experiments.swap_config(3, s, "amplitude_mix")),
    )
}


def committed_expectations(results_path: Path) -> dict[str, dict[int, dict]]:
    """Per workload and committed seed, the values results/directional.json
    records for that exact configuration."""
    with open(results_path, encoding="utf-8") as fh:
        res = json.load(fh)
    dg = res["dg_directional"]
    da = res["da_extension"]
    swap = res["augmentation_swap"]
    runs = dg["per_run_unseen_accuracy"]
    return {
        "dg-moons-gm": {s: {"accuracy": runs[f"fold3_seed{s}_gm"]} for s in dg["seeds"]},
        "dg-moons-fedavg": {s: {"accuracy": runs[f"fold3_seed{s}_baseline"]} for s in dg["seeds"]},
        "da-moons": {
            s: {
                "accuracy": da["per_seed"][str(s)]["da_target_accuracy"],
                "final_precision": da["per_seed"][str(s)]["final_precision"],
                "final_coverage": da["per_seed"][str(s)]["final_coverage"],
            }
            for s in da["seeds"]
        },
        "swap-textured-amix": {
            s: {"accuracy": acc}
            for s, acc in zip(swap["seeds"], swap["per_fold"]["3"]["amplitude_mix"])
        },
    }


def rows_digest(table) -> str:
    """Digest of the metrics rows exactly as MetricsTable.write_csv spells them."""
    buf = io.StringIO()
    for r, p, d, m, v in table.rows:
        buf.write(f"{r},{p},{d},{m},{v!r}\n")
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


class ResultGate:
    """Checks every protocol run of one benchmark invocation.

    On a committed seed the observed numbers must equal the committed ones
    bit for bit. On every seed, each repeat must write the same metrics rows
    as the first run of that seed.
    """

    def __init__(self, workload: Workload, expected: dict[int, dict]):
        self.workload = workload
        self.expected = expected
        self.digests: dict[int, str] = {}
        self.observed: dict[int, dict] = {}

    def check(self, seed: int, config, table) -> list[str]:
        problems = []
        obs = self.workload.observe(config, table)
        # pl_precision is NaN by definition in a round that accepts no row
        bad = sorted({m for _, _, _, m, v in table.rows if not math.isfinite(v) and m != "pl_precision"})
        if bad:
            problems.append(f"seed {seed}: non-finite values in {bad}")
        want = self.expected.get(seed)
        if want is not None and obs != want:
            problems.append(f"seed {seed}: observed {obs} != committed {want}")
        digest = rows_digest(table)
        first = self.digests.setdefault(seed, digest)
        if digest != first:
            problems.append(f"seed {seed}: metrics rows differ from the first run of this seed")
        if not problems:
            self.observed.setdefault(seed, obs)
        return problems


def setup_once(config) -> list:
    """Data generation, the 80/20 split and model init, as run_dg does them.

    Returns the (train, test) split of every domain.
    """
    domains = federation.build_domains(config)
    split_seed = streams.subseed(config.hp.seed, streams.SPLIT)
    splits = [train_test_split(d, split_seed) for d in domains]
    init_params(config.arch, config.data.classes, streams.subseed(config.hp.seed, streams.INIT))
    return splits


def sgd_rows(workload: Workload, config, splits, table) -> int:
    """Training rows consumed by local SGD in one protocol run.

    Source clients pass over their train split once per local epoch every
    round. On da runs the target client also fine-tunes on the accepted
    pseudo-labelled rows, which the pl_coverage rows record as a fraction of
    the target pool.
    """
    hp = config.hp
    source = sum(tr.N for d, (tr, _) in enumerate(splits) if d != config.held_out)
    rows = hp.rounds * hp.local_epochs * source
    if workload.mode == "da":
        pool = splits[config.held_out][0].N
        accepted = sum(round(c * pool) for _, c in table.values("pseudo", "pl_coverage", config.held_out))
        rows += hp.local_epochs * accepted
    return rows
