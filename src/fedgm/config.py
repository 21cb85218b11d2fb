"""Experiment configuration: the data, model and optimizer settings of a run.

``Config.validate`` checks the class count, the domain size, the grid side,
the domain count, the held-out index, the input width, the noise level, the
augmentation, the hyperparameters and, for adaptation, the vote quorum; the
JSON parser and the round protocol both call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .data import AugmentationSpec, _n_test
from .errors import UsageError


@dataclass
class HyperParams:
    """Optimizer and protocol knobs, one bundle per experiment."""

    lam: float = 0.5
    rounds: int = 30
    local_epochs: int = 1
    batch: int = 16
    lr0: float = 1e-3
    lr1: float = 1e-4
    momentum: float = 0.9
    weight_decay: float = 5e-4
    seed: int = 0
    inter_normalize: bool = False
    tau: float = 0.9
    min_votes: int = 2
    gm_enabled: bool = True

    def validate(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise UsageError(f"hp.lambda must lie in [0, 1], got {self.lam}")
        if not self.lr0 >= self.lr1 > 0.0:
            raise UsageError(f"learning rates must satisfy lr0 >= lr1 > 0, got {self.lr0}, {self.lr1}")
        if not 0.0 < self.tau <= 1.0:
            raise UsageError(f"hp.tau must lie in (0, 1], got {self.tau}")
        if not 0.0 <= self.momentum < 1.0:
            raise UsageError(f"hp.momentum must lie in [0, 1), got {self.momentum}")
        if not self.weight_decay >= 0.0:
            raise UsageError(f"hp.weight_decay must be >= 0, got {self.weight_decay}")
        if self.rounds < 1 or self.local_epochs < 1 or self.batch < 1 or self.min_votes < 1:
            raise UsageError("rounds, local_epochs, batch and min_votes must all be >= 1")


@dataclass
class DataSpec:
    """Generator choice plus its parameters."""

    kind: str
    angles: list[float] = field(default_factory=list)
    n_domains: int = 0
    side: int = 0
    n_per_domain: int = 0
    noise_sigma: float = 0.0
    classes: int = 2

    @property
    def domain_count(self) -> int:
        return len(self.angles) if self.kind == "rotated_moons" else self.n_domains


@dataclass
class Config:
    experiment: str
    mode: str
    data: DataSpec
    held_out: int
    arch: list[int]
    augmentation: AugmentationSpec
    hp: HyperParams
    out_dir: str
    seeds: list[int]

    def validate(self) -> None:
        """Raise UsageError unless the class count, domain size (a train split
        of at least one row per class), grid side,
        domain count, held-out index, input width, noise level, augmentation
        and hp fit, and in adaptation mode enough sources can vote."""
        if self.data.classes < 2:
            raise UsageError(f"data.classes must be >= 2, got {self.data.classes}")
        # every domain's train split (all of one size) must be able to hold every class
        n_train = self.data.n_per_domain - _n_test(self.data.n_per_domain)
        if n_train < self.data.classes:
            raise UsageError(
                f"data.n_per_domain {self.data.n_per_domain} cannot hold one sample of each of "
                f"the {self.data.classes} classes in a train split of {max(n_train, 0)} rows"
            )
        if self.data.kind == "textured" and not 8 <= self.data.side <= 32:
            raise UsageError(f"data.side must lie in [8, 32], got {self.data.side}")
        if not self.data.noise_sigma >= 0.0:
            raise UsageError(f"data.noise_sigma must be >= 0, got {self.data.noise_sigma}")
        n_domains = self.data.domain_count
        if n_domains < 2:
            raise UsageError(f"data: need at least 2 domains, one held out and one source, got {n_domains}")
        if not 0 <= self.held_out < n_domains:
            raise UsageError(f"held_out: index {self.held_out} outside the {n_domains} configured domains")
        d_in = self.arch[0] if self.arch else 0
        width = 2 if self.data.kind == "rotated_moons" else self.data.side * self.data.side
        if d_in != width:
            raise UsageError(f"arch: input width {d_in} does not match the data width {width}")
        kind = self.augmentation.kind
        if kind == "input_rotation" and width != 2:
            raise UsageError(f"augmentation: input_rotation needs 2-d rows, got width {width}")
        if kind == "amplitude_mix" and self.data.kind != "textured":
            raise UsageError(f"augmentation: amplitude_mix needs square grids, got width {width}")
        self.hp.validate()
        # amplitude_mix pairs rows within a batch, so no source's train split
        # may leave a one-row batch
        batch = self.hp.batch
        if kind == "amplitude_mix" and (batch == 1 or n_train % batch == 1):
            first_source = 1 if self.held_out == 0 else 0
            raise UsageError(
                f"amplitude_mix needs batches of at least 2 rows, but batch {batch} leaves a "
                f"1-row batch in the {n_train} training rows of domain {first_source}"
            )
        if self.mode == "da" and self.hp.min_votes > n_domains - 1:
            # such a vote accepts no row, so the target would never train
            raise UsageError(
                f"hp.min_votes {self.hp.min_votes} exceeds the {n_domains - 1} source domains that can vote"
            )
