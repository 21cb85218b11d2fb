"""Experiment configuration: the data, model and optimizer settings of a run.

``Config.validate`` is the one check of a config's values: the type of
every field first, then every range and cross-field rule. The JSON reader
and the round protocol both call it, so a config built in Python gets the
check, and the messages, of one read from a file.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

from .data import AugmentationSpec, _n_test, finite_number
from .errors import UsageError


def _integer(value) -> bool:
    """Whether ``value`` is an integer; a numpy integer is one, a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _require(ok: bool, name: str, what: str, value) -> None:
    """Raise UsageError, naming the setting and its value, unless ``ok``."""
    if not ok:
        raise UsageError(f"{name} must be {what}, got {value!r}")


def _require_integer(name: str, value, minimum: int | None = None) -> None:
    at_least = "" if minimum is None else f" >= {minimum}"
    _require(_integer(value) and (minimum is None or value >= minimum), name, f"an integer{at_least}", value)


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
        for name in ("lam", "lr0", "lr1", "momentum", "weight_decay", "tau"):
            value = getattr(self, name)
            _require(finite_number(value), f"hp.{'lambda' if name == 'lam' else name}", "a finite number", value)
        for name in ("inter_normalize", "gm_enabled"):
            _require(isinstance(getattr(self, name), bool), f"hp.{name}", "true or false", getattr(self, name))
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
        for name, minimum in (("seed", 0), ("rounds", 1), ("local_epochs", 1), ("batch", 1), ("min_votes", 1)):
            _require_integer(f"hp.{name}", getattr(self, name), minimum)


@dataclass
class DataSpec:
    """Generator choice plus its parameters."""

    KEYS = {  # kind -> (required, optional) fields; a kind reads no other field
        "rotated_moons": (("angles", "n_per_domain"), ("noise_sigma", "classes")),
        "textured": (("n_domains", "side", "n_per_domain"), ("classes",)),
    }
    KINDS = tuple(KEYS)

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
        """Raise UsageError unless the data kind is known, every field has its
        type, a data field the kind does not read (``DataSpec.KEYS``) holds its
        default, the class count, domain size (a train split of at least one row
        per class), grid side, noise level, domain count, held-out index, input
        width, augmentation and hp fit, hp.seed is one of seeds, and in mode "da"
        enough sources can vote."""
        if self.data.kind not in DataSpec.KINDS:
            raise UsageError(f"data.kind: unknown generator '{self.data.kind}'")
        _require(self.mode in ("dg", "da"), "mode", "'dg' or 'da'", self.mode)
        for name in ("experiment", "out_dir"):
            _require(isinstance(getattr(self, name), str), name, "a string", getattr(self, name))
        arch, seeds = self.arch, self.seeds
        widths = isinstance(arch, list) and arch and all(_integer(d) and d >= 1 for d in arch)
        _require(widths, "arch", "a non-empty list of positive integers", arch)
        valid_seeds = isinstance(seeds, list) and seeds and all(_integer(s) and s >= 0 for s in seeds)
        _require(valid_seeds, "seeds", "a non-empty list of non-negative integers", seeds)
        repeated = next((s for i, s in enumerate(seeds) if s in seeds[:i]), None)
        if repeated is not None:
            raise UsageError(f"seeds: seed {repeated} is listed more than once")
        _require_integer("held_out", self.held_out)
        for name in ("n_per_domain", "n_domains", "side", "classes"):
            _require_integer(f"data.{name}", getattr(self.data, name))
        angles, noise = self.data.angles, self.data.noise_sigma
        numbers_only = isinstance(angles, list) and all(map(finite_number, angles))
        _require(numbers_only, "data.angles", "a list of finite numbers", angles)
        _require(finite_number(noise), "data.noise_sigma", "a finite number", noise)
        read, default = sum(DataSpec.KEYS[self.data.kind], ("kind",)), DataSpec(self.data.kind)
        for name in (f.name for f in fields(DataSpec) if f.name not in read):
            if getattr(self.data, name) != getattr(default, name):
                raise UsageError(f"data.{name}: {self.data.kind} data takes no {name}")
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
        width = 2 if self.data.kind == "rotated_moons" else self.data.side * self.data.side
        if self.arch[0] != width:
            raise UsageError(f"arch: input width {self.arch[0]} does not match the data width {width}")
        kind = self.augmentation.kind
        if kind == "input_rotation" and width != 2:
            raise UsageError(f"augmentation: input_rotation needs 2-d rows, got width {width}")
        if kind == "amplitude_mix" and math.isqrt(width) ** 2 != width:
            raise UsageError(f"augmentation: amplitude_mix needs square grids, got width {width}")
        self.hp.validate()
        if self.hp.seed not in self.seeds:
            raise UsageError(f"hp.seed {self.hp.seed} is not one of seeds {self.seeds}")
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
