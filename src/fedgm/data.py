"""Synthetic multi-domain datasets and label-preserving augmentations.

Domains share one underlying sample draw and differ only by a controlled
style factor (a rotation of the input plane, or an additive texture on an
image-like grid), which is the covariate-shift setting the training
protocol assumes: P(X) moves across domains, P(Y|X-generative-factor) does
not.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .autodiff import as_tensor
from .errors import ShapeError, UsageError
from .rng import mix_draws, substream, substreams


@dataclass
class DomainDataset:
    """Labeled samples of one domain: 2-d rows ``X`` and 1-d labels ``y``, one label per row."""

    domain_id: int
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if np.ndim(self.X) != 2 or np.shape(self.y) != np.shape(self.X)[:1]:
            raise ShapeError(
                f"domain {self.domain_id}: rows of dims {np.shape(self.X)} and labels of dims {np.shape(self.y)} "
                "are not 2-d rows with one label each"
            )

    @property
    def N(self) -> int:
        return self.X.shape[0]

    def subset(self, indices) -> "DomainDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return DomainDataset(self.domain_id, self.X[idx].copy(), self.y[idx].copy())

    @cached_property
    def spectra(self) -> "RowSpectra":
        """``row_spectra`` of every row as a square grid, computed on first use and
        kept as long as the dataset, so ``X`` must not change after it."""
        return row_spectra(_grids(self.X))


def finite_number(value) -> bool:
    """Whether ``value`` is a finite real; a numpy float is one, a bool is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class AugmentationSpec:
    """Tagged, label-preserving augmentation applied rowwise to a batch."""

    kind: str
    sigma: float = 0.0
    max_degrees: float = 0.0
    eta_max: float = 0.0

    KINDS = ("identity", "gaussian_noise", "input_rotation", "amplitude_mix")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise UsageError(f"unknown augmentation kind '{self.kind}'")
        if not (finite_number(self.sigma) and self.sigma >= 0.0):
            raise UsageError(f"gaussian_noise sigma must be a finite number >= 0, got {self.sigma!r}")
        if not (finite_number(self.max_degrees) and 0.0 <= self.max_degrees <= 180.0):
            raise UsageError(f"input_rotation max_degrees must lie in [0, 180], got {self.max_degrees!r}")
        if not (finite_number(self.eta_max) and 0.0 <= self.eta_max <= 1.0):
            raise UsageError(f"amplitude_mix eta_max must lie in [0, 1], got {self.eta_max!r}")

    @classmethod
    def identity(cls) -> "AugmentationSpec":
        return cls("identity")

    @classmethod
    def gaussian_noise(cls, sigma: float) -> "AugmentationSpec":
        return cls("gaussian_noise", sigma=sigma)

    @classmethod
    def input_rotation(cls, max_degrees: float) -> "AugmentationSpec":
        return cls("input_rotation", max_degrees=max_degrees)

    @classmethod
    def amplitude_mix(cls, eta_max: float) -> "AugmentationSpec":
        return cls("amplitude_mix", eta_max=eta_max)


def _rotation_matrix(degrees: float) -> np.ndarray:
    rad = math.radians(degrees)
    c, s = math.cos(rad), math.sin(rad)
    return np.array([[c, -s], [s, c]])


def _balanced_labels(n: int, classes: int) -> np.ndarray:
    counts = [n // classes + (1 if c < n % classes else 0) for c in range(classes)]
    return np.concatenate([np.full(k, c, dtype=np.int64) for c, k in enumerate(counts)])


def _base_plane_points(n: int, classes: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two interleaved half-moons, or concentric arcs for more classes."""
    y = _balanced_labels(n, classes)
    t = rng.uniform(0.0, math.pi, size=n)
    X = np.empty((n, 2))
    if classes == 2:
        lower = y == 1
        X[:, 0] = np.where(lower, 1.0 - np.cos(t), np.cos(t))
        X[:, 1] = np.where(lower, 0.5 - np.sin(t), np.sin(t))
    else:
        radius = 1.0 + 0.75 * y
        X[:, 0] = radius * np.cos(t)
        X[:, 1] = radius * np.sin(t)
    perm = rng.permutation(n)
    return X[perm], y[perm]


def gen_rotated_domains(
    angles: list[float],
    n_per_domain: int,
    noise_sigma: float,
    seed: int,
    classes: int = 2,
) -> list[DomainDataset]:
    """One shared point cloud, rotated per domain, then jittered.

    All domains draw the same base points and the same noise, so equal
    angles give bitwise-equal domains and the only cross-domain difference
    is the rotation itself. One domain per angle.
    """
    if classes < 1:
        raise UsageError(f"classes must be >= 1, got {classes}")
    if classes > n_per_domain:
        raise UsageError(f"cannot balance {classes} classes over {n_per_domain} samples")
    if not (finite_number(noise_sigma) and noise_sigma >= 0.0):
        raise UsageError(f"noise_sigma must be a finite number >= 0, got {noise_sigma!r}")
    rng = substream(seed)
    base, y = _base_plane_points(n_per_domain, classes, rng)
    noise = rng.normal(0.0, noise_sigma, size=(n_per_domain, 2)) if noise_sigma > 0 else np.zeros((n_per_domain, 2))
    domains = []
    for i, angle in enumerate(angles):
        X = base @ _rotation_matrix(angle).T + noise
        domains.append(DomainDataset(i, X, y.copy()))
    return domains


def _class_mask(uu: np.ndarray, vv: np.ndarray, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """Low-frequency Gaussian bumps centred at (cx[i], cy[i]) on the grid (uu, vv), one per sample."""
    cx, cy = cx[:, None, None], cy[:, None, None]
    return 2.0 * np.exp(-((uu - cx) ** 2 + (vv - cy) ** 2) / (2.0 * 0.35**2))


def _domain_texture(side: int, domain_id: int) -> np.ndarray:
    """Additive sinusoid with domain-specific frequency and orientation."""
    u = np.linspace(-1.0, 1.0, side)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    freq = 1.5 + 0.75 * domain_id
    orient = math.radians(35.0 * domain_id)
    phase = 0.9 * domain_id
    return 0.45 * np.sin(2.0 * math.pi * freq * (uu * math.cos(orient) + vv * math.sin(orient)) + phase)


def gen_textured_domains(
    n_domains: int,
    side: int,
    n_per_domain: int,
    seed: int,
    classes: int = 2,
) -> list[DomainDataset]:
    """Image-like side x side grids: class sets the shape, domain the texture.

    Each sample is regenerated deterministically from (seed, domain, index),
    so individual samples can be reproduced in isolation: sample ``idx`` of
    domain ``d`` draws ``normal(0, 0.05, size=2 + side**2)`` from its own
    generator, seeded by ``SeedSequence(entropy=seed, spawn_key=(d, idx))``;
    the first two draws jitter the centre of its class's bump (the class's
    angle on a circle of radius 0.45), the rest are its additive pixel noise.
    A domain's generators come from one ``rng.substreams(seed, d, n=...)``
    call, which derives the same streams as that spawn key in one array
    pass, so ``rng.substream(seed, d, idx)`` still rebuilds any sample alone.
    The draws are the generators' only per-sample work; the bumps of a
    domain's samples are one array expression over the grid.
    """
    if not 8 <= side <= 32:
        raise UsageError(f"side must lie in [8, 32], got {side}")
    if classes < 1:
        raise UsageError(f"classes must be >= 1, got {classes}")
    if classes > n_per_domain:
        raise UsageError(f"cannot balance {classes} classes over {n_per_domain} samples")
    y = np.arange(n_per_domain, dtype=np.int64) % classes
    u = np.linspace(-1.0, 1.0, side)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    theta = [2.0 * math.pi * c / classes for c in range(classes)]
    cx = np.array([0.45 * math.cos(t) for t in theta])[y]
    cy = np.array([0.45 * math.sin(t) for t in theta])[y]
    domains = []
    for d in range(n_domains):
        draws = np.empty((n_per_domain, 2 + side * side))
        for idx, srng in enumerate(substreams(seed, d, n=n_per_domain)):
            draws[idx] = srng.normal(0.0, 0.05, size=2 + side * side)
        X = _class_mask(uu, vv, cx + draws[:, 0], cy + draws[:, 1]) + _domain_texture(side, d)
        X += draws[:, 2:].reshape(n_per_domain, side, side)
        domains.append(DomainDataset(d, X.reshape(n_per_domain, side * side), y.copy()))
    return domains


class RowSpectra(NamedTuple):
    """Each grid's 2-d Fourier amplitude ``abs(f)`` and phase factor ``exp(1j * angle(f))``."""

    amplitude: np.ndarray
    phase: np.ndarray

    def take(self, rows) -> "RowSpectra":
        """The spectra of the grids ``rows`` names, in that order."""
        return RowSpectra(self.amplitude[rows], self.phase[rows])


def row_spectra(grids: np.ndarray) -> RowSpectra:
    """The spectra of a grid, or of each grid of a stack (the last two axes).

    Each grid's bytes are those of transforming it alone, so the spectra of
    a stack's rows can be taken once and gathered in any order.
    """
    f = np.fft.fft2(grids)
    return RowSpectra(np.abs(f), np.exp(1j * np.angle(f)))


def _grids(X: np.ndarray) -> np.ndarray:
    """2-d rows as square grids, a UsageError unless their width is a square."""
    side = math.isqrt(X.shape[1])
    if side * side != X.shape[1]:
        raise UsageError(f"amplitude_mix needs square grids, got width {X.shape[1]}")
    return X.reshape(X.shape[0], side, side)


def _mix_spectra(amplitude: np.ndarray, phase: np.ndarray, partner: np.ndarray, weight) -> np.ndarray:
    """The real grids whose spectra have amplitude ``(1 - weight) * amplitude +
    weight * partner`` and the phase factor ``phase``. Unless a grid's
    imaginary residual is at most 1e-9, a ShapeError names the first row of a
    stack that fails: its residual, or that its mixed grid is not finite."""
    mixed = np.fft.ifft2(((1.0 - weight) * amplitude + weight * partner) * phase)
    residual = np.abs(mixed.imag).max(axis=(-2, -1))
    bad = np.flatnonzero(~(residual <= 1e-9))  # NaN fails every comparison
    if bad.size:
        value = residual.flat[bad[0]]
        where = f" in row {bad[0]}" if residual.ndim else ""
        if not math.isfinite(value):
            raise ShapeError(f"amplitude_mix: the mixed grid{where} is not finite")
        raise ShapeError(f"amplitude_mix: imaginary residual {value:.3e}{where} exceeds 1e-9")
    return mixed.real


def mix_amplitude(x1: np.ndarray, x2: np.ndarray, weight) -> np.ndarray:
    """Blend Fourier amplitudes at a fixed weight, keeping x1's phase.

    ``x1`` and ``x2`` are one grid each, or equal stacks of grids with one
    grid per row of a leading axis (a batch, or a whole epoch of batches);
    for a stack, ``weight`` may hold one weight per row, shaped to broadcast
    (``(n, 1, 1)``). Each row of a stack gets the same bytes as mixing it
    alone, so one call on an epoch gives the bytes of one call per batch. A
    row whose imaginary residual is not at most 1e-9 (a non-finite row
    included) is a ShapeError naming the first such row of the stack.
    Inputs of fewer than two dims are a ShapeError. ``augment`` mixes
    through the same ``row_spectra`` and spectrum-to-grid step.
    """
    x1 = as_tensor(x1)
    x2 = as_tensor(x2)
    if x1.shape != x2.shape:
        raise ShapeError(f"amplitude_mix: dims {x1.shape} and {x2.shape} differ")
    if x1.ndim < 2:
        raise ShapeError(f"amplitude_mix: needs grids of at least 2 dims, got shape {x1.shape}")
    s1 = row_spectra(x1)
    return _mix_spectra(s1.amplitude, s1.phase, row_spectra(x2).amplitude, weight)


def augment(
    X: np.ndarray,
    spec: AugmentationSpec,
    rng: np.random.Generator,
    batch: int | None = None,
    spectra: Callable[[], RowSpectra] | None = None,
) -> np.ndarray:
    """Apply one augmentation rowwise; labels are untouched by contract.

    The rows are consecutive batches of ``batch`` rows, the last one
    possibly shorter (``None``: one batch of all rows), so one call can
    augment a client's whole epoch in batch order. It gives the bytes and
    leaves ``rng`` in the state of one call per batch on the same generator:
    noise and rotation angles are drawn for all rows in one call, each row
    is rotated by one stacked matmul, and
    ``amplitude_mix`` pairs each row with another row of its own batch and
    mixes every row's spectrum against its partner's amplitude, with the
    bytes of one ``mix_amplitude`` per row. The spectra are ``row_spectra``
    of the rows as square grids, taken once per call, or, when ``spectra``
    is given, what it returns: the spectra of ``X``'s rows in ``X``'s order,
    which ``local_train`` gathers from those its dataset computed once per
    run. Only ``amplitude_mix`` calls it, after its own checks. Its
    partners and weights come from one ``rng.mix_draws`` call:
    the values and the final generator state of drawing
    ``integers(0, rows - 1)`` then ``uniform(0.0, eta_max)`` row by row,
    a rare rejected bounded draw included, so ``rng`` must be a PCG64
    generator, as every ``substream`` is. ``X`` must be 2-d; zero rows
    give an empty copy.
    """
    X = as_tensor(X)
    if X.ndim != 2:
        raise ShapeError(f"augment needs a 2-d array of rows, got dims {X.shape}")
    if batch is not None and batch < 1:
        raise UsageError(f"batch size must be >= 1, got {batch}")
    if spec.kind == "identity":
        return X.copy()
    if spec.kind == "gaussian_noise":
        if spec.sigma == 0.0:
            return X.copy()
        return X + rng.normal(0.0, spec.sigma, size=X.shape)
    if spec.kind == "input_rotation":
        if X.shape[1] != 2:
            raise UsageError(f"input_rotation needs 2-d rows, got width {X.shape[1]}")
        rad = np.radians(rng.uniform(-spec.max_degrees, spec.max_degrees, size=X.shape[0]))
        c, s = np.cos(rad), np.sin(rad)
        rotations = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)  # each row's _rotation_matrix
        # one (1, 2) @ (2, 2) product per row, with the bytes of X[i] @ _rotation_matrix(deg).T
        return (X[:, None, :] @ rotations.swapaxes(1, 2))[:, 0]
    # amplitude_mix: pair each row with a random other row of its batch
    n = X.shape[0]
    grids = _grids(X)
    if n == 0:  # zero rows are zero batches
        return X.copy()
    size = n if batch is None else batch
    starts = np.arange(0, n, size)
    sizes = np.minimum(size, n - starts)
    if sizes.min() < 2:
        raise UsageError("amplitude_mix needs a batch of at least 2 rows")
    # each row's batch start and its index in the batch; a draw j among the
    # batch's other rows names row j, or j + 1 at or past the row itself
    row_starts = np.repeat(starts, sizes)
    j, weights = mix_draws(rng, np.repeat(sizes - 1, sizes), spec.eta_max)
    partners = row_starts + j + (j >= np.arange(n) - row_starts)
    s = row_spectra(grids) if spectra is None else spectra()
    if s.amplitude.shape != grids.shape:
        raise ShapeError(f"amplitude_mix: spectra of dims {s.amplitude.shape} for rows as grids {grids.shape}")
    mixed = _mix_spectra(s.amplitude, s.phase, s.amplitude[partners], weights[:, None, None])
    return np.ascontiguousarray(mixed.reshape(X.shape))


def epoch_order(dataset: DomainDataset, seed: int, epoch: int) -> np.ndarray:
    """The order ``batch_iter`` visits ``dataset``'s rows in: a permutation keyed by (seed, domain, epoch)."""
    return substream(seed, dataset.domain_id, epoch).permutation(dataset.N)


def epoch_spectra(dataset: DomainDataset, seed: int, epoch: int) -> RowSpectra:
    """The spectra of ``dataset``'s rows in the epoch's order, gathered from ``dataset.spectra``."""
    return dataset.spectra.take(epoch_order(dataset, seed, epoch))


def batch_iter(
    dataset: DomainDataset, batch: int, seed: int, epoch: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Shuffled mini-batches; the permutation is keyed by (seed, domain, epoch).

    The last short batch is kept, so the union of batches is the dataset.
    """
    if batch < 1:
        raise UsageError(f"batch size must be >= 1, got {batch}")
    perm = epoch_order(dataset, seed, epoch)
    for start in range(0, dataset.N, batch):
        idx = perm[start : start + batch]
        yield dataset.X[idx], dataset.y[idx]


TEST_FRACTION = 0.2  # the share of each domain's rows held out for testing


def _n_test(n: int) -> int:
    """How many of ``n`` rows ``train_test_split`` holds out for testing."""
    return max(1, int(round(n * TEST_FRACTION)))


def train_test_split(dataset: DomainDataset, seed: int) -> tuple[DomainDataset, DomainDataset]:
    """Deterministic 80/20 split keyed by (seed, domain)."""
    rng = substream(seed, dataset.domain_id)
    perm = rng.permutation(dataset.N)
    n_test = _n_test(dataset.N)
    return dataset.subset(perm[n_test:]), dataset.subset(perm[:n_test])
