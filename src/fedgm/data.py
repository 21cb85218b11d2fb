"""Synthetic multi-domain datasets and label-preserving augmentations.

Domains share one underlying sample draw and differ only by a controlled
style factor (a rotation of the input plane, or an additive texture on an
image-like grid), which is the covariate-shift setting the training
protocol assumes: P(X) moves across domains, P(Y|X-generative-factor) does
not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .autodiff import as_tensor
from .errors import ShapeError, UsageError


@dataclass
class DomainDataset:
    """Labeled samples of one domain."""

    domain_id: int
    X: np.ndarray
    y: np.ndarray

    @property
    def N(self) -> int:
        return self.X.shape[0]

    def subset(self, indices) -> "DomainDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return DomainDataset(self.domain_id, self.X[idx].copy(), self.y[idx].copy())


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
        if self.sigma < 0.0:
            raise UsageError(f"gaussian_noise sigma must be >= 0, got {self.sigma}")
        if not 0.0 <= self.max_degrees <= 180.0:
            raise UsageError(f"input_rotation max_degrees must lie in [0, 180], got {self.max_degrees}")
        if not 0.0 <= self.eta_max <= 1.0:
            raise UsageError(f"amplitude_mix eta_max must lie in [0, 1], got {self.eta_max}")

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
    n_domains: int,
    angles: list[float],
    n_per_domain: int,
    noise_sigma: float,
    seed: int,
    classes: int = 2,
) -> list[DomainDataset]:
    """One shared point cloud, rotated per domain, then jittered.

    All domains draw the same base points and the same noise, so equal
    angles give bitwise-equal domains and the only cross-domain difference
    is the rotation itself.
    """
    if len(angles) != n_domains:
        raise UsageError(f"got {len(angles)} angles for {n_domains} domains")
    if classes > n_per_domain:
        raise UsageError(f"cannot balance {classes} classes over {n_per_domain} samples")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    base, y = _base_plane_points(n_per_domain, classes, rng)
    noise = rng.normal(0.0, noise_sigma, size=(n_per_domain, 2)) if noise_sigma > 0 else np.zeros((n_per_domain, 2))
    domains = []
    for i, angle in enumerate(angles):
        X = base @ _rotation_matrix(angle).T + noise
        domains.append(DomainDataset(i, X, y.copy()))
    return domains


def _class_mask(side: int, label: int, classes: int, center_jitter: np.ndarray) -> np.ndarray:
    """Low-frequency Gaussian bump whose position encodes the class."""
    u = np.linspace(-1.0, 1.0, side)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    theta = 2.0 * math.pi * label / classes
    cx = 0.45 * math.cos(theta) + center_jitter[0]
    cy = 0.45 * math.sin(theta) + center_jitter[1]
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
    so individual samples can be reproduced in isolation.
    """
    if not 8 <= side <= 32:
        raise UsageError(f"side must lie in [8, 32], got {side}")
    if classes > n_per_domain:
        raise UsageError(f"cannot balance {classes} classes over {n_per_domain} samples")
    y = np.arange(n_per_domain, dtype=np.int64) % classes
    domains = []
    for d in range(n_domains):
        texture = _domain_texture(side, d)
        X = np.empty((n_per_domain, side * side))
        for idx in range(n_per_domain):
            srng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(d, idx)))
            jitter = srng.normal(0.0, 0.05, size=2)
            grid = _class_mask(side, int(y[idx]), classes, jitter) + texture
            grid += srng.normal(0.0, 0.05, size=(side, side))
            X[idx] = grid.ravel()
        domains.append(DomainDataset(d, X, y.copy()))
    return domains


def mix_amplitude(x1: np.ndarray, x2: np.ndarray, weight) -> np.ndarray:
    """Blend Fourier amplitudes at a fixed weight, keeping x1's phase.

    ``x1`` and ``x2`` are one grid each, or equal stacks of grids with one
    grid per row of a leading axis; for a stack, ``weight`` may hold one
    weight per row, shaped to broadcast (``(n, 1, 1)``). Each row of a
    stack gets the same bytes as mixing it alone, and an imaginary residual
    above 1e-9 is reported for the first row that has one.
    """
    x1 = as_tensor(x1)
    x2 = as_tensor(x2)
    if x1.shape != x2.shape:
        raise ShapeError(f"amplitude_mix: dims {x1.shape} and {x2.shape} differ")
    f1 = np.fft.fft2(x1)
    f2 = np.fft.fft2(x2)
    amp = (1.0 - weight) * np.abs(f1) + weight * np.abs(f2)
    mixed = np.fft.ifft2(amp * np.exp(1j * np.angle(f1)))
    residual = np.abs(mixed.imag).max(axis=(-2, -1))
    bad = np.flatnonzero(residual > 1e-9)
    if bad.size:
        where = f" in row {bad[0]}" if residual.ndim else ""
        raise ShapeError(
            f"amplitude_mix: imaginary residual {residual.flat[bad[0]]:.3e}{where} exceeds 1e-9"
        )
    return mixed.real


def amplitude_mix(x1: np.ndarray, x2: np.ndarray, eta: float, rng: np.random.Generator) -> np.ndarray:
    """Amplitude blend with a mixing weight drawn uniform in [0, eta]."""
    if not 0.0 <= eta <= 1.0:
        raise UsageError(f"eta must lie in [0, 1], got {eta}")
    return mix_amplitude(x1, x2, rng.uniform(0.0, eta))


def augment(X: np.ndarray, spec: AugmentationSpec, rng: np.random.Generator) -> np.ndarray:
    """Apply one augmentation rowwise; labels are untouched by contract."""
    X = as_tensor(X)
    if spec.kind == "identity":
        return X.copy()
    if spec.kind == "gaussian_noise":
        if spec.sigma == 0.0:
            return X.copy()
        return X + rng.normal(0.0, spec.sigma, size=X.shape)
    if spec.kind == "input_rotation":
        if X.shape[1] != 2:
            raise UsageError(f"input_rotation needs 2-d rows, got width {X.shape[1]}")
        out = np.empty_like(X)
        degrees = rng.uniform(-spec.max_degrees, spec.max_degrees, size=X.shape[0])
        for i, deg in enumerate(degrees):
            out[i] = X[i] @ _rotation_matrix(deg).T
        return out
    # amplitude_mix: pair each row with a random other row of the batch
    batch = X.shape[0]
    if batch < 2:
        raise UsageError("amplitude_mix needs a batch of at least 2 rows")
    side = math.isqrt(X.shape[1])
    if side * side != X.shape[1]:
        raise UsageError(f"amplitude_mix needs square grids, got width {X.shape[1]}")
    # draw partner and weight row by row, in the order of one amplitude_mix per row
    partners = np.empty(batch, dtype=np.int64)
    weights = np.empty(batch)
    for i in range(batch):
        j = int(rng.integers(0, batch - 1))
        partners[i] = j + 1 if j >= i else j
        weights[i] = rng.uniform(0.0, spec.eta_max)
    grids = X.reshape(batch, side, side)
    mixed = mix_amplitude(grids, grids[partners], weights[:, None, None])
    return np.ascontiguousarray(mixed.reshape(batch, side * side))


def batch_iter(
    dataset: DomainDataset, batch: int, seed: int, epoch: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Shuffled mini-batches; the permutation is keyed by (seed, domain, epoch).

    The last short batch is kept, so the union of batches is the dataset.
    """
    if batch < 1:
        raise UsageError(f"batch size must be >= 1, got {batch}")
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(dataset.domain_id, epoch))
    )
    perm = rng.permutation(dataset.N)
    for start in range(0, dataset.N, batch):
        idx = perm[start : start + batch]
        yield dataset.X[idx], dataset.y[idx]


def _n_test(n: int, test_fraction: float = 0.2) -> int:
    """How many of ``n`` rows ``train_test_split`` holds out for testing."""
    return max(1, int(round(n * test_fraction)))


def train_test_split(dataset: DomainDataset, seed: int, test_fraction: float = 0.2) -> tuple[DomainDataset, DomainDataset]:
    """Deterministic 80/20 split keyed by (seed, domain)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(dataset.domain_id,)))
    perm = rng.permutation(dataset.N)
    n_test = _n_test(dataset.N, test_fraction)
    return dataset.subset(perm[n_test:]), dataset.subset(perm[:n_test])
