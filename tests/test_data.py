import functools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fedgm import data
from fedgm.data import (
    AugmentationSpec,
    _rotation_matrix,
    DomainDataset,
    augment,
    batch_iter,
    epoch_order,
    epoch_spectra,
    gen_rotated_domains,
    gen_textured_domains,
    mix_amplitude,
    train_test_split,
)
from fedgm.errors import ShapeError, UsageError
from fedgm.rng import substream


@pytest.mark.parametrize(
    "X, y",
    [
        (np.zeros((10, 2)), np.zeros(12, dtype=np.int64)),
        (np.zeros((10, 2)), np.zeros(9, dtype=np.int64)),
        (np.zeros(10), np.zeros(10, dtype=np.int64)),
        (np.zeros((10, 2)), np.zeros((10, 1), dtype=np.int64)),
    ],
    ids=["more-labels", "fewer-labels", "1-d-rows", "2-d-labels"],
)
def test_a_domain_takes_2d_rows_and_one_label_per_row(X, y):
    with pytest.raises(ShapeError, match=re.escape(f"domain 4: rows of dims {X.shape} and labels of dims {y.shape}")):
        DomainDataset(4, X, y)


def test_rotated_equal_angles_identical_domains():
    a, b = gen_rotated_domains([0.0, 0.0], 60, 0.1, seed=5)
    assert a.X.tobytes() == b.X.tobytes()
    assert a.y.tobytes() == b.y.tobytes()


def test_rotated_full_turn_matches_zero():
    a, b = gen_rotated_domains([0.0, 360.0], 60, 0.1, seed=5)
    assert np.abs(a.X - b.X).max() <= 1e-9


def test_rotated_class_balance():
    (d,) = gen_rotated_domains([30.0], 500, 0.1, seed=1)
    counts = np.bincount(d.y)
    assert counts.min() >= 249 and counts.max() <= 251


def test_rotated_multiclass_arcs_balanced():
    (d,) = gen_rotated_domains([0.0], 100, 0.05, seed=2, classes=3)
    counts = np.bincount(d.y, minlength=3)
    assert counts.max() - counts.min() <= 1


def test_rotated_regeneration_deterministic():
    a = gen_rotated_domains([0.0, 20.0, 40.0], 80, 0.15, seed=9)
    b = gen_rotated_domains([0.0, 20.0, 40.0], 80, 0.15, seed=9)
    for x, y in zip(a, b):
        assert x.X.tobytes() == y.X.tobytes()
        assert x.y.tobytes() == y.y.tobytes()


def test_rotated_rejects_bad_args():
    with pytest.raises(UsageError):
        gen_rotated_domains([0.0], 2, 0.1, seed=0, classes=3)


@pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf])
def test_rotated_rejects_a_noise_sigma_that_is_not_a_finite_number_at_least_zero(sigma):
    with pytest.raises(UsageError, match=r"^noise_sigma must be a finite number >= 0, got "):
        gen_rotated_domains([0.0], 20, sigma, seed=0)


def test_textured_samples_deterministic():
    a = gen_textured_domains(2, 8, 12, seed=3)
    b = gen_textured_domains(2, 8, 12, seed=3)
    assert a[1].X.tobytes() == b[1].X.tobytes()


def test_textured_class_masks_differ():
    (d,) = gen_textured_domains(1, 8, 40, seed=4, classes=2)
    mean0 = d.X[d.y == 0].mean(axis=0)
    mean1 = d.X[d.y == 1].mean(axis=0)
    frac = np.mean(np.abs(mean0 - mean1) > 0.1)
    assert frac >= 0.10


def test_textured_domain_texture_energy_differs():
    domains = gen_textured_domains(3, 8, 30, seed=6)
    peaks = []
    for d in domains:
        spectra = np.zeros((8, 8))
        for row in d.X:
            spectra += np.abs(np.fft.fft2(row.reshape(8, 8)))
        spectra[0, 0] = 0.0  # ignore the DC component
        peaks.append(int(np.argmax(spectra)))
    assert len(set(peaks)) == len(domains)


def test_textured_side_bounds():
    with pytest.raises(UsageError):
        gen_textured_domains(1, 7, 10, seed=0)
    with pytest.raises(UsageError):
        gen_textured_domains(1, 33, 10, seed=0)


@pytest.mark.parametrize("classes", [0, -1])
def test_generators_reject_fewer_than_one_class(classes):
    with pytest.raises(UsageError, match="classes must be >= 1"):
        gen_textured_domains(1, 8, 10, seed=0, classes=classes)
    with pytest.raises(UsageError, match="classes must be >= 1"):
        gen_rotated_domains([0.0], 10, 0.1, seed=0, classes=classes)


def _textured_sample(side, label, classes, seed, d, idx):
    """Sample ``idx`` of domain ``d`` built alone: its bump, its domain's
    texture and its noise, from its own generator (the per-sample reference)."""
    srng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(d, idx)))
    jitter = srng.normal(0.0, 0.05, size=2)
    u = np.linspace(-1.0, 1.0, side)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    freq, orient, phase = 1.5 + 0.75 * d, math.radians(35.0 * d), 0.9 * d
    texture = 0.45 * np.sin(2.0 * math.pi * freq * (uu * math.cos(orient) + vv * math.sin(orient)) + phase)
    theta = 2.0 * math.pi * label / classes
    cx = 0.45 * math.cos(theta) + jitter[0]
    cy = 0.45 * math.sin(theta) + jitter[1]
    grid = 2.0 * np.exp(-((uu - cx) ** 2 + (vv - cy) ** 2) / (2.0 * 0.35**2)) + texture
    grid += srng.normal(0.0, 0.05, size=(side, side))
    return grid.ravel()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    side=st.integers(8, 32),
    classes=st.integers(2, 5),
    n_domains=st.integers(1, 3),
    extra=st.integers(0, 20),
    seed=st.integers(0, 2**64 - 1),
)
@example(side=8, classes=2, n_domains=2, extra=3, seed=0)
@example(side=8, classes=3, n_domains=2, extra=3, seed=2**32)
@example(side=8, classes=3, n_domains=2, extra=3, seed=2**64 - 1)
def test_textured_domains_match_per_sample_reference(side, classes, n_domains, extra, seed):
    n = classes + extra
    domains = gen_textured_domains(n_domains, side, n, seed, classes)
    for d, ds in enumerate(domains):
        ref = np.stack([_textured_sample(side, int(ds.y[i]), classes, seed, d, i) for i in range(n)])
        assert ds.X.tobytes() == ref.tobytes() and ds.X.strides == ref.strides
        assert ds.y.tobytes() == (np.arange(n, dtype=np.int64) % classes).tobytes()


def test_augment_identity_bitwise():
    X = np.random.default_rng(0).normal(0, 1, (4, 2))
    out = augment(X, AugmentationSpec.identity(), np.random.default_rng(1))
    assert out.tobytes() == X.tobytes()
    assert out is not X


def test_augment_zero_sigma_bitwise():
    X = np.random.default_rng(0).normal(0, 1, (4, 2))
    out = augment(X, AugmentationSpec.gaussian_noise(0.0), np.random.default_rng(1))
    assert out.tobytes() == X.tobytes()


def test_augment_noise_changes_data():
    X = np.zeros((4, 3))
    out = augment(X, AugmentationSpec.gaussian_noise(0.5), np.random.default_rng(1))
    assert np.any(out != X)
    assert out.shape == X.shape


def test_augment_rotation_zero_degrees():
    X = np.random.default_rng(0).normal(0, 1, (5, 2))
    out = augment(X, AugmentationSpec.input_rotation(0.0), np.random.default_rng(1))
    assert np.abs(out - X).max() <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    rows=st.integers(0, 40),
    max_degrees=st.floats(0.0, 180.0),
    scale=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**64 - 1),
)
@example(rows=200, max_degrees=180.0, scale=1.0, seed=0)
def test_augment_rotation_matches_one_product_per_row(rows, max_degrees, scale, seed):
    X = np.random.default_rng(seed).normal(0.0, scale, (rows, 2))
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    out = augment(X, AugmentationSpec.input_rotation(max_degrees), rng)
    degrees = oracle.uniform(-max_degrees, max_degrees, size=rows)
    want = np.array([X[i] @ _rotation_matrix(d).T for i, d in enumerate(degrees)]).reshape(rows, 2)
    assert out.shape == X.shape and out.tobytes() == want.tobytes()
    assert rng.bit_generator.state == oracle.bit_generator.state


def test_augment_rotation_requires_planar_rows():
    with pytest.raises(UsageError):
        augment(np.ones((3, 4)), AugmentationSpec.input_rotation(30.0), np.random.default_rng(0))


def test_augment_amplitude_mix_batch_contract():
    with pytest.raises(UsageError):
        augment(np.ones((1, 64)), AugmentationSpec.amplitude_mix(0.5), np.random.default_rng(0))
    with pytest.raises(UsageError):
        augment(np.ones((3, 60)), AugmentationSpec.amplitude_mix(0.5), np.random.default_rng(0))


@pytest.mark.parametrize(
    "spec, X",
    [
        (AugmentationSpec.amplitude_mix(0.5), np.ones(64)),
        (AugmentationSpec.input_rotation(10.0), np.ones(2)),
        (AugmentationSpec.gaussian_noise(0.1), np.ones((2, 2, 2))),
    ],
)
def test_augment_needs_a_2d_array_of_rows(spec, X):
    with pytest.raises(ShapeError, match=re.escape(f"got dims {X.shape}")):
        augment(X, spec, np.random.default_rng(0))


@pytest.mark.parametrize("batch", [None, 16])
def test_augment_amplitude_mix_of_no_rows_is_an_empty_copy(batch):
    X = np.ones((0, 64))
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    out = augment(X, AugmentationSpec.amplitude_mix(0.5), rng, batch)
    assert out.shape == (0, 64) and out is not X
    assert rng.bit_generator.state == before


def test_augment_amplitude_mix_takes_pcg64_generators_only():
    X = np.random.default_rng(0).normal(0.0, 1.0, (4, 64))
    with pytest.raises(UsageError, match="PCG64"):
        augment(X, AugmentationSpec.amplitude_mix(0.5), np.random.Generator(np.random.MT19937(0)))


def test_augment_amplitude_mix_shape_preserved():
    rng = np.random.default_rng(2)
    X = rng.normal(0, 1, (4, 64))
    out = augment(X, AugmentationSpec.amplitude_mix(0.8), np.random.default_rng(3))
    assert out.shape == X.shape
    assert np.isfinite(out).all()


def test_augmentation_spec_validation():
    with pytest.raises(UsageError):
        AugmentationSpec("gaussian_noise", sigma=-1.0)
    with pytest.raises(UsageError):
        AugmentationSpec("input_rotation", max_degrees=200.0)
    with pytest.raises(UsageError):
        AugmentationSpec("amplitude_mix", eta_max=1.5)
    with pytest.raises(UsageError):
        AugmentationSpec("cutout")


@pytest.mark.parametrize(
    "build, value",
    [
        (AugmentationSpec.gaussian_noise, math.nan),
        (AugmentationSpec.gaussian_noise, math.inf),
        (AugmentationSpec.gaussian_noise, "x"),
        (AugmentationSpec.gaussian_noise, True),
        (AugmentationSpec.input_rotation, math.nan),
        (AugmentationSpec.input_rotation, "30"),
        (AugmentationSpec.input_rotation, True),
        (AugmentationSpec.amplitude_mix, math.nan),
        (AugmentationSpec.amplitude_mix, "0.5"),
        (AugmentationSpec.amplitude_mix, False),
    ],
)
def test_augmentation_spec_rejects_a_parameter_that_is_not_a_finite_number(build, value):
    # NaN fails every comparison, so a check written as "sigma < 0" let it
    # through, and the run diverged at round 1; a string raised TypeError
    with pytest.raises(UsageError, match=f"got {re.escape(repr(value))}$"):
        build(value)


def amplitude_mix(x1: np.ndarray, x2: np.ndarray, eta: float, rng: np.random.Generator) -> np.ndarray:
    """One pair's amplitude blend with a mixing weight drawn uniform in [0, eta]:
    the reference ``augment`` is held against, one row at a time."""
    if not 0.0 <= eta <= 1.0:
        raise UsageError(f"eta must lie in [0, 1], got {eta}")
    return mix_amplitude(x1, x2, rng.uniform(0.0, eta))


def test_amplitude_mix_eta_zero_is_identity():
    rng = np.random.default_rng(5)
    x1 = rng.normal(0, 1, (8, 8))
    x2 = rng.normal(0, 1, (8, 8))
    out = amplitude_mix(x1, x2, 0.0, np.random.default_rng(0))
    assert np.abs(out - x1).max() <= 1e-9


def test_amplitude_mix_self_mix_is_identity():
    rng = np.random.default_rng(6)
    x1 = rng.normal(0, 1, (8, 8))
    out = amplitude_mix(x1, x1.copy(), 0.9, np.random.default_rng(0))
    assert np.abs(out - x1).max() <= 1e-9


def test_amplitude_mix_full_weight_takes_other_spectrum():
    rng = np.random.default_rng(7)
    x1 = rng.normal(0, 1, (8, 8))
    x2 = rng.normal(0, 1, (8, 8))
    out = mix_amplitude(x1, x2, 1.0)
    # oracle: recompute the output spectrum and compare amplitudes
    assert np.abs(np.abs(np.fft.fft2(out)) - np.abs(np.fft.fft2(x2))).max() <= 1e-6
    # phase belongs to x1 wherever the amplitude is not negligible
    f_out, f_1 = np.fft.fft2(out), np.fft.fft2(x1)
    mask = np.abs(f_out) > 1e-6
    phase_delta = np.angle(f_out[mask] * np.conj(f_1[mask]))
    assert np.abs(phase_delta).max() <= 1e-6


def test_amplitude_mix_dim_mismatch():
    with pytest.raises(ShapeError):
        mix_amplitude(np.ones((8, 8)), np.ones((8, 9)), 0.5)


def test_mix_amplitude_needs_grids():
    with pytest.raises(ShapeError, match="at least 2 dims"):
        mix_amplitude(np.ones(8), np.ones(8), 0.5)
    with pytest.raises(ShapeError, match="at least 2 dims"):
        mix_amplitude(np.float64(1.0), np.float64(2.0), 0.5)


def _dataset(n=10):
    X = np.arange(n * 2, dtype=float).reshape(n, 2)
    y = np.arange(n) % 2
    return DomainDataset(0, X, y.astype(np.int64))


def test_batch_iter_sizes():
    sizes = [x.shape[0] for x, _ in batch_iter(_dataset(10), 4, seed=1, epoch=0)]
    assert sizes == [4, 4, 2]


def test_batch_iter_deterministic_and_epoch_sensitive():
    def order(epoch):
        return np.concatenate([x[:, 0] for x, _ in batch_iter(_dataset(12), 5, seed=3, epoch=epoch)])

    assert np.array_equal(order(0), order(0))
    assert not np.array_equal(order(0), order(1))


def test_batch_iter_covers_dataset():
    ds = _dataset(11)
    seen = np.concatenate([x[:, 0] for x, _ in batch_iter(ds, 4, seed=2, epoch=5)])
    assert sorted(seen.tolist()) == sorted(ds.X[:, 0].tolist())


def test_batch_iter_rejects_bad_batch():
    with pytest.raises(UsageError):
        list(batch_iter(_dataset(4), 0, seed=0, epoch=0))


def test_train_test_split_deterministic_and_disjoint():
    ds = _dataset(20)
    tr1, te1 = train_test_split(ds, seed=4)
    tr2, te2 = train_test_split(ds, seed=4)
    assert tr1.X.tobytes() == tr2.X.tobytes()
    assert te1.X.tobytes() == te2.X.tobytes()
    assert tr1.N == 16 and te1.N == 4
    combined = sorted(np.concatenate([tr1.X[:, 0], te1.X[:, 0]]).tolist())
    assert combined == sorted(ds.X[:, 0].tolist())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    batch=st.integers(2, 19),
    side=st.integers(8, 16),
    eta=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_augment_amplitude_mix_matches_one_mix_per_row(batch, side, eta, seed):
    X = np.random.default_rng(seed).normal(0.0, 2.0, (batch, side * side))
    rng = np.random.default_rng(seed + 1)
    out = augment(X, AugmentationSpec.amplitude_mix(eta), rng)
    # reference: one amplitude_mix per row against a random other row
    ref_rng = np.random.default_rng(seed + 1)
    ref = np.empty_like(X)
    for i in range(batch):
        j = int(ref_rng.integers(0, batch - 1))
        j += j >= i
        ref[i] = amplitude_mix(X[i].reshape(side, side), X[j].reshape(side, side), eta, ref_rng).ravel()
    assert out.tobytes() == ref.tobytes()
    assert out.flags.c_contiguous
    assert rng.random() == ref_rng.random()  # the same draws were consumed


def test_mix_amplitude_names_first_row_over_residual():
    grids = np.random.default_rng(0).normal(0.0, 1.0, (3, 8, 8))
    grids[2] *= 1e9  # residuals scale with the amplitude mixed in
    with pytest.raises(ShapeError, match=r"residual .* in row 1 exceeds 1e-9"):
        mix_amplitude(grids, grids[[1, 2, 0]], np.full((3, 1, 1), 0.5))


@pytest.mark.parametrize("row", [0, 2, 6])
def test_augment_names_the_epoch_row_over_residual(row):
    # batches of 2 rows pair each row with its batch-mate, so the rows that
    # mix in the huge row's amplitude are that row and its mate after it
    X = np.random.default_rng(1).normal(0.0, 1.0, (8, 64))
    X[row] *= 1e9
    with pytest.raises(ShapeError, match=rf"residual .* in row {row} exceeds 1e-9"):
        augment(X, AugmentationSpec.amplitude_mix(0.5), np.random.default_rng(2), 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_amplitude_mix_refuses_a_row_whose_mixed_grid_is_not_finite(bad):
    # a residual check written as "residual > 1e-9" let NaN through, so a
    # finite row came back all NaN when its partner was not finite
    X = np.random.default_rng(0).normal(0.0, 1.0, (4, 64))
    X[1, 5] = bad
    with pytest.raises(ShapeError, match=r"the mixed grid in row \d+ is not finite"):
        augment(X, AugmentationSpec.amplitude_mix(0.5), substream(0, 1), 4)
    grids = X.reshape(4, 8, 8)
    with pytest.raises(ShapeError, match=r"the mixed grid in row 0 is not finite"):  # row 0 is finite, row 1 its partner
        mix_amplitude(grids, grids[[1, 2, 3, 0]], np.full((4, 1, 1), 0.5))
    with pytest.raises(ShapeError, match=r"the mixed grid is not finite"):
        mix_amplitude(grids[0], grids[1], 0.0)  # a zero weight on a NaN amplitude is NaN


def _shuffled_textures(n):
    rng = np.random.default_rng(n)
    return DomainDataset(2, rng.normal(0.0, 2.0, (n, 64)), np.arange(n) % 3)


@pytest.mark.parametrize("n, batch", [(200, 16), (21, 8)])  # 12 x 16 + 8 rows; 8, 8 and 5 rows
def test_augment_on_gathered_spectra_matches_raw_rows_and_one_mix_per_row(n, batch):
    ds = _shuffled_textures(n)
    spec = AugmentationSpec.amplitude_mix(0.8)
    X, _ = next(batch_iter(ds, n, 5, 1))  # the epoch in batch order
    assert X.tobytes() == ds.X[epoch_order(ds, 5, 1)].tobytes()
    rng = substream(7)
    out = augment(X, spec, rng, batch, functools.partial(epoch_spectra, ds, 5, 1))
    assert out.tobytes() == augment(X, spec, substream(7), batch).tobytes()
    ref_rng = substream(7)
    ref = []
    for start in range(0, n, batch):
        rows = X[start : start + batch].reshape(-1, 8, 8)
        for i in range(len(rows)):
            j = int(ref_rng.integers(0, len(rows) - 1))
            j += j >= i
            ref.append(mix_amplitude(rows[i], rows[j], ref_rng.uniform(0.0, 0.8)).ravel())
    assert out.tobytes() == np.stack(ref).tobytes()
    assert rng.random() == ref_rng.random()  # the same draws were consumed


def test_dataset_spectra_are_computed_once_on_first_use(monkeypatch):
    calls = []
    real = data.row_spectra

    def spy(grids):
        calls.append(grids.shape)
        return real(grids)

    monkeypatch.setattr(data, "row_spectra", spy)
    ds = _shuffled_textures(21)
    assert calls == []
    first = epoch_spectra(ds, 5, 0)
    assert epoch_spectra(ds, 5, 1).amplitude.shape == first.amplitude.shape == (21, 8, 8)
    assert ds.spectra is ds.spectra and calls == [(21, 8, 8)]
    with pytest.raises(UsageError, match="square grids"):
        DomainDataset(0, np.ones((4, 2)), np.zeros(4, dtype=np.int64)).spectra


def test_augment_refuses_spectra_of_other_rows():
    ds = _shuffled_textures(21)
    with pytest.raises(ShapeError, match="spectra of dims"):
        augment(ds.X[:16], AugmentationSpec.amplitude_mix(0.5), substream(0), 8, lambda: ds.spectra)


def test_augment_amplitude_mix_takes_one_forward_fft_per_call(monkeypatch):
    calls = []
    fft2 = np.fft.fft2

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return fft2(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft2", spy)
    X = np.random.default_rng(3).normal(0.0, 1.0, (21, 64))
    augment(X, AugmentationSpec.amplitude_mix(0.7), np.random.default_rng(4), 8)  # batches of 8, 8 and 5 rows
    assert calls == [(21, 8, 8)]


_EPOCH_SPECS = {
    "identity": (AugmentationSpec.identity(), 3),
    "gaussian_noise": (AugmentationSpec.gaussian_noise(0.7), 3),
    "input_rotation": (AugmentationSpec.input_rotation(60.0), 2),
    "amplitude_mix": (AugmentationSpec.amplitude_mix(0.9), 64),
}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(sorted(_EPOCH_SPECS)),
    batch=st.integers(2, 7),
    full=st.integers(0, 3),
    short=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 2),
)
def test_augment_epoch_matches_one_call_per_batch(kind, batch, full, short, seed):
    spec, width = _EPOCH_SPECS[kind]
    short %= batch  # rows in a short last batch, if any
    assume(not (kind == "amplitude_mix" and short == 1))
    n = full * batch + short
    X = np.random.default_rng(seed).normal(0.0, 2.0, (n, width))
    rng, twin = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    out = augment(X, spec, rng, batch)
    per_batch = [augment(X[start : start + batch], spec, twin) for start in range(0, n, batch)]
    ref = np.concatenate([np.empty((0, width)), *per_batch])
    assert out.shape == ref.shape and out.tobytes() == ref.tobytes()
    assert rng.random() == twin.random()  # the same draws were consumed, in the same order


def test_augment_epoch_rejects_a_one_row_amplitude_mix_batch():
    spec = AugmentationSpec.amplitude_mix(0.5)
    X = np.random.default_rng(0).normal(0.0, 1.0, (17, 64))
    with pytest.raises(UsageError, match="batch of at least 2 rows"):
        augment(X, spec, np.random.default_rng(1), 16)  # batches of 16 and 1 rows
    with pytest.raises(UsageError, match="batch of at least 2 rows"):
        augment(X[:16], spec, np.random.default_rng(1), 1)
    assert augment(X, spec, np.random.default_rng(1), 15).shape == X.shape  # 15 and 2 rows
    with pytest.raises(UsageError, match="batch size must be >= 1"):
        augment(X, AugmentationSpec.identity(), np.random.default_rng(1), 0)
