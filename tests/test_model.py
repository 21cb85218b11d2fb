import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgm.autodiff import Tape
from fedgm.errors import ContractError, ParseError, ShapeError, UnsupportedVersionError, UsageError
from fedgm.model import (
    flatten,
    forward,
    init_params,
    load_checkpoint,
    param_count,
    predict_logits,
    save_checkpoint,
    stage_params,
    unflatten,
)


def test_init_shapes():
    p = init_params([2, 8], 3, seed=7)
    assert p.head_w.shape == (3, 8)
    assert p.head_b.shape == (3,)
    assert len(p.feature) == 1
    assert p.feature[0][0].shape == (8, 2)
    assert p.feature[0][1].shape == (8,)


def test_init_deterministic_in_seed():
    a = init_params([3, 4, 5], 2, seed=11)
    b = init_params([3, 4, 5], 2, seed=11)
    assert flatten(a).tobytes() == flatten(b).tobytes()


def test_init_differs_across_seeds():
    a = init_params([3, 4], 2, seed=1)
    b = init_params([3, 4], 2, seed=2)
    assert np.any(flatten(a) != flatten(b))


def test_init_rejects_bad_arguments():
    with pytest.raises(UsageError):
        init_params([], 2, seed=0)
    with pytest.raises(UsageError):
        init_params([2, 3], 1, seed=0)
    with pytest.raises(UsageError):
        init_params([2, 0], 2, seed=0)


def _zeroed(arch, classes):
    p = init_params(arch, classes, seed=0)
    for w, b in p.feature:
        w[:] = 0.0
    p.head_w[:] = 0.0
    return p


def _forward(t, p, X):
    """forward with ``p`` staged as leaves and the batch ``X`` as a constant."""
    return forward(t, stage_params(t, p), t.constant(X))


def test_forward_all_zero_params():
    p = _zeroed([2, 4], 3)
    t = Tape()
    h, z = _forward(t, p, [[1.0, -2.0], [0.5, 0.5]])
    assert np.array_equal(t.value(h), np.zeros((2, 4)))
    assert np.array_equal(t.value(z), np.zeros((2, 3)))


def test_forward_identity_layer_passthrough():
    p = init_params([3, 3], 2, seed=0)
    p.feature[0] = (np.eye(3), np.zeros(3))
    X = np.array([[0.0, 1.0, 2.0], [3.0, 0.5, 0.25]])
    t = Tape()
    h, _ = _forward(t, p, X)
    assert np.array_equal(t.value(h), X)


def test_forward_rowwise_map():
    p = init_params([2, 5, 4], 3, seed=3)
    X = np.array([[0.3, -0.7], [1.0, 2.0], [0.3, -0.7]])
    t = Tape()
    h, z = _forward(t, p, X)
    assert np.array_equal(t.value(h)[0], t.value(h)[2])
    assert np.array_equal(t.value(z)[0], t.value(z)[2])


def test_forward_shape_error():
    p = init_params([2, 4], 2, seed=0)
    with pytest.raises(ShapeError, match="width"):
        _forward(Tape(), p, np.ones((3, 5)))


def test_batch_forward_equals_rowwise():
    p = init_params([3, 6, 4], 3, seed=9)
    rng = np.random.default_rng(1)
    X = rng.normal(0, 1, (5, 3))
    t = Tape()
    _, z = _forward(t, p, X)
    batch = t.value(z)
    for i in range(5):
        ti = Tape()
        _, zi = _forward(ti, p, X[i : i + 1])
        assert np.abs(batch[i] - ti.value(zi)[0]).max() <= 1e-12


def test_predict_matches_tape_forward():
    p = init_params([2, 7, 3], 4, seed=5)
    X = np.random.default_rng(2).normal(0, 1, (6, 2))
    t = Tape()
    _, z = _forward(t, p, X)
    assert np.abs(predict_logits(p, X) - t.value(z)).max() <= 1e-12


def test_flat_length_counts():
    assert param_count([2, 3], 2) == 17
    p = init_params([2, 3], 2, seed=0)
    assert flatten(p).size == 17


def test_flatten_roundtrip_bitwise():
    p = init_params([4, 6, 5], 3, seed=21)
    q = unflatten(p.arch, p.classes, flatten(p))
    assert flatten(q).tobytes() == flatten(p).tobytes()


def test_unflatten_wrong_length():
    with pytest.raises(ShapeError, match="16"):
        unflatten([2, 3], 2, np.zeros(16))


def test_unflatten_copies_into_c_contiguous_views():
    p = init_params([4, 6, 5], 3, seed=21)
    flat = flatten(p)
    q = unflatten(p.arch, p.classes, flat)
    flat[:] = 0.0
    assert flatten(q).tobytes() == flatten(p).tobytes()
    assert all(a.flags.c_contiguous and a.shape == b.shape for a, b in zip(q.arrays(), p.arrays()))


@settings(max_examples=25, deadline=None)
@given(
    arch=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    classes=st.integers(2, 5),
    seed=st.integers(0, 10_000),
)
def test_flatten_bijection_property(arch, classes, seed):
    p = init_params(arch, classes, seed=seed)
    flat = flatten(p)
    assert flat.size == param_count(arch, classes)
    assert flatten(unflatten(arch, classes, flat)).tobytes() == flat.tobytes()


def test_checkpoint_roundtrip_exact(tmp_path):
    # a negative zero keeps its sign bit (JSON reads "-0" as the integer 0)
    signed_zero = init_params([2, 3], 2, seed=0)
    signed_zero.head_b[:] = [-0.0, 0.0]
    for p in (init_params([2, 5, 4], 3, seed=13), signed_zero):
        path = tmp_path / "model.json"
        save_checkpoint(p, path)
        q = load_checkpoint(path)
        assert q.arch == p.arch and q.classes == p.classes
        assert flatten(q).tobytes() == flatten(p).tobytes()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_checkpoint_refuses_a_value_json_cannot_hold_before_writing(tmp_path, bad):
    # every checkpoint that is written reads back; a refused one leaves the last file whole
    p = init_params([2, 3], 2, seed=0)
    path = tmp_path / "model.json"
    save_checkpoint(p, path)
    diverged = init_params([2, 3], 2, seed=0)
    diverged.head_w[1, 0] = bad  # flat index 12: after the 6 feature weights and 3 biases, and head row 0
    with pytest.raises(UsageError, match=f"parameter 12 is {bad}"):
        save_checkpoint(diverged, path)
    with pytest.raises(UsageError):
        save_checkpoint(diverged, tmp_path / "other.json")
    assert not (tmp_path / "other.json").exists()
    assert flatten(load_checkpoint(path)).tobytes() == flatten(p).tobytes()


def test_checkpoint_truncated_file(tmp_path):
    p = init_params([2, 3], 2, seed=0)
    path = tmp_path / "model.json"
    save_checkpoint(p, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ParseError, match="line"):
        load_checkpoint(path)


def test_checkpoint_unsupported_version(tmp_path):
    p = init_params([2, 3], 2, seed=0)
    path = tmp_path / "model.json"
    save_checkpoint(p, path)
    path.write_text(path.read_text().replace('"version": 1', '"version": 2'))
    with pytest.raises(UnsupportedVersionError):
        load_checkpoint(path)


@pytest.mark.parametrize("version", ["true", "1.0"])
def test_checkpoint_version_must_be_a_plain_integer(tmp_path, version):
    # True == 1 and 1.0 == 1 in Python, but neither is version 1
    p = init_params([2, 3], 2, seed=0)
    path = tmp_path / "model.json"
    save_checkpoint(p, path)
    path.write_text(path.read_text().replace('"version": 1', f'"version": {version}'))
    with pytest.raises(UnsupportedVersionError, match=f"version {version.capitalize()}"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "field, value",
    [("arch", [True, 2]), ("classes", True), ("classes", 1), ("flat", [False] * 12)],
)
def test_checkpoint_malformed_fields(tmp_path, field, value):
    header = {"version": 1, "arch": [2, 2], "classes": 2, "flat": [0.5] * 12}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(dict(header, **{field: value})))
    with pytest.raises(ParseError, match="malformed"):
        load_checkpoint(path)


def test_checkpoint_arch_mismatch(tmp_path):
    p = init_params([2, 3], 2, seed=0)
    path = tmp_path / "model.json"
    save_checkpoint(p, path)
    path.write_text(path.read_text().replace('"arch": [2, 3]', '"arch": [2, 4]'))
    with pytest.raises(ContractError, match="arch"):
        load_checkpoint(path)


def _checkpoint_with_first_parameter(tmp_path, token: bytes):
    path = tmp_path / "model.json"
    path.write_bytes(b'{"version": 1, "arch": [2, 2], "classes": 2, "flat": [%s%s]}' % (token, b", 0.5" * 11))
    return path


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_checkpoint_non_finite_parameter_rejected(tmp_path, number):
    path = _checkpoint_with_first_parameter(tmp_path, number.encode())
    with pytest.raises(ParseError, match=f"non-finite number {number}"):
        load_checkpoint(path)


def test_checkpoint_repeated_key_rejected(tmp_path):
    # a second "flat" would otherwise replace the first without a word
    path = _checkpoint_with_first_parameter(tmp_path, b"0.5")
    path.write_bytes(path.read_bytes().replace(b'"flat"', b'"flat": [%s], "flat"' % b", ".join([b"0.25"] * 12)))
    with pytest.raises(ParseError, match=f'checkpoint {re.escape(str(path))}: repeated key "flat"'):
        load_checkpoint(path)


def test_checkpoint_integer_too_large_for_a_float(tmp_path):
    path = _checkpoint_with_first_parameter(tmp_path, b"1" + b"0" * 400)
    with pytest.raises(ParseError, match="integer too large for a float"):
        load_checkpoint(path)


def test_checkpoint_that_is_not_utf8(tmp_path):
    path = _checkpoint_with_first_parameter(tmp_path, b'"\xff"')
    with pytest.raises(ParseError, match="not UTF-8 text"):
        load_checkpoint(path)
