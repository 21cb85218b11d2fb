"""Local model: a relu MLP feature extractor plus a linear classifier head.

The head is deliberately the only part other modules reason about in detail:
gradient matching happens on head parameters, so the extractor can stay an
arbitrary stack of dense layers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, as_tensor
from .errors import (
    ContractError,
    ParseError,
    ShapeError,
    UnsupportedVersionError,
    UsageError,
)
from .files import parse_json, write_atomic

CHECKPOINT_VERSION = 1


@dataclass
class ModelParams:
    """All trainable parameters of one client model.

    ``arch`` lists layer widths [d_in, ..., d_h]; ``feature`` holds one
    (weight, bias) pair per consecutive width pair, each followed by relu.
    The head maps d_h features to ``classes`` logits.
    """

    arch: list[int]
    classes: int
    feature: list[tuple[np.ndarray, np.ndarray]]
    head_w: np.ndarray
    head_b: np.ndarray

    def copy(self) -> "ModelParams":
        return ModelParams.from_arrays(self.arch, self.classes, [a.copy() for a in self.arrays()])

    def arrays(self) -> list[np.ndarray]:
        """The parameter arrays in the fixed order (see ``_ordered``)."""
        return _ordered(self.feature, self.head_w, self.head_b)

    @classmethod
    def from_arrays(cls, arch: list[int], classes: int, arrays) -> "ModelParams":
        """The model whose ``arrays()`` are ``arrays``, which it holds, not copies."""
        feature, head_w, head_b = _grouped(arrays)
        return cls(list(arch), classes, feature, head_w, head_b)


def _ordered(feature, head_w, head_b) -> list:
    """The one parameter order: each feature layer's weight then bias, then the
    head weight, then the head bias. Flat vectors, staged leaves and stacked
    lockstep arrays all follow it."""
    return [x for pair in feature for x in pair] + [head_w, head_b]


def _grouped(items: list) -> tuple:
    """Undo ``_ordered``: (feature pairs, head weight, head bias)."""
    return list(zip(items[:-2:2], items[1:-2:2])), items[-2], items[-1]


@dataclass
class HeadSnapshot:
    """Frozen classifier head of one source client at the end of the previous round."""

    domain_id: int
    weight: np.ndarray
    bias: np.ndarray


@dataclass
class ParamNodes:
    """Tape leaf ids for one staged ModelParams.

    Weight transposes are recorded once at staging time so repeated forward
    passes on the same tape share them.
    """

    feature: list[tuple[int, int]]
    head_w: int
    head_b: int
    feature_wt: list[int]
    head_wt: int

    def all_ids(self) -> list[int]:
        return _ordered(self.feature, self.head_w, self.head_b)


def init_params(arch: list[int], classes: int, seed: int) -> ModelParams:
    """He-initialized weights (std sqrt(2/fan_in)), zero biases."""
    if not arch:
        raise UsageError("init_params: arch must list at least the input width")
    if any(d < 1 for d in arch):
        raise UsageError(f"init_params: layer widths must be >= 1, got {arch}")
    if classes < 2:
        raise UsageError(f"init_params: need at least 2 classes, got {classes}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    feature = []
    for d_in, d_out in zip(arch[:-1], arch[1:]):
        w = rng.normal(0.0, np.sqrt(2.0 / d_in), size=(d_out, d_in))
        feature.append((w, np.zeros(d_out)))
    head_w = rng.normal(0.0, np.sqrt(2.0 / arch[-1]), size=(classes, arch[-1]))
    return ModelParams(
        arch=list(arch),
        classes=classes,
        feature=feature,
        head_w=head_w,
        head_b=np.zeros(classes),
    )


def stage_params(tape: Tape, params: ModelParams) -> ParamNodes:
    """Register every parameter array as a trainable tape leaf."""
    feature, head_w, head_b = _grouped([tape.leaf(a, param=True) for a in params.arrays()])
    return ParamNodes(
        feature=feature,
        head_w=head_w,
        head_b=head_b,
        feature_wt=[ad.transpose(tape, w) for w, _ in feature],
        head_wt=ad.transpose(tape, head_w),
    )


def forward(tape: Tape, params: ModelParams | ParamNodes, X) -> tuple[int, int]:
    """Record the forward pass; returns (features node, logits node).

    Accepts raw ModelParams (staged as fresh trainable leaves) or an
    already-staged ParamNodes, so one set of leaves can serve several
    forward passes on the same tape. ``X`` is a batch of rows or the node
    of one.
    """
    if isinstance(params, ModelParams):
        params = stage_params(tape, params)
    h = int(X) if isinstance(X, (int, np.integer)) else tape.constant(X)
    X = tape.value(h)
    if X.ndim != 2:
        raise ShapeError(f"forward: expected a batch of rows, got dims {X.shape}")
    d_in = tape.value(params.feature[0][0]).shape[1] if params.feature else tape.value(params.head_w).shape[1]
    if X.shape[1] != d_in:
        raise ShapeError(f"forward: input width {X.shape[1]} does not match model width {d_in}")
    for (_, b_id), wt_id in zip(params.feature, params.feature_wt):
        h = ad.relu(tape, ad.add(tape, ad.matmul(tape, h, wt_id), b_id))
    z = ad.add(tape, ad.matmul(tape, h, params.head_wt), params.head_b)
    return h, z


def predict_logits(params: ModelParams, X) -> np.ndarray:
    """Plain numpy forward pass for evaluation (no tape)."""
    h = as_tensor(X)
    for w, b in params.feature:
        h = np.maximum(h @ w.T + b, 0.0)
    return h @ params.head_w.T + params.head_b


def predict_proba(params: ModelParams, X) -> np.ndarray:
    """Row-stochastic softmax probabilities (max-shifted for stability)."""
    z = predict_logits(params, X)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def param_count(arch: list[int], classes: int) -> int:
    n = sum(o * i + o for i, o in zip(arch[:-1], arch[1:]))
    return n + classes * arch[-1] + classes


def flatten(params: ModelParams) -> np.ndarray:
    """``params.arrays()``, each weight row-major, joined into one vector."""
    return np.concatenate([a.ravel() for a in params.arrays()])


def unflatten(arch: list[int], classes: int, flat) -> ModelParams:
    flat = as_tensor(flat).ravel()
    expected = param_count(arch, classes)
    if flat.size != expected:
        raise ShapeError(
            f"unflatten: flat length {flat.size} does not match arch {arch}, "
            f"classes {classes} (expected {expected})"
        )
    shapes = _ordered([((o, i), (o,)) for i, o in zip(arch[:-1], arch[1:])], (classes, arch[-1]), (classes,))
    ends = np.cumsum([int(np.prod(shape)) for shape in shapes])
    parts = np.split(flat, ends[:-1])
    return ModelParams.from_arrays(arch, classes, [p.reshape(shape).copy() for p, shape in zip(parts, shapes)])


def save_checkpoint(params: ModelParams, path) -> None:
    """Write a single-object JSON checkpoint.

    Floats are serialized at 17 significant digits so the decimal text
    round-trips every float64 exactly.
    """
    flat = flatten(params)
    body = ", ".join(format(v, ".17g") for v in flat)
    text = (
        '{"version": %d, "arch": %s, "classes": %d, "flat": [%s]}\n'
        % (CHECKPOINT_VERSION, json.dumps(list(params.arch)), params.classes, body)
    )
    write_atomic(path, [text])


def _plain(value, kinds) -> bool:
    """isinstance that turns away booleans, which JSON true/false decode to."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        obj = parse_json(data, f"checkpoint {path}")
    except json.JSONDecodeError as e:
        raise ParseError(f"checkpoint parse error at line {e.lineno} column {e.colno}: {e.msg}") from None
    if not isinstance(obj, dict):
        raise ParseError("checkpoint must be a JSON object")
    for key in ("version", "arch", "classes", "flat"):
        if key not in obj:
            raise ParseError(f"checkpoint missing key '{key}'")
    if not _plain(obj["version"], int) or obj["version"] != CHECKPOINT_VERSION:
        raise UnsupportedVersionError(f"unsupported checkpoint version {obj['version']!r}")
    arch = obj["arch"]
    classes = obj["classes"]
    if (
        not isinstance(arch, list)
        or not arch
        or not all(_plain(d, int) and d >= 1 for d in arch)
        or not _plain(classes, int)
        or classes < 2
    ):
        raise ParseError("checkpoint header has a malformed arch or class count")
    flat = obj["flat"]
    if not isinstance(flat, list) or not all(_plain(v, (int, float)) for v in flat):
        raise ParseError("checkpoint flat parameter list is malformed")
    if len(flat) != param_count(arch, classes):
        raise ContractError(
            f"checkpoint declares arch {arch}, classes {classes} but carries "
            f"{len(flat)} parameters (expected {param_count(arch, classes)})"
        )
    try:
        values = np.array(flat, dtype=np.float64)
    except OverflowError:
        raise ParseError("checkpoint flat parameter list holds an integer too large for a float") from None
    return unflatten(arch, classes, values)
