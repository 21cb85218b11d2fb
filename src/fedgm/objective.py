"""Loss terms for gradient-matched federated training.

Everything here is recorded on a Tape, including the closed-form gradient of
the batch-mean cross-entropy with respect to the classifier head:

    grad_W = (P - Y)^T H / B        grad_b = column-mean(P - Y)

with P = softmax(H W^T + b) and Y the one-hot labels. Because that gradient
is itself a tape expression, cosine losses built on top of it backpropagate
into the features and the live head with ordinary first-order reverse mode.

The combined local objective is

    0.5 (ce_orig + ce_aug) + lam * intra + (1 - lam) * inter

where ``intra`` matches head gradients between the original and augmented
batch under the live head, and ``inter`` sums 1 - cosine between the
augmented-batch gradient and the gradient computed under each frozen head
snapshot from the previous round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, as_tensor
from .errors import ContractError, ShapeError, UsageError
from .model import HeadSnapshot, ModelParams, ParamNodes, forward, stage_params

COSINE_EPS = 1e-12
# the terms of the local objective, in the order a client reports them
TRAIN_METRICS = ("ce_orig", "ce_aug", "intra", "inter", "total")


@dataclass
class LossBreakdown:
    """Scalar values of every term in one local-loss evaluation.

    ``nodes`` maps each of the TRAIN_METRICS to its tape node, so a compiled
    step can report the terms; a skipped term's node is a zero constant.
    """

    ce_orig: float
    ce_aug: float
    intra: float
    inter: float
    total: float
    nodes: dict[str, int] = field(default_factory=dict, repr=False, compare=False)


def one_hot(y, classes: int) -> np.ndarray:
    y = np.asarray(y, dtype=np.int64).ravel()
    bad = (y < 0) | (y >= classes)
    if bad.any():
        idx = int(np.argmax(bad))
        raise UsageError(f"label {y[idx]} at index {idx} outside [0, {classes})")
    out = np.zeros((y.size, classes))
    out[np.arange(y.size), y] = 1.0
    return out


def _ce_from_log_probs(tape: Tape, logp: int, y_mat: int) -> int:
    picked = ad.reduce_sum(tape, ad.mul(tape, logp, y_mat))
    return ad.scale(tape, picked, -1.0 / tape.value(y_mat).shape[0])


def cross_entropy(tape: Tape, z: int, y) -> int:
    """Batch-mean negative log-likelihood of the true classes.

    ``y`` is the labels, or the node of their one-hot matrix.
    """
    zval = tape.value(z)
    if zval.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be 2-d, got dims {zval.shape}")
    y_mat = _one_hot_node(tape, y, zval.shape[1])
    return _ce_from_log_probs(tape, ad.log_softmax_rows(tape, z), y_mat)


def _as_node(tape: Tape, value_or_node) -> int:
    if isinstance(value_or_node, (int, np.integer)):
        return int(value_or_node)
    return tape.constant(as_tensor(value_or_node))


def _one_hot_node(tape: Tape, y, classes: int) -> int:
    """Stage the one-hot matrix of labels ``y``, unless ``y`` is already its node."""
    return _as_node(tape, y if isinstance(y, (int, np.integer)) else one_hot(y, classes))


class _Labels(NamedTuple):
    """A batch's one-hot labels, and the (B, 1) ones column that sums P - Y into grad_b."""

    y_mat: int
    ones: int


def _labels(tape: Tape, y_mat: int) -> _Labels:
    return _Labels(y_mat, tape.constant(np.ones((tape.value(y_mat).shape[0], 1))))


def _head_grad(tape: Tape, lab: _Labels, h: int, logp: int) -> int:
    """The closed form from features ``h`` and their logits' log-softmax; weight row-major, then bias."""
    batch = tape.value(h).shape[0]
    diff_t = ad.transpose(tape, ad.sub(tape, ad.exp(tape, logp), lab.y_mat))
    gw = ad.scale(tape, ad.matmul(tape, diff_t, h), 1.0 / batch)
    gb = ad.scale(tape, ad.matmul(tape, diff_t, lab.ones), 1.0 / batch)
    return ad.flatten_concat(tape, (gw, gb))


def _frozen_head_grad(tape: Tape, lab: _Labels, h: int, weight: np.ndarray, bias: np.ndarray) -> int:
    """``_head_grad`` under a head staged pre-transposed as constants: no adjoint reaches it."""
    z = ad.add(tape, ad.matmul(tape, h, tape.constant(weight.T)), tape.constant(bias))
    return _head_grad(tape, lab, h, ad.log_softmax_rows(tape, z))


def head_grad(tape: Tape, h: int, y, head_w, head_b) -> int:
    """Closed-form head gradient of the batch-mean cross-entropy under a frozen
    head: ``head_w``/``head_b`` are arrays staged as constants, so adjoints
    reach the features ``h`` but never the head."""
    head_w = as_tensor(head_w)
    lab = _labels(tape, _one_hot_node(tape, y, head_w.shape[0]))
    return _frozen_head_grad(tape, lab, h, head_w, head_b)


class _Anchor(NamedTuple):
    """The vector ``u`` a batch's cosines all compare with, and the nodes they share."""

    u: int
    u_norm: int
    eps: int
    one: int


def _anchor(tape: Tape, u: int) -> _Anchor:
    return _Anchor(u, ad.l2_norm(tape, u), tape.constant(COSINE_EPS), tape.constant(1.0))


def _cosine(tape: Tape, a: _Anchor, v: int) -> int:
    num = ad.dot(tape, a.u, v)
    den = ad.add(tape, ad.mul(tape, a.u_norm, ad.l2_norm(tape, v)), a.eps)
    return ad.div(tape, num, den)


def _mismatch(tape: Tape, a: _Anchor, v: int) -> int:
    """1 - cosine(u, v): the intra term and every inter summand."""
    return ad.sub(tape, a.one, _cosine(tape, a, v))


def _inter(tape: Tape, lab: _Labels, a: _Anchor, h_orig: int, snapshots, normalize: bool) -> int:
    """``inter_gm_loss`` on the nodes its batch shares."""
    total = None
    for snap in snapshots:
        term = _mismatch(tape, a, _frozen_head_grad(tape, lab, h_orig, snap.weight, snap.bias))
        total = term if total is None else ad.add(tape, total, term)
    if normalize:
        total = ad.scale(tape, total, 1.0 / len(snapshots))
    return total


def cosine_sim(tape: Tape, u: int, v: int) -> int:
    """(u . v) / (|u| |v| + 1e-12), kept differentiable near zero vectors."""
    return _cosine(tape, _anchor(tape, u), v)


def intra_gm_loss(tape: Tape, g: int, g_aug: int) -> int:
    """1 - cosine(g, g_aug); zero when augmentation leaves gradients alone."""
    return _mismatch(tape, _anchor(tape, g_aug), g)


def inter_gm_loss(
    tape: Tape, g_aug: int, snapshots: Sequence[HeadSnapshot], h_orig: int, y, *, normalize: bool = False
) -> int:
    """Sum over snapshots of 1 - cosine(g_aug, snapshot-head gradient), divided
    by the snapshot count if ``normalize``. Snapshot gradients are taken on
    ``h_orig`` under each frozen head: adjoints reach the features and g_aug
    but never the snapshots."""
    if not snapshots:
        raise ContractError("inter_gm_loss: empty snapshot list (skip the term instead)")
    lab = _labels(tape, _one_hot_node(tape, y, snapshots[0].weight.shape[0]))
    return _inter(tape, lab, _anchor(tape, g_aug), h_orig, snapshots, normalize)


def local_loss(
    tape: Tape,
    params: ModelParams | ParamNodes,
    snapshots: Sequence[HeadSnapshot],
    X,
    X_aug,
    y,
    lam: float,
    *,
    inter_normalize: bool = False,
    gm_enabled: bool = True,
) -> tuple[int, LossBreakdown]:
    """Combined local objective; returns (total node, scalar breakdown).

    ``X`` and ``X_aug`` are batches or their nodes, ``y`` is the labels or
    the node of their one-hot matrix. With no snapshots (round 1) the inter
    term is skipped. ``gm_enabled=False`` skips both matching terms, leaving
    the plain averaged cross-entropy of the federated-averaging baseline.
    """
    if not 0.0 <= lam <= 1.0:
        raise UsageError(f"lambda must lie in [0, 1], got {lam}")
    x = _as_node(tape, X)
    x_aug = _as_node(tape, X_aug)
    if tape.value(x).shape != tape.value(x_aug).shape:
        raise ShapeError(
            f"original batch {tape.value(x).shape} and augmented batch {tape.value(x_aug).shape} differ"
        )
    if isinstance(params, ModelParams):
        params = stage_params(tape, params)
    y_mat = _one_hot_node(tape, y, tape.value(params.head_w).shape[0])
    h_orig, z_orig = forward(tape, params, x)
    h_aug, z_aug = forward(tape, params, x_aug)
    logp_o = ad.log_softmax_rows(tape, z_orig)
    logp_a = ad.log_softmax_rows(tape, z_aug)
    ce_o = _ce_from_log_probs(tape, logp_o, y_mat)
    ce_a = _ce_from_log_probs(tape, logp_a, y_mat)
    total = ad.scale(tape, ad.add(tape, ce_o, ce_a), 0.5)
    # a skipped term reads a zero constant
    intra = inter = None if gm_enabled and snapshots else tape.constant(0.0)
    if gm_enabled:
        # the live-head gradients reuse the forward log-probabilities
        lab = _labels(tape, y_mat)
        g = _head_grad(tape, lab, h_orig, logp_o)
        anchor = _anchor(tape, _head_grad(tape, lab, h_aug, logp_a))
        intra = _mismatch(tape, anchor, g)
        total = ad.add(tape, total, ad.scale(tape, intra, lam))
        if snapshots:
            inter = _inter(tape, lab, anchor, h_orig, snapshots, inter_normalize)
            total = ad.add(tape, total, ad.scale(tape, inter, 1.0 - lam))
    nodes = dict(zip(TRAIN_METRICS, (ce_o, ce_a, intra, inter, total)))
    return total, LossBreakdown(**{m: float(tape.value(nid)) for m, nid in nodes.items()}, nodes=nodes)
