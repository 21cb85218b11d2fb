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
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, as_tensor
from .errors import ContractError, ShapeError, UsageError
from .model import HeadSnapshot, ModelParams, ParamNodes, forward, stage_params

COSINE_EPS = 1e-12


@dataclass
class LossBreakdown:
    """Scalar values of every term in one local-loss evaluation.

    ``nodes`` maps each recorded term to its tape node, so the terms can be
    read again after the tape is replayed. A skipped term reads 0 and has
    no node.
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


def _ce_from_log_probs(tape: Tape, logp: int, y_mat: int, batch: int) -> int:
    picked = ad.reduce_sum(tape, ad.mul(tape, logp, y_mat))
    return ad.scale(tape, picked, -1.0 / batch)


def cross_entropy(tape: Tape, z: int, y) -> int:
    """Batch-mean negative log-likelihood of the true classes.

    ``y`` is the labels, or the node of their one-hot matrix.
    """
    zval = tape.value(z)
    if zval.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be 2-d, got dims {zval.shape}")
    batch, classes = zval.shape
    y_mat = _one_hot_node(tape, y, classes)
    logp = ad.log_softmax_rows(tape, z)
    return _ce_from_log_probs(tape, logp, y_mat, batch)


def _as_node(tape: Tape, value_or_node) -> int:
    if isinstance(value_or_node, (int, np.integer)):
        return int(value_or_node)
    return tape.constant(as_tensor(value_or_node))


def _one_hot_node(tape: Tape, y, classes: int) -> int:
    """Stage the one-hot matrix of labels ``y``, unless ``y`` is already its node."""
    if isinstance(y, (int, np.integer)):
        return int(y)
    return tape.constant(one_hot(y, classes))


def _head_grad_from_probs(tape: Tape, h: int, y_mat: int, p: int, batch: int, ones: int) -> int:
    """grad_W and grad_b assembled from an existing softmax node."""
    diff_t = ad.transpose(tape, ad.sub(tape, p, y_mat))
    gw = ad.scale(tape, ad.matmul(tape, diff_t, h), 1.0 / batch)
    gb = ad.scale(tape, ad.matmul(tape, diff_t, ones), 1.0 / batch)
    return ad.flatten_concat(tape, (gw, gb))


def head_grad(tape: Tape, h: int, y, head_w, head_b) -> int:
    """Closed-form head gradient of the batch-mean cross-entropy.

    ``head_w``/``head_b`` may be tape nodes (live head: adjoints flow into
    them) or raw arrays (frozen snapshot: staged as constants, no adjoints).
    Returns a flat node of length classes * d_h + classes, weight row-major
    followed by bias.
    """
    w_id = _as_node(tape, head_w)
    b_id = _as_node(tape, head_b)
    hval = tape.value(h)
    wval = tape.value(w_id)
    if hval.ndim != 2 or wval.ndim != 2 or hval.shape[1] != wval.shape[1]:
        raise ShapeError(
            f"head_grad: features {hval.shape} and head weight {wval.shape} are not conformable"
        )
    batch = hval.shape[0]
    classes = wval.shape[0]
    z = ad.add(tape, ad.matmul(tape, h, ad.transpose(tape, w_id)), b_id)
    p = ad.exp(tape, ad.log_softmax_rows(tape, z))
    y_mat = tape.constant(one_hot(y, classes))
    ones = tape.constant(np.ones((batch, 1)))
    return _head_grad_from_probs(tape, h, y_mat, p, batch, ones)


def cosine_sim(tape: Tape, u: int, v: int, *, u_norm: int | None = None, eps: int | None = None) -> int:
    """(u . v) / (|u| |v| + 1e-12), kept differentiable near zero vectors.

    ``u_norm`` and ``eps`` take nodes the caller has already recorded.
    """
    if tape.value(u).size != tape.value(v).size:
        raise ShapeError(
            f"cosine_sim: dims {tape.value(u).shape} and {tape.value(v).shape} have different sizes"
        )
    u_norm = ad.l2_norm(tape, u) if u_norm is None else u_norm
    eps = tape.constant(COSINE_EPS) if eps is None else eps
    num = ad.dot(tape, u, v)
    den = ad.add(tape, ad.mul(tape, u_norm, ad.l2_norm(tape, v)), eps)
    return ad.div(tape, num, den)


def intra_gm_loss(
    tape: Tape,
    g: int,
    g_aug: int,
    *,
    g_aug_norm: int | None = None,
    eps: int | None = None,
    one: int | None = None,
) -> int:
    """1 - cosine(g, g_aug); zero when augmentation leaves gradients alone.

    The keyword nodes let local_loss share what the inter term also uses.
    """
    one = tape.constant(1.0) if one is None else one
    return ad.sub(tape, one, cosine_sim(tape, g_aug, g, u_norm=g_aug_norm, eps=eps))


def inter_gm_loss(
    tape: Tape,
    g_aug: int,
    snapshots: Sequence[HeadSnapshot],
    h_orig: int,
    y,
    *,
    normalize: bool = False,
    y_mat: int | None = None,
    ones_col: int | None = None,
    g_aug_norm: int | None = None,
    eps: int | None = None,
    one: int | None = None,
) -> int:
    """Sum over snapshots of 1 - cosine(g_aug, snapshot-head gradient).

    Snapshot gradients are taken on the original batch under each frozen
    head, so adjoints reach the features and g_aug but never the snapshots.
    ``normalize`` divides the sum by the snapshot count. The remaining
    keyword nodes let local_loss share what it has already recorded for
    the batch; a standalone call records its own.
    """
    if not snapshots:
        raise ContractError("inter_gm_loss: empty snapshot list (skip the term instead)")
    batch = tape.value(h_orig).shape[0]
    if y_mat is None:
        y_mat = tape.constant(one_hot(y, snapshots[0].weight.shape[0]))
    g_aug_norm = ad.l2_norm(tape, g_aug) if g_aug_norm is None else g_aug_norm
    eps = tape.constant(COSINE_EPS) if eps is None else eps
    one = tape.constant(1.0) if one is None else one
    ones_col = tape.constant(np.ones((batch, 1))) if ones_col is None else ones_col
    total = None
    for snap in snapshots:
        # snapshot heads are constants: staged pre-transposed, no adjoints
        z_j = ad.add(tape, ad.matmul(tape, h_orig, tape.constant(snap.weight.T)), tape.constant(snap.bias))
        p_j = ad.exp(tape, ad.log_softmax_rows(tape, z_j))
        g_j = _head_grad_from_probs(tape, h_orig, y_mat, p_j, batch, ones_col)
        term = ad.sub(tape, one, cosine_sim(tape, g_aug, g_j, u_norm=g_aug_norm, eps=eps))
        total = term if total is None else ad.add(tape, total, term)
    if normalize:
        total = ad.scale(tape, total, 1.0 / len(snapshots))
    return total


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
    term is skipped. With ``gm_enabled=False`` both matching terms are
    dropped and the loss is the plain averaged cross-entropy, which is the
    federated-averaging baseline.
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
    classes = tape.value(params.head_w).shape[0]
    y_mat = _one_hot_node(tape, y, classes)
    h_orig, z_orig = forward(tape, params, x)
    h_aug, z_aug = forward(tape, params, x_aug)
    batch = tape.value(x).shape[0]
    logp_o = ad.log_softmax_rows(tape, z_orig)
    logp_a = ad.log_softmax_rows(tape, z_aug)
    ce_o = _ce_from_log_probs(tape, logp_o, y_mat, batch)
    ce_a = _ce_from_log_probs(tape, logp_a, y_mat, batch)
    total = ad.scale(tape, ad.add(tape, ce_o, ce_a), 0.5)
    nodes = {"ce_orig": ce_o, "ce_aug": ce_a}
    if gm_enabled:
        # the live-head gradients reuse the forward log-probabilities
        ones_col = tape.constant(np.ones((batch, 1)))
        g = _head_grad_from_probs(tape, h_orig, y_mat, ad.exp(tape, logp_o), batch, ones_col)
        g_aug = _head_grad_from_probs(tape, h_aug, y_mat, ad.exp(tape, logp_a), batch, ones_col)
        # recorded once, used by both matching terms
        shared = {
            "eps": tape.constant(COSINE_EPS),
            "one": tape.constant(1.0),
            "g_aug_norm": ad.l2_norm(tape, g_aug),
        }
        intra = intra_gm_loss(tape, g, g_aug, **shared)
        total = ad.add(tape, total, ad.scale(tape, intra, lam))
        nodes["intra"] = intra
        if snapshots:
            inter = inter_gm_loss(
                tape, g_aug, snapshots, h_orig, y,
                normalize=inter_normalize, y_mat=y_mat, ones_col=ones_col, **shared,
            )
            total = ad.add(tape, total, ad.scale(tape, inter, 1.0 - lam))
            nodes["inter"] = inter
    nodes["total"] = total
    values = {"intra": 0.0, "inter": 0.0}
    values.update((name, float(tape.value(nid))) for name, nid in nodes.items())
    return total, LossBreakdown(**values, nodes=nodes)
