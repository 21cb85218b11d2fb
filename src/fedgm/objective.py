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

Every recording function takes nodes: staged parameters, staged snapshot
heads (``stage_heads``), batches, and one-hot labels (``one_hot``). The
gradient oracles at the end check the objective against central differences
and the closed form against reverse mode.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, backward, finite_diff_grad
from .errors import ContractError, ShapeError, UsageError
from .model import (
    HeadNodes,
    HeadSnapshot,
    ModelParams,
    ParamNodes,
    flatten,
    forward,
    init_params,
    stage_heads,
    stage_params,
    unflatten,
)
from .rng import substream

COSINE_EPS = 1e-12
# the terms of the local objective, in the order a client reports them
TRAIN_METRICS = ("ce_orig", "ce_aug", "intra", "inter", "total")


def one_hot(y, classes: int) -> np.ndarray:
    y = np.asarray(y, dtype=np.int64).ravel()
    bad = (y < 0) | (y >= classes)
    if bad.any():
        idx = int(np.argmax(bad))
        raise UsageError(f"label {y[idx]} at index {idx} outside [0, {classes})")
    out = np.zeros((y.size, classes))
    out[np.arange(y.size), y] = 1.0
    return out


def _check_labels(tape: Tape, logp: int, y_mat: int) -> None:
    """ShapeError unless the one-hot labels ``y_mat`` have the logits' shape, which ``mul`` would broadcast."""
    y, z = tape.value(y_mat).shape, tape.value(logp).shape
    if y != z:
        raise ShapeError(f"one-hot labels of dims {y} do not match the logits' dims {z}")


def _ce_from_log_probs(tape: Tape, logp: int, y_mat: int) -> int:
    _check_labels(tape, logp, y_mat)
    picked = ad.reduce_sum(tape, ad.mul(tape, logp, y_mat))
    return ad.scale(tape, picked, -1.0 / tape.value(y_mat).shape[0])


def cross_entropy(tape: Tape, z: int, y_mat: int) -> int:
    """Batch-mean negative log-likelihood of the true classes, from the
    logits' node ``z`` and the node ``y_mat`` of the one-hot labels."""
    zval = tape.value(z)
    if zval.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be 2-d, got dims {zval.shape}")
    return _ce_from_log_probs(tape, ad.log_softmax_rows(tape, z), y_mat)


class _Labels(NamedTuple):
    """A batch's one-hot labels, and the (B, 1) ones column that sums P - Y into grad_b."""

    y_mat: int
    ones: int


def _labels(tape: Tape, y_mat: int) -> _Labels:
    return _Labels(y_mat, tape.constant(np.ones((tape.value(y_mat).shape[0], 1))))


def _head_grad(tape: Tape, lab: _Labels, h: int, logp: int) -> int:
    """The closed form from features ``h`` and their logits' log-softmax; weight row-major, then bias."""
    _check_labels(tape, logp, lab.y_mat)
    batch = tape.value(h).shape[0]
    diff_t = ad.transpose(tape, ad.sub(tape, ad.exp(tape, logp), lab.y_mat))
    gw = ad.scale(tape, ad.matmul(tape, diff_t, h), 1.0 / batch)
    gb = ad.scale(tape, ad.matmul(tape, diff_t, lab.ones), 1.0 / batch)
    return ad.flatten_concat(tape, (gw, gb))


def _frozen_head_grad(tape: Tape, lab: _Labels, h: int, head: HeadNodes) -> int:
    """``_head_grad`` under a head staged as constants, transposed by an op as the live one: no adjoint reaches it."""
    z = ad.add(tape, ad.matmul(tape, h, ad.transpose(tape, head.weight)), head.bias)
    return _head_grad(tape, lab, h, ad.log_softmax_rows(tape, z))


def head_grad(tape: Tape, h: int, y_mat: int, head_w, head_b) -> int:
    """Closed-form head gradient of the batch-mean cross-entropy of nodes ``h``
    and ``y_mat`` under a frozen head: ``head_w``/``head_b`` are arrays staged
    as constants (``head_w`` as it is, then a ``transpose`` op), so adjoints
    reach the features ``h`` but never the head."""
    head = HeadNodes(tape.constant(head_w), tape.constant(head_b))
    return _frozen_head_grad(tape, _labels(tape, y_mat), h, head)


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


def _inter(tape: Tape, lab: _Labels, a: _Anchor, h_orig: int, heads: Sequence[HeadNodes], normalize: bool) -> int:
    """``inter_gm_loss`` on the nodes its batch shares; head j's block is lane j of the heads group."""
    total = None
    for j, head in enumerate(heads):
        with tape.lane("heads", j):
            term = _mismatch(tape, a, _frozen_head_grad(tape, lab, h_orig, head))
        total = term if total is None else ad.add(tape, total, term)
    if normalize:
        total = ad.scale(tape, total, 1.0 / len(heads))
    return total


def cosine_sim(tape: Tape, u: int, v: int) -> int:
    """(u . v) / (|u| |v| + 1e-12), kept differentiable near zero vectors."""
    return _cosine(tape, _anchor(tape, u), v)


def intra_gm_loss(tape: Tape, g: int, g_aug: int) -> int:
    """1 - cosine(g, g_aug); zero when augmentation leaves gradients alone."""
    return _mismatch(tape, _anchor(tape, g_aug), g)


def inter_gm_loss(
    tape: Tape, g_aug: int, heads: Sequence[HeadNodes], h_orig: int, y_mat: int, *, normalize: bool = False
) -> int:
    """Sum over the staged snapshot heads ``heads`` (``stage_heads``) of
    1 - cosine(g_aug, that head's gradient), divided by their count if
    ``normalize``. Each head's gradient is taken on nodes ``h_orig`` and
    ``y_mat`` under that frozen head: adjoints reach the features and g_aug
    but never the heads."""
    if not heads:
        raise ContractError("inter_gm_loss: empty snapshot list (skip the term instead)")
    return _inter(tape, _labels(tape, y_mat), _anchor(tape, g_aug), h_orig, heads, normalize)


def _views(tape: Tape, record: Callable, *args) -> list:
    """``record`` on the batch's and then the view's entry of each of ``args``,
    declared as lanes 0 and 1 of the views group."""
    outs = []
    for j, view_args in enumerate(zip(*args)):
        with tape.lane("views", j):
            outs.append(record(*view_args))
    return outs


def _ce_views(tape: Tape, params: ParamNodes, x: int, x_aug: int, y_mat: int):
    """Features, log-probabilities and cross-entropy of the batch ``x`` and its view ``x_aug``, as lane pairs."""
    if tape.value(x).shape != tape.value(x_aug).shape:
        raise ShapeError(f"original batch {tape.value(x).shape} and augmented batch {tape.value(x_aug).shape} differ")
    # the two views record one block each, step by step, as two lanes
    (h_orig, z_orig), (h_aug, z_aug) = _views(tape, lambda v: forward(tape, params, v), (x, x_aug))
    logp = _views(tape, lambda z: ad.log_softmax_rows(tape, z), (z_orig, z_aug))
    return (h_orig, h_aug), logp, _views(tape, lambda lp: _ce_from_log_probs(tape, lp, y_mat), logp)


def averaged_ce(
    tape: Tape, params: ParamNodes, heads: Sequence[HeadNodes], x: int, x_aug: int, y_mat: int
) -> tuple[int, dict[str, int]]:
    """The federated-averaging baseline's objective 0.5 (ce_orig + ce_aug):
    ``local_loss`` without its matching terms, whose stats read one zero
    constant. It takes ``local_loss``'s nodes and reads none of the ``heads``."""
    _, _, (ce_o, ce_a) = _ce_views(tape, params, x, x_aug, y_mat)
    total = ad.scale(tape, ad.add(tape, ce_o, ce_a), 0.5)
    zero = tape.constant(0.0)
    return total, dict(zip(TRAIN_METRICS, (ce_o, ce_a, zero, zero, total)))


def local_loss(
    tape: Tape,
    params: ParamNodes,
    heads: Sequence[HeadNodes],
    x: int,
    x_aug: int,
    y_mat: int,
    lam: float,
    *,
    inter_normalize: bool = False,
) -> tuple[int, dict[str, int]]:
    """Combined local objective; returns the total node and the node of each
    of the TRAIN_METRICS (a skipped term's node is a zero constant).

    ``heads`` are the staged snapshot heads (``stage_heads``), and ``x``,
    ``x_aug`` and ``y_mat`` the nodes of the batch, its view and its one-hot
    labels. With no heads (round 1) the inter term is skipped.
    """
    if not 0.0 <= lam <= 1.0:
        raise UsageError(f"lambda must lie in [0, 1], got {lam}")
    (h_orig, h_aug), (logp_o, logp_a), (ce_o, ce_a) = _ce_views(tape, params, x, x_aug, y_mat)
    total = ad.scale(tape, ad.add(tape, ce_o, ce_a), 0.5)
    # a skipped inter term reads a zero constant
    inter = None if heads else tape.constant(0.0)
    # the live-head gradients reuse the forward log-probabilities
    lab = _labels(tape, y_mat)
    g, g_aug = _views(tape, lambda h, logp: _head_grad(tape, lab, h, logp), (h_orig, h_aug), (logp_o, logp_a))
    anchor = _anchor(tape, g_aug)
    intra = _mismatch(tape, anchor, g)
    total = ad.add(tape, total, ad.scale(tape, intra, lam))
    if heads:
        inter = _inter(tape, lab, anchor, h_orig, heads, inter_normalize)
        total = ad.add(tape, total, ad.scale(tape, inter, 1.0 - lam))
    return total, dict(zip(TRAIN_METRICS, (ce_o, ce_a, intra, inter, total)))


def _recorded_loss(params: ModelParams, snapshots, X, X_aug, y, lam) -> tuple[Tape, ParamNodes, int]:
    """``local_loss`` of one instance on a fresh tape, its parameters staged as
    leaves and its batches, one-hot labels and snapshot heads as constants."""
    tape = Tape()
    staged = stage_params(tape, params)
    x, x_aug, y_mat = (tape.constant(a) for a in (X, X_aug, one_hot(y, params.classes)))
    return tape, staged, local_loss(tape, staged, stage_heads(tape, snapshots), x, x_aug, y_mat, lam)[0]


def _flat_loss_fn(params: ModelParams, snapshots, X, X_aug, y, lam) -> Callable:
    def f(theta):
        tape, _, loss = _recorded_loss(unflatten(params.arch, params.classes, theta), snapshots, X, X_aug, y, lam)
        return float(tape.value(loss))

    return f


def grad_check_instances(arch, trials, seed):
    """Random full-objective instances for gradient verification.

    Biases are jittered away from zero so no relu pre-activation sits
    exactly on the kink, where the loss is one-sided and a central
    difference is not a valid oracle.
    """
    rng = substream(seed)
    lams = [0.0, 0.3, 0.5, 1.0]
    for trial in range(trials):
        depth = int(rng.integers(1, len(arch)))
        dims = [int(rng.integers(min(2, d), d + 1)) for d in arch[: depth + 1]]
        classes = int(rng.integers(2, 5))
        batch = int(rng.integers(1, 9))
        params = init_params(dims, classes, int(rng.integers(0, 2**31)))
        for _, b in params.feature:
            b += rng.normal(0.0, 0.2, size=b.shape)
        params.head_b += rng.normal(0.0, 0.2, size=classes)
        X = rng.normal(0.0, 1.5, size=(batch, dims[0]))
        X_aug = X + rng.normal(0.0, 0.3, size=X.shape)
        y = rng.integers(0, classes, size=batch)
        n_snaps = int(rng.integers(1, 4))
        snapshots = [
            HeadSnapshot(j, rng.normal(0.0, 0.7, size=params.head_w.shape), rng.normal(0.0, 0.3, size=classes))
            for j in range(n_snaps)
        ]
        lam = lams[trial % len(lams)]
        yield params, snapshots, X, X_aug, y, lam


def total_loss_gradient(params, snapshots, X, X_aug, y, lam):
    """Reverse-mode gradient of the combined loss in flat parameter order."""
    tape, staged, loss = _recorded_loss(params, snapshots, X, X_aug, y, lam)
    grads = backward(tape, loss)
    return np.concatenate([grads[nid].ravel() for nid in staged.all_ids()])


def finite_difference_errors(arch, trials: int, seed: int) -> tuple[float, tuple[int, int], float]:
    """Worst deviations of reverse-mode gradients from central differences
    (h = 1e-5) over ``grad_check_instances(arch, trials, seed)``.

    Returns the worst relative error over coordinates whose difference
    quotient exceeds 1e-6 in magnitude, its (trial, coordinate), and the
    worst absolute error over the others. A NaN gradient entry counts as an
    infinite error.
    """
    worst_rel = 0.0
    worst_abs = 0.0
    worst_coord = (0, 0)
    for trial, instance in enumerate(grad_check_instances(arch, trials, seed)):
        g_ad = total_loss_gradient(*instance)
        g_fd = finite_diff_grad(_flat_loss_fn(*instance), flatten(instance[0]), 1e-5)
        errs = np.abs(g_ad - g_fd)
        errs[np.isnan(errs)] = np.inf  # NaN compares false with every bound
        for k, err in enumerate(errs):
            if abs(g_fd[k]) > 1e-6:
                rel = err / abs(g_fd[k])
                if rel > worst_rel:
                    worst_rel, worst_coord = rel, (trial, k)
            elif err > worst_abs:
                worst_abs = err
    return worst_rel, worst_coord, worst_abs


def head_gradient_deviation(trials: int, seed: int) -> float:
    """Worst deviation of the closed-form head gradient from the reverse-mode
    gradient of the cross-entropy over the head leaves, on ``trials`` random
    instances drawn from ``seed + 1``. A NaN entry counts as an infinite error."""
    worst = 0.0
    rng = substream(seed + 1)
    for _ in range(trials):
        batch = int(rng.integers(1, 9))
        d_h = int(rng.integers(2, 9))
        classes = int(rng.integers(2, 6))
        H = rng.normal(0.0, 1.0, size=(batch, d_h))
        w = rng.normal(0.0, 0.8, size=(classes, d_h))
        b = rng.normal(0.0, 0.3, size=classes)
        y = rng.integers(0, classes, size=batch)
        # the head alone: a model with no feature layer
        tape = Tape()
        staged = stage_params(tape, ModelParams([d_h], classes, [], w, b))
        h, y_mat = tape.constant(H), tape.constant(one_hot(y, classes))
        _, z = forward(tape, staged, h)
        grads = backward(tape, cross_entropy(tape, z, y_mat))
        auto = np.concatenate([grads[nid].ravel() for nid in staged.all_ids()])
        closed = tape.value(head_grad(tape, h, y_mat, w, b))
        errs = np.abs(closed - auto)
        errs[np.isnan(errs)] = np.inf  # NaN compares false with every bound
        worst = max(worst, float(errs.max()))
    return worst
