"""Decentralized training protocol: local steps, aggregation, evaluation.

One round has four stages: every source client trains from the broadcast
global model (gradient matching against last round's head snapshots), the
updated local models travel to the server, the server takes the
sample-count-weighted parameter mean, and the new global model plus the
fresh local heads are broadcast for the next round.

The adaptation variant is the same round with one more client: an unlabeled
target that pseudo-labels its pool by a confidence-thresholded vote of the
current source models, fine-tunes the broadcast global model on the accepted
subset with plain cross-entropy, and joins aggregation weighted by the
number of accepted samples.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import rng as streams
from .autodiff import Tape, backward
from .config import Config, HyperParams
from .data import (
    AugmentationSpec,
    DomainDataset,
    augment,
    batch_iter,
    gen_rotated_domains,
    gen_textured_domains,
    train_test_split,
)
from .errors import ContractError, DivergenceError, UsageError
from .model import (
    HeadSnapshot,
    ModelParams,
    ParamNodes,
    flatten,
    forward,
    init_params,
    predict_logits,
    predict_proba,
    stage_params,
    unflatten,
)
from .objective import cross_entropy, local_loss, one_hot

log = logging.getLogger(__name__)

TRAIN_METRICS = ("ce_orig", "ce_aug", "intra", "inter", "total")


class StepLoss(NamedTuple):
    """A client's loss on one batch, in two parts so a recorded step can be replayed.

    ``feeds(X, y, classes)`` returns the batch's per-step leaf values and
    draws any augmentation randomness; it runs for every batch.
    ``record(tape, staged, *leaves)`` records the loss on those values,
    staged as leaves in the same order, and returns the loss node and the
    node of each reported stat, "total" among them. Everything else it
    records may depend only on the leaves' shapes and the step loss's own
    settings, because later batches of the same shapes replay the record.
    """

    feeds: Callable[[np.ndarray, np.ndarray, int], tuple[np.ndarray, ...]]
    record: Callable[..., tuple[int, dict[str, int]]]


@dataclass
class ClientUpdate:
    """One client's reply: its trained model and how many samples backed it."""

    domain_id: int
    params: ModelParams
    n_samples: int
    train_stats: dict[str, float] | None = None


@dataclass
class PseudoLabeledSet:
    """Accepted target samples with voted labels and vote confidences."""

    indices: np.ndarray
    labels: np.ndarray
    confidences: np.ndarray

    @property
    def n_accepted(self) -> int:
        return int(self.indices.size)


@dataclass
class MetricsTable:
    """Long-format metrics rows plus the models the run ended with."""

    rows: list[tuple[int, str, int, str, float]] = field(default_factory=list)
    final_model: ModelParams | None = None
    final_target_model: ModelParams | None = None

    def add(self, round_t: int, phase: str, domain_id: int, metric: str, value: float) -> None:
        self.rows.append((round_t, phase, domain_id, metric, float(value)))

    def values(self, phase: str, metric: str, domain_id: int | None = None) -> list[tuple[int, float]]:
        return [
            (r, v)
            for r, p, d, m, v in self.rows
            if p == phase and m == metric and (domain_id is None or d == domain_id)
        ]

    def final_value(self, phase: str, metric: str, domain_id: int | None = None) -> float:
        hits = self.values(phase, metric, domain_id)
        if not hits:
            raise KeyError(f"no rows for phase={phase} metric={metric} domain={domain_id}")
        return hits[-1][1]

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("round,phase,domain_id,metric,value\n")
            for r, p, d, m, v in self.rows:
                fh.write(f"{r},{p},{d},{m},{v!r}\n")


def cosine_lr(round_t: int, hp: HyperParams) -> float:
    """Cosine interpolation from lr0 (round 1) down to lr1 (round E)."""
    if hp.rounds == 1:
        return hp.lr0
    frac = (round_t - 1) / (hp.rounds - 1)
    return hp.lr1 + 0.5 * (hp.lr0 - hp.lr1) * (1.0 + math.cos(math.pi * frac))


def _sgd_step(params, staged, grads, velocity, lr, hp):
    slots = list(zip(staged.all_ids(), _param_arrays(params)))
    for node_id, arr in slots:
        g = grads[node_id]
        v = velocity[node_id]
        v *= hp.momentum
        v += g
        arr -= lr * v + lr * hp.weight_decay * arr


def _param_arrays(params: ModelParams):
    for w, b in params.feature:
        yield w
        yield b
    yield params.head_w
    yield params.head_b


def local_train(
    initial: ModelParams,
    dataset: DomainDataset,
    heads: list[HeadSnapshot],
    hp: HyperParams,
    round_t: int,
    aug: AugmentationSpec,
    step_loss: StepLoss | None = None,
) -> ClientUpdate:
    """Mini-batch SGD with momentum and decoupled L2 decay.

    The first batch of each shape records ``step_loss`` on a tape; later
    batches of that shape rebind the tape's per-step leaves (the step
    loss's feeds and the parameters) and replay it, which gives the same
    bytes as recording again. The stats are averaged over the steps. The
    default step loss is the gradient-matched source objective on the batch
    and its ``aug`` view against ``heads``, which only it reads. Round 1 has
    no previous heads, so the inter term is skipped there regardless of what
    was passed. Momentum buffers start at zero every round because the
    client restarts from the broadcast global model.
    """
    if round_t < 1:
        raise UsageError(f"round must be >= 1, got {round_t}")
    if step_loss is None:
        aug_rng = streams.substream(hp.seed, streams.AUG, dataset.domain_id, round_t)
        step_loss = _matching_loss([] if round_t == 1 else list(heads), hp, aug, aug_rng)
    params = initial.copy()
    lr = cosine_lr(round_t, hp)
    batch_seed = streams.subseed(hp.seed, streams.CLIENT)
    velocity: dict[int, np.ndarray] = {}
    # feed shapes -> (tape, staged params, feed leaves, loss node, stat nodes)
    records: dict[tuple, tuple] = {}
    sums: dict[str, float] = {}
    steps = 0
    epoch_base = (round_t - 1) * hp.local_epochs
    for e in range(hp.local_epochs):
        for X, y in batch_iter(dataset, hp.batch, batch_seed, epoch_base + e):
            values = step_loss.feeds(X, y, params.classes)
            shapes = tuple(v.shape for v in values)
            if shapes in records:
                tape, staged, leaves, loss, stat_nodes = records[shapes]
                feeds = dict(zip(staged.all_ids(), _param_arrays(params)))
                feeds.update(zip(leaves, values))
                tape.replay(feeds)
            else:
                tape = Tape()
                staged = stage_params(tape, params)
                leaves = [tape.constant(v) for v in values]
                loss, stat_nodes = step_loss.record(tape, staged, *leaves)
                records[shapes] = (tape, staged, leaves, loss, stat_nodes)
            if not velocity:
                velocity = {nid: np.zeros_like(tape.value(nid)) for nid in staged.all_ids()}
            stats = {k: float(tape.value(nid)) for k, nid in stat_nodes.items()}
            if not math.isfinite(stats["total"]):
                raise DivergenceError(
                    f"non-finite loss {stats['total']} at round {round_t}, step {steps}"
                )
            grads = backward(tape, loss)
            _sgd_step(params, staged, grads, velocity, lr, hp)
            for k, v in stats.items():
                sums[k] = sums.get(k, 0.0) + v
            steps += 1
    if steps == 0:
        raise UsageError(f"no training steps: {hp.local_epochs} epochs over {dataset.N} rows")
    stats = {k: v / steps for k, v in sums.items()}
    return ClientUpdate(dataset.domain_id, params, dataset.N, stats)


def _matching_loss(snapshots, hp: HyperParams, aug: AugmentationSpec, aug_rng) -> StepLoss:
    """A source client's step loss: local_loss on a batch and its augmented view."""

    def feeds(X, y, classes):
        return X, augment(X, aug, aug_rng), one_hot(y, classes)

    def record(tape, staged, x, x_aug, y_mat):
        loss, bd = local_loss(
            tape,
            staged,
            snapshots,
            x,
            x_aug,
            y_mat,
            hp.lam,
            inter_normalize=hp.inter_normalize,
            gm_enabled=hp.gm_enabled,
        )
        zero = tape.constant(0.0)  # what a skipped term reads
        return loss, {m: bd.nodes.get(m, zero) for m in TRAIN_METRICS}

    return StepLoss(feeds, record)


def _plain_ce_record(tape: Tape, staged: ParamNodes, x: int, y_mat: int) -> tuple[int, dict[str, int]]:
    _, z = forward(tape, staged, x)
    loss = cross_entropy(tape, z, y_mat)
    return loss, {"ce_orig": loss, "total": loss}


# The target client's step loss: cross-entropy on the un-augmented batch.
plain_ce_loss = StepLoss(lambda X, y, classes: (X, one_hot(y, classes)), _plain_ce_record)


def aggregate(updates: list[ClientUpdate]) -> ModelParams:
    """Sample-count-weighted mean of the client parameters."""
    if not updates:
        raise UsageError("aggregate needs at least one client update")
    arch = updates[0].params.arch
    classes = updates[0].params.classes
    for u in updates:
        if u.params.arch != arch or u.params.classes != classes:
            raise ContractError(
                f"client {u.domain_id} arch {u.params.arch}/{u.params.classes} "
                f"does not match {arch}/{classes}"
            )
        if u.n_samples <= 0:
            raise ContractError(f"client {u.domain_id} reports n_samples={u.n_samples}")
    total = float(sum(u.n_samples for u in updates))
    flat = np.zeros_like(flatten(updates[0].params))
    for u in updates:
        flat += (u.n_samples / total) * flatten(u.params)
    return unflatten(arch, classes, flat)


def evaluate(params: ModelParams, dataset: DomainDataset) -> float:
    """Fraction of argmax predictions matching labels (ties: lowest class)."""
    pred = np.argmax(predict_logits(params, dataset.X), axis=1)
    return float(np.mean(pred == dataset.y))


def knowledge_vote(
    source_models: list[ModelParams],
    X_T: np.ndarray,
    tau: float,
    min_votes: int,
) -> PseudoLabeledSet:
    """Confidence-thresholded consensus labels from the source models.

    A model votes for its argmax class when its max softmax probability is
    at least tau. A sample is accepted when one class collects min_votes or
    more votes and strictly outvotes every other class; its confidence is
    the mean max-probability of the models that backed the winning class.
    """
    if not source_models:
        raise UsageError("knowledge_vote needs at least one source model")
    if not 0.0 < tau <= 1.0:
        raise UsageError(f"tau must lie in (0, 1], got {tau}")
    probs = [predict_proba(m, X_T) for m in source_models]
    maxp = np.stack([p.max(axis=1) for p in probs])        # (models, N)
    argm = np.stack([p.argmax(axis=1) for p in probs])     # (models, N)
    voting = maxp >= tau
    classes = source_models[0].classes
    rows = np.arange(X_T.shape[0])
    # (N, classes) votes per class: a masked one-hot sum over the models
    counts = ((argm[:, :, None] == np.arange(classes)) & voting[:, :, None]).sum(axis=0)
    winner = counts.argmax(axis=1)  # ties go to the lowest class
    top = counts[rows, winner]
    counts[rows, winner] = 0
    accepted = (top >= min_votes) & (top > counts.max(axis=1))
    # an accepted sample has at least one backer; the sum runs in model
    # order, as the mean over the sample's backers adds them
    backers = (voting & (argm == winner))[:, accepted]
    confidence = np.where(backers, maxp[:, accepted], 0.0).sum(axis=0) / backers.sum(axis=0)
    return PseudoLabeledSet(rows[accepted], winner[accepted], confidence)


def build_domains(config: Config) -> list[DomainDataset]:
    """Instantiate the configured generator with the run's data substream."""
    data_seed = streams.subseed(config.hp.seed, streams.DATA)
    spec = config.data
    if spec.kind == "rotated_moons":
        return gen_rotated_domains(
            len(spec.angles), spec.angles, spec.n_per_domain, spec.noise_sigma, data_seed, spec.classes
        )
    if spec.kind == "textured":
        return gen_textured_domains(spec.n_domains, spec.side, spec.n_per_domain, data_seed, spec.classes)
    raise UsageError(f"unknown data kind '{spec.kind}'")


def _check_batches(train_sets: dict[int, DomainDataset], batch: int, aug: AugmentationSpec) -> None:
    """amplitude_mix pairs rows within a batch, so no source batch may hold one row."""
    if aug.kind != "amplitude_mix":
        return
    for did, ds in train_sets.items():
        if batch == 1 or ds.N % batch == 1:
            raise UsageError(
                f"amplitude_mix needs batches of at least 2 rows, but batch {batch} leaves a "
                f"1-row batch in the {ds.N} training rows of domain {did}"
            )


def _adapt_target(
    round_t: int,
    global_params: ModelParams,
    updates: list[ClientUpdate],
    pool: DomainDataset,
    hp: HyperParams,
):
    """Vote pseudo-labels on the target pool and fine-tune on the accepted rows.

    Returns the target's update (None when the vote accepts nothing), the
    vote's coverage and its precision; the pool's ground truth is used only
    to score that precision.
    """
    voted = knowledge_vote([u.params for u in updates], pool.X, hp.tau, hp.min_votes)
    coverage = voted.n_accepted / pool.N
    if voted.n_accepted == 0:
        log.info("round %d: no pseudo-labels above tau=%.2f, target client skipped", round_t, hp.tau)
        return None, coverage, float("nan")
    precision = float(np.mean(pool.y[voted.indices] == voted.labels))
    pseudo = DomainDataset(pool.domain_id, pool.X[voted.indices].copy(), voted.labels.copy())
    update = local_train(
        global_params, pseudo, [], hp, round_t, AugmentationSpec.identity(), plain_ce_loss
    )
    return update, coverage, precision


def run_dg(config: Config) -> MetricsTable:
    """Leave-one-domain-out federated training; returns per-round metrics.

    Per round: sources train from the broadcast global model with last
    round's local heads, the server aggregates, and the new global model is
    scored on every source test split and on the held-out domain's test
    split.
    """
    return _run_rounds(config, adapt=False)


def run_da(config: Config) -> MetricsTable:
    """Adaptation variant: the held-out index names an unlabeled target.

    Sources train exactly as in run_dg. The target client re-votes pseudo-
    labels from the current source local models each round, fine-tunes the
    broadcast global model on the accepted subset, and enters aggregation
    weighted by the accepted count. Target ground truth is used only to
    score pseudo-label precision and accuracies.
    """
    return _run_rounds(config, adapt=True)


def _run_rounds(config: Config, adapt: bool) -> MetricsTable:
    """The round loop of run_dg, plus the target client when ``adapt``."""
    config.validate()
    hp = config.hp
    held_out = config.held_out
    domains = build_domains(config)
    source_ids = [d.domain_id for d in domains if d.domain_id != held_out]
    if not source_ids:
        raise UsageError("no source domains left after holding one out")
    split_seed = streams.subseed(hp.seed, streams.SPLIT)
    splits = {d.domain_id: train_test_split(d, split_seed) for d in domains}
    train_sets = {did: splits[did][0] for did in source_ids}
    _check_batches(train_sets, hp.batch, config.augmentation)
    target_pool, test = splits[held_out]
    global_params = init_params(config.arch, config.data.classes, streams.subseed(hp.seed, streams.INIT))
    heads: list[HeadSnapshot] = []
    table = MetricsTable()
    for t in range(1, hp.rounds + 1):
        # sources are independent until aggregation, so running them in
        # ascending domain order is exact
        updates = [
            local_train(global_params, train_sets[did], heads, hp, t, config.augmentation)
            for did in source_ids
        ]
        target = None
        if adapt:
            target, coverage, precision = _adapt_target(t, global_params, updates, target_pool, hp)
        global_params = aggregate(updates if target is None else updates + [target])
        heads = [
            HeadSnapshot(u.domain_id, u.params.head_w.copy(), u.params.head_b.copy(), t)
            for u in updates
        ]
        for u in updates:
            for metric in TRAIN_METRICS:
                table.add(t, "train", u.domain_id, metric, u.train_stats[metric])
        for did in source_ids:
            table.add(t, "eval_source", did, "accuracy", evaluate(global_params, splits[did][1]))
        if adapt:
            table.add(t, "pseudo", held_out, "pl_coverage", coverage)
            table.add(t, "pseudo", held_out, "pl_precision", precision)
        table.add(t, "eval_unseen", held_out, "accuracy", evaluate(global_params, test))
        if adapt:
            if target is not None:
                table.final_target_model = target.params
            deployed = global_params if target is None else target.params
            table.add(t, "eval_target", held_out, "accuracy", evaluate(deployed, test))
    table.final_model = global_params
    return table
