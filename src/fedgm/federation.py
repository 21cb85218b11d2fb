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

import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import rng as streams
from .autodiff import Tape, backward, compile_step
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
from .errors import ContractError, DivergenceError, OracleError, UsageError
from .files import write_atomic
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
from .objective import TRAIN_METRICS, cross_entropy, local_loss, one_hot

log = logging.getLogger(__name__)


class StepLoss(NamedTuple):
    """A client's loss on one batch, in two parts so a recorded step can be compiled.

    ``feeds(X, y, classes, batch=None)`` returns the per-step leaf values
    of the rows ``X`` and labels ``y``, which are consecutive batches of
    ``batch`` rows (``None``: one batch), and draws any augmentation
    randomness as one call per batch would. Every value it returns is per
    row, with the row axis first, so a batch's values are a row slice of
    the values of its epoch; ``local_train`` calls it once per client and
    epoch. ``record(tape, staged, *leaves)`` records the loss on one
    batch's values, staged as leaves in the same order, and returns the
    loss node and the node of each reported stat, "total" among them.
    Everything else it records may depend only on the leaves' shapes and on
    settings that all clients of one ``local_train`` call share: one
    recording, client 0's, runs compiled for every client and every batch
    of those shapes.
    """

    feeds: Callable[..., tuple[np.ndarray, ...]]
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
        lines = (f"{r},{p},{d},{m},{v!r}\n" for r, p, d, m, v in self.rows)
        write_atomic(path, itertools.chain(["round,phase,domain_id,metric,value\n"], lines))


def cosine_lr(round_t: int, hp: HyperParams) -> float:
    """Cosine interpolation from lr0 (round 1) down to lr1 (round E)."""
    if hp.rounds == 1:
        return hp.lr0
    frac = (round_t - 1) / (hp.rounds - 1)
    return hp.lr1 + 0.5 * (hp.lr0 - hp.lr1) * (1.0 + math.cos(math.pi * frac))


def _sgd_step(flat, grad, velocity, lr, hp):
    """Momentum SGD with decoupled decay, in place and elementwise on the (k, P)
    parameter buffer, so every parameter of every client updates as one."""
    velocity *= hp.momentum
    velocity += grad
    flat -= lr * velocity + lr * hp.weight_decay * flat


def _stacked(tape: Tape, k: int, ids: tuple[int, ...]) -> np.ndarray:
    """Leaf values stacked k times for the clients, and the lanes of a group on axis 1."""
    per_leaf = [np.stack([tape.vals[nid]] * k) for nid in ids]
    return per_leaf[0] if len(ids) == 1 else np.stack(per_leaf, axis=1)


class _Recorded:
    """Client 0's recording of one feed shape, compiled into one step for k clients.

    The recording gives the step its structure and its recorded constants
    (the snapshot heads), which every client of the call shares and which
    are stacked k times once; ``run`` calls the compiled step with the
    stacked parameter and feed values it is given, in ``fed`` order, and
    stacks the feeds of a group of lanes (the batch and its augmented view)
    on axis 1 into their one argument; ``check`` holds a run's slice 0
    against ``backward`` on the recording.
    """

    def __init__(self, tape: Tape, k: int, fed: list[int], loss: int, stat_nodes: dict[str, int]):
        self.tape, self.loss, self.stat_nodes = tape, loss, stat_nodes
        self.step = compile_step(tape, k, loss, list(stat_nodes.values()), fed)
        # each fed argument's slot, and the positions of its leaves among the fed values
        self.feeds = [
            (slot, [fed.index(nid) for nid in ids]) for slot, ids in enumerate(self.step.leaves) if ids[0] in fed
        ]
        # np.stack keeps each copy's memory order in its slice (a transposed
        # snapshot head stays transposed), and BLAS rounds by it; a group of
        # lanes stacks its leaves once more, on axis 1
        self.args = [None if ids[0] in fed else _stacked(tape, k, ids) for ids in self.step.leaves]

    def run(self, values):
        for slot, pos in self.feeds:
            self.args[slot] = values[pos[0]] if len(pos) == 1 else np.stack([values[q] for q in pos], axis=1)
        return self.step(*self.args)

    def check(self, outs, grads) -> None:
        """Raise OracleError unless slice 0 of the run that gave ``outs`` and
        ``grads`` holds the bytes of client 0's recording and its ``backward``.

        The run must be on the recorded values, before any update moves the
        parameters the recording holds.
        """
        by_id = backward(self.tape, self.loss)
        eager = [(f"stat {m}", self.tape.value(nid)) for m, nid in self.stat_nodes.items()]
        eager += [(f"gradient of leaf {nid}", by_id[nid]) for nid in self.tape.params]
        for (what, want), got in zip(eager, [*outs, *grads]):
            got = np.asarray(got[0])
            if got.shape != want.shape or got.tobytes() != want.tobytes():
                raise OracleError(f"compiled step: client 0's {what} differs from the eager step's")


def local_train(
    initial: ModelParams,
    datasets: list[DomainDataset],
    heads: list[HeadSnapshot],
    hp: HyperParams,
    round_t: int,
    aug: AugmentationSpec,
    step_loss: StepLoss | None = None,
) -> list[ClientUpdate]:
    """Mini-batch SGD with momentum and decoupled L2 decay, for k clients in lockstep.

    Every client starts from ``initial`` and trains on its own dataset; the
    datasets must have equal sizes and widths, so the clients' batches line
    up. At the start of every epoch each client's rows are gathered once, in
    the epoch's batch order, and ``step_loss.feeds`` runs once on them, so
    augmentation draws and the label-range check cover the whole epoch
    before its first step; every batch's feeds are a row slice of the
    clients' stacked epoch feeds. The first batch of each feed shape records
    ``step_loss`` once, on client 0's parameters and feeds, which gives the
    step its structure and the recorded constants all clients share, and
    compiles that tape into one step for all k clients; every batch of that
    shape, the first included,
    runs all clients at once through it on the stacked feeds and parameters,
    which gives every client the bytes of its own eager step. On that first
    batch ``backward`` differentiates the tape and an OracleError is raised
    unless the compiled slice 0 matches it bit for bit. The stats are
    averaged over the steps. The default step loss is the gradient-matched
    source objective on the batch and its ``aug`` view against ``heads``,
    which only it reads, with each client's own augmentation stream; an
    explicit ``step_loss`` serves every client.
    Round 1 has no previous heads, so the inter term is skipped there
    regardless of what was passed. Momentum buffers start at zero every
    round because the client restarts from the broadcast global model.

    A client's failure (a non-finite loss, a bad label) is raised as
    training the clients one at a time, in list order, would raise it; an
    OracleError is an engine fault and is raised as it is. Since a client's
    feeds are built before its epoch's first step, a bad label anywhere in
    the epoch raises UsageError before a non-finite loss on an earlier batch
    of that epoch could raise DivergenceError.
    """
    if round_t < 1:
        raise UsageError(f"round must be >= 1, got {round_t}")
    if not datasets:
        raise UsageError("local_train needs at least one client dataset")
    if len({ds.X.shape for ds in datasets}) > 1:
        dims = ", ".join(f"domain {ds.domain_id}: {ds.X.shape}" for ds in datasets)
        raise ContractError(f"lockstep clients need datasets of one size and width, got {dims}")
    if hp.batch < 1:
        raise UsageError(f"batch size must be >= 1, got {hp.batch}")
    if hp.local_epochs < 1 or datasets[0].N == 0:
        raise UsageError(f"no training steps: {hp.local_epochs} epochs over {datasets[0].N} rows")
    try:
        return _train_lockstep(initial, datasets, heads, hp, round_t, aug, step_loss)
    except (DivergenceError, UsageError):
        if len(datasets) == 1:
            raise
    # one client at a time, so the error is the first client's first one
    return [u for ds in datasets for u in _train_lockstep(initial, [ds], heads, hp, round_t, aug, step_loss)]


def _train_lockstep(initial, datasets, heads, hp, round_t, aug, step_loss) -> list[ClientUpdate]:
    """``local_train``'s loop; every array carries a leading client axis."""
    k = len(datasets)
    if step_loss is None:
        snapshots = [] if round_t == 1 else list(heads)
        losses = [
            _matching_loss(snapshots, hp, aug, streams.substream(hp.seed, streams.AUG, ds.domain_id, round_t))
            for ds in datasets
        ]
    else:
        losses = [step_loss] * k
    # one (k, P) buffer of every client's flat parameters; stacked holds a
    # (k, *shape) view of it per parameter, in the order of staged.all_ids(),
    # as the compiled step takes them, and client i's model is views of row i
    flat = np.stack([flatten(initial)] * k)
    ends = np.cumsum([arr.size for arr in initial.arrays()])
    stacked = [
        flat[:, end - arr.size : end].reshape(k, *arr.shape) for arr, end in zip(initial.arrays(), ends)
    ]
    clients = [
        ModelParams.from_arrays(initial.arch, initial.classes, [arr[i] for arr in stacked]) for i in range(k)
    ]
    velocity = np.zeros_like(flat)
    lr = cosine_lr(round_t, hp)
    batch_seed = streams.subseed(hp.seed, streams.CLIENT)
    records: dict[tuple, _Recorded] = {}  # by feed shapes
    sums = None
    steps = 0
    n = datasets[0].N
    epoch_base = (round_t - 1) * hp.local_epochs
    for e in range(hp.local_epochs):
        per_client = []
        for loss_i, ds in zip(losses, datasets):
            # the epoch's rows in batch order: its permutation, as one batch of all rows
            X, y = next(batch_iter(ds, n, batch_seed, epoch_base + e))
            per_client.append(loss_i.feeds(X, y, initial.classes, hp.batch))
        fed = [np.stack(col, dtype=np.float64) for col in zip(*per_client)]
        for start in range(0, n, hp.batch):
            # C-ordered copies, as BLAS rounding depends on memory order
            values = [np.ascontiguousarray(f[:, start : start + hp.batch]) for f in fed]
            shapes = tuple(v.shape[1:] for v in values)
            rec = records.get(shapes)
            fresh = rec is None
            if fresh:  # client 0's recording gives the step its structure and recorded constants
                tape = Tape()
                staged = stage_params(tape, clients[0])
                feeds = [tape.constant(v[0]) for v in values]
                loss, stat_nodes = losses[0].record(tape, staged, *feeds)
                rec = records[shapes] = _Recorded(tape, k, staged.all_ids() + feeds, loss, stat_nodes)
            outs, grads = rec.run([*stacked, *values])
            total = outs[list(rec.stat_nodes).index("total")]
            if not np.isfinite(total).all():
                bad = float(total[np.argmin(np.isfinite(total))])
                raise DivergenceError(f"non-finite loss {bad} at round {round_t}, step {steps}")
            if fresh:
                rec.check(outs, grads)
            _sgd_step(flat, np.concatenate([g.reshape(k, -1) for g in grads], axis=1), velocity, lr, hp)
            if sums is None:
                sums = [np.zeros(k) for _ in outs]
            for acc, out in zip(sums, outs):
                acc += out
            steps += 1
    return [
        ClientUpdate(ds.domain_id, clients[i], ds.N, {m: float(acc[i] / steps) for m, acc in zip(rec.stat_nodes, sums)})
        for i, ds in enumerate(datasets)
    ]


def _matching_loss(snapshots, hp: HyperParams, aug: AugmentationSpec, aug_rng) -> StepLoss:
    """A source client's step loss: local_loss on a batch and its augmented view."""

    def feeds(X, y, classes, batch=None):
        return X, augment(X, aug, aug_rng, batch), one_hot(y, classes)

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
        return loss, bd.nodes

    return StepLoss(feeds, record)


def _plain_ce_record(tape: Tape, staged: ParamNodes, x: int, y_mat: int) -> tuple[int, dict[str, int]]:
    _, z = forward(tape, staged, x)
    loss = cross_entropy(tape, z, y_mat)
    return loss, {"ce_orig": loss, "total": loss}


# The target client's step loss: cross-entropy on the un-augmented batch.
plain_ce_loss = StepLoss(lambda X, y, classes, batch=None: (X, one_hot(y, classes)), _plain_ce_record)


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
        return gen_rotated_domains(spec.angles, spec.n_per_domain, spec.noise_sigma, data_seed, spec.classes)
    if spec.kind == "textured":
        return gen_textured_domains(spec.n_domains, spec.side, spec.n_per_domain, data_seed, spec.classes)
    raise UsageError(f"unknown data kind '{spec.kind}'")


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
    (update,) = local_train(
        global_params, [pseudo], [], hp, round_t, AugmentationSpec.identity(), plain_ce_loss
    )
    return update, coverage, precision


def run_dg(config: Config) -> MetricsTable:
    """Leave-one-domain-out federated training; returns per-round metrics.

    Per round: sources train from the broadcast global model with last
    round's local heads, the server aggregates, and the new global model is
    scored on every source test split and on the held-out domain's test
    split. The config's mode must be "dg".
    """
    _require_mode(config, "dg")
    return _run_rounds(config)


def run_da(config: Config) -> MetricsTable:
    """Adaptation variant: the held-out index names an unlabeled target.

    Sources train exactly as in run_dg. The target client re-votes pseudo-
    labels from the current source local models each round, fine-tunes the
    broadcast global model on the accepted subset, and enters aggregation
    weighted by the accepted count. Target ground truth is used only to
    score pseudo-label precision and accuracies. The config's mode must be
    "da".
    """
    _require_mode(config, "da")
    return _run_rounds(config)


def _require_mode(config: Config, mode: str) -> None:
    if config.mode != mode:
        raise UsageError(f"run_{mode} needs a config of mode '{mode}', got '{config.mode}'")


def _run_rounds(config: Config) -> MetricsTable:
    """The round loop of run_dg, plus the target client in mode "da"."""
    config.validate()
    adapt = config.mode == "da"
    hp = config.hp
    held_out = config.held_out
    domains = build_domains(config)
    source_ids = [d.domain_id for d in domains if d.domain_id != held_out]
    split_seed = streams.subseed(hp.seed, streams.SPLIT)
    splits = {d.domain_id: train_test_split(d, split_seed) for d in domains}
    train_sets = {did: splits[did][0] for did in source_ids}
    target_pool, test = splits[held_out]
    global_params = init_params(config.arch, config.data.classes, streams.subseed(hp.seed, streams.INIT))
    heads: list[HeadSnapshot] = []
    table = MetricsTable()
    for t in range(1, hp.rounds + 1):
        # sources are independent until aggregation, so they train in
        # lockstep; their train splits are equal, as every domain has
        # n_per_domain rows
        updates = local_train(global_params, [train_sets[did] for did in source_ids], heads, hp, t, config.augmentation)
        target = None
        if adapt:
            target, coverage, precision = _adapt_target(t, global_params, updates, target_pool, hp)
        global_params = aggregate(updates if target is None else updates + [target])
        heads = [HeadSnapshot(u.domain_id, u.params.head_w.copy(), u.params.head_b.copy()) for u in updates]
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
