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

    ``feeds(X, y, classes, batch=None, rng=None)`` returns the per-step
    leaf values of the rows ``X`` and labels ``y``, which are consecutive
    batches of ``batch`` rows (``None``: one batch), and draws any
    augmentation randomness from ``rng``, the client's augmentation stream,
    as one call per batch would. Every value it returns is per row, with
    the row axis first, so a batch's values are a row slice of the values
    of its epoch; ``local_train`` calls it once per client and epoch.
    ``record(tape, staged, *leaves)`` records the loss on one batch's
    values, staged as leaves in the same order, and returns the loss node
    and the node of each reported stat, "total" among them. Everything else
    it records may depend only on the leaves' shapes and on the loss's own
    settings, which every client of one ``local_train`` call shares: one
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


def _stacked(lanes: list[list[np.ndarray]]) -> np.ndarray:
    """One step argument from each of its leaves' k client values: (k, *shape)
    for one leaf, and a group's lanes stacked on axis 1, (k, S, *shape).
    np.stack keeps each value's memory order in its slice (a transposed
    snapshot head stays transposed), and BLAS rounds by it."""
    per_leaf = [np.stack(values, dtype=np.float64) for values in lanes]
    return per_leaf[0] if len(per_leaf) == 1 else np.stack(per_leaf, axis=1)


class _Recorded:
    """Client 0's recording of one feed shape, compiled into one step for k clients.

    The recording gives the step its structure and its recorded constants
    (the snapshot heads), which every client shares and which are stacked k
    times once. The call's (k, *shape) ``params``, which training moves in
    place, are bound once; ``run`` feeds the ``fed`` leaves of one batch,
    and ``check`` holds a run's slice 0 against ``backward`` on the recording.
    """

    def __init__(self, tape: Tape, params: list[np.ndarray], fed: list[int], loss: int, stat_nodes: dict[str, int]):
        self.tape, self.loss, self.stat_nodes = tape, loss, stat_nodes
        k = len(params[0])
        self.step = compile_step(tape, k, loss, list(stat_nodes.values()), [*tape.params, *fed])
        # each fed argument's slot, the positions of its leaves among the fed
        # leaves, and the index of its leading axes: the clients' and any lanes'
        self.feeds = [
            (slot, tuple(map(fed.index, ids)), (slice(None),) * (1 + (len(ids) > 1)))
            for slot, ids in enumerate(self.step.leaves) if ids[0] in fed
        ]
        given = dict(zip(tape.params, params)) | dict.fromkeys(fed)  # fed slots: filled by run
        self.args = [
            given[ids[0]] if ids[0] in given else _stacked([[tape.vals[nid]] * k for nid in ids])
            for ids in self.step.leaves
        ]

    def run(self, per_client: list, rows: slice, stacks: dict):
        """The compiled step on ``rows`` of each client's epoch values of the
        fed leaves, ``per_client``. ``stacks`` holds the epoch's stack of each
        fed argument by its leaves' positions, stacked by the first run on it.
        """
        # batch feeds are C-ordered copies of their rows, as BLAS rounding depends on memory order
        for slot, pos, lead in self.feeds:
            if pos not in stacks:
                stacks[pos] = _stacked([[feeds[q] for feeds in per_client] for q in pos])
            self.args[slot] = np.ascontiguousarray(stacks[pos][(*lead, rows)])
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
    step_loss: StepLoss,
    hp: HyperParams,
    round_t: int,
) -> list[ClientUpdate]:
    """Mini-batch SGD with momentum and decoupled L2 decay, for k clients in lockstep.

    Every client starts from ``initial`` and trains on its own dataset with
    ``step_loss``; the datasets must have equal sizes and widths, so the
    clients' batches line up. Both of a client's random streams are derived
    here from the seed and its domain id: its batch order, keyed by the
    epoch, and its augmentation stream, keyed by the round. At the start of
    every epoch each client's rows are gathered once, in the epoch's batch
    order, and ``step_loss.feeds`` runs once on them with the client's
    augmentation stream, so augmentation draws and the label-range check
    cover the whole epoch before its first step. Each argument of the step
    the feeds give (the batch and its view are one) is stacked from the
    clients' epoch feeds once per epoch, and a batch takes a row slice of
    it. The first batch of each feed shape records ``step_loss`` once, on
    client 0's parameters and feeds, which gives the step its structure and
    the recorded constants all clients share, and compiles that tape into
    one step for all k clients, their parameters bound to it once; every
    batch of that shape, the first included, runs all clients at once
    through it, which gives every client the bytes of its own eager step.
    On that first batch ``backward`` differentiates the tape and an
    OracleError is raised unless the compiled slice 0 matches it bit for
    bit. The stats are averaged over the steps. Momentum buffers start at
    zero every round because the client restarts from the broadcast global
    model.

    A client's failure (a bad label, a non-finite loss) is its own, as the
    clients' slices are independent: each client's first failure is recorded,
    a client whose feeds failed runs on client 0's feeds with its result
    thrown away, and the lowest-index failing client's first failure is raised
    after the last step (client 0's at once), which is the error training the
    clients one at a time, in list order, raises. An OracleError is an engine
    fault and is raised as it is. Since a client's feeds are built before its
    epoch's first step, a bad label anywhere in the epoch raises UsageError
    before a non-finite loss on an earlier batch of that epoch could raise
    DivergenceError.
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
    k = len(datasets)
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
    aug_rngs = [streams.substream(hp.seed, streams.AUG, ds.domain_id, round_t) for ds in datasets]
    records: dict[tuple, _Recorded] = {}  # by feed shapes
    failed: dict[int, UsageError | DivergenceError] = {}  # each failing client's first failure
    sums = None
    steps = 0
    n = datasets[0].N
    epoch_base = (round_t - 1) * hp.local_epochs
    for e in range(hp.local_epochs):
        per_client = []
        for i, (ds, aug_rng) in enumerate(zip(datasets, aug_rngs)):
            # the epoch's rows in batch order: its permutation, as one batch of all rows
            X, y = next(batch_iter(ds, n, batch_seed, epoch_base + e))
            try:
                per_client.append(step_loss.feeds(X, y, initial.classes, hp.batch, aug_rng))
            except UsageError as err:
                if i == 0:
                    raise
                failed.setdefault(i, err)
                per_client.append(per_client[0])
        stacks = {}  # the epoch's stack of each fed argument, filled by the first batch
        for start in range(0, n, hp.batch):
            rows = slice(start, start + hp.batch)
            shapes = tuple(f[rows].shape for f in per_client[0])
            rec = records.get(shapes)
            fresh = rec is None
            if fresh:  # client 0's recording gives the step its structure and recorded constants
                tape = Tape()
                staged = stage_params(tape, clients[0])
                feeds = [tape.constant(np.ascontiguousarray(f[rows], dtype=np.float64)) for f in per_client[0]]
                loss, stat_nodes = step_loss.record(tape, staged, *feeds)
                rec = records[shapes] = _Recorded(tape, stacked, feeds, loss, stat_nodes)
            outs, grads = rec.run(per_client, rows, stacks)
            total = outs[list(rec.stat_nodes).index("total")]
            if not np.isfinite(total).all():
                for i in np.flatnonzero(~np.isfinite(total)):
                    bad = DivergenceError(f"non-finite loss {float(total[i])} at round {round_t}, step {steps}")
                    failed.setdefault(int(i), bad)
                if 0 in failed:
                    raise failed[0]
            if fresh:
                rec.check(outs, grads)
            _sgd_step(flat, np.concatenate([g.reshape(k, -1) for g in grads], axis=1), velocity, lr, hp)
            if sums is None:
                sums = [np.zeros(k) for _ in outs]
            for acc, out in zip(sums, outs):
                acc += out
            steps += 1
    if failed:
        raise failed[min(failed)]
    return [
        ClientUpdate(ds.domain_id, clients[i], ds.N, {m: float(acc[i] / steps) for m, acc in zip(rec.stat_nodes, sums)})
        for i, ds in enumerate(datasets)
    ]


def _matching_loss(snapshots: list[HeadSnapshot], hp: HyperParams, aug: AugmentationSpec) -> StepLoss:
    """A source client's step loss: local_loss on a batch and its ``aug`` view,
    matched against ``snapshots`` (none: no inter-domain term)."""

    def feeds(X, y, classes, batch=None, rng=None):
        return X, augment(X, aug, rng, batch), one_hot(y, classes)

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
plain_ce_loss = StepLoss(lambda X, y, classes, batch=None, rng=None: (X, one_hot(y, classes)), _plain_ce_record)


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
    return _train_plain_ce(global_params, pseudo, hp, round_t), coverage, precision


def _train_plain_ce(global_params: ModelParams, pseudo: DomainDataset, hp: HyperParams, round_t: int) -> ClientUpdate:
    """The target's fine-tune: plain cross-entropy on its pseudo-labeled rows, from the global model."""
    (update,) = local_train(global_params, [pseudo], plain_ce_loss, hp, round_t)
    return update


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
        # n_per_domain rows. Round 1 has no heads, so no inter-domain term.
        step_loss = _matching_loss(heads, hp, config.augmentation)
        updates = local_train(global_params, [train_sets[did] for did in source_ids], step_loss, hp, t)
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
