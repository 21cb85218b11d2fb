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

import functools
import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import rng as streams
from .autodiff import Tape, _remember, backward, compile_step, replay
from .config import Config, HyperParams
from .data import (
    AugmentationSpec,
    DomainDataset,
    augment,
    batch_iter,
    epoch_spectra,
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
    param_views,
    predict_logits,
    predict_proba,
    stage_heads,
    stage_params,
    unflatten,
)
from .objective import TRAIN_METRICS, averaged_ce, cross_entropy, local_loss, one_hot

log = logging.getLogger(__name__)


class StepLoss(NamedTuple):
    """A client's loss on one batch, as data: the augmentation of its view, its
    recorder, the recorder's settings and the frozen heads it matches against.

    ``feeds(X, y, classes, batch=None, rng=None, spectra=None)`` returns the
    per-step leaf values of the rows ``X`` and labels ``y``: ``X``, its
    ``augment`` view unless ``aug`` is None, and the one-hot labels. The rows
    are consecutive batches of ``batch`` rows (``None``: one batch); the view
    draws from ``rng``, the client's augmentation stream, as one call per
    batch would, and ``spectra``, if given, returns the ``row_spectra`` of
    ``X``'s rows on demand. Without ``aug`` neither is read. A batch's values
    are a row slice of its epoch's; ``local_train`` calls ``feeds`` once per
    client and epoch.
    ``record(tape, staged, heads, *leaves, **settings)`` records the loss on
    one batch's values, staged as leaves in the same order, matched against
    the staged ``heads`` (``stage_heads``), with ``settings`` as keywords, and
    returns the loss node and the node of each reported stat, "total" among
    them. Everything else it records may depend only on the leaves' shapes
    and on ``settings``: a recording is then fixed by the recorder, its
    settings and the shapes of its leaves, which every round's step loss of
    one run shares, so ``local_train`` records each such structure once,
    on client 0's values, and ``replay`` gives it the values of any later
    call. ``recording`` stages and records one batch.
    """

    aug: AugmentationSpec | None
    record: Callable[..., tuple[int, dict[str, int]]]
    settings: tuple[tuple[str, object], ...] = ()
    heads: tuple[HeadSnapshot, ...] = ()

    def feeds(self, X, y, classes, batch=None, rng=None, spectra=None) -> tuple[np.ndarray, ...]:
        views = () if self.aug is None else (augment(X, self.aug, rng, batch, spectra),)
        return (X, *views, one_hot(y, classes))

    def leaf_values(self, params: ModelParams, feeds) -> list[np.ndarray]:
        """The values ``recording`` stages, in its order: the parameters, the
        batch's ``feeds``, then each head's weight and bias."""
        return [*params.arrays(), *feeds, *(a for head in self.heads for a in (head.weight, head.bias))]

    def recording(self, params: ModelParams, *feeds) -> tuple[Tape, list[int], int, dict[str, int]]:
        """This loss recorded on a fresh tape: ``params`` staged as leaves, then
        one batch's ``feeds`` and the heads as constants. Returns the tape, its
        staged leaves (the ids of ``leaf_values``), the loss node and the stat nodes."""
        tape = Tape()
        staged = stage_params(tape, params)
        leaves = [tape.constant(v) for v in feeds]
        heads = stage_heads(tape, self.heads)
        loss, stat_nodes = self.record(tape, staged, heads, *leaves, **dict(self.settings))
        return tape, [*tape.params, *leaves, *(nid for head in heads for nid in head)], loss, stat_nodes


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
    for one leaf, and a group's lanes stacked on axis 1, (k, S, *shape)."""
    per_leaf = [np.stack(values, dtype=np.float64) for values in lanes]
    return per_leaf[0] if len(per_leaf) == 1 else np.stack(per_leaf, axis=1)


# local_train's recorded steps, by recorder, settings, k and leaf shapes: at most
# _STEP_CACHE_SIZE, the oldest dropped first
_RECORDED: dict[tuple, "_Recorded"] = {}


class _Recorded:
    """Client 0's recording of one step structure, compiled into one step for k clients.

    The tape gives the step its structure. Its ``leaves`` are the staged
    leaves (the parameters, one batch's feeds ``fed``, the snapshot heads),
    which a later call of the same structure gives its own client 0 values by
    ``replay``. Between calls the entry holds only those values, copied, and
    the heads: ``bind`` gives one call its arguments, ``run`` feeds the
    ``fed`` leaves of one batch into them, and ``check`` holds a run's slice 0
    against ``backward`` on the tape.
    """

    def __init__(self, tape: Tape, leaves: list[int], fed: list[int], loss: int, stat_nodes: dict[str, int], k: int):
        self.tape, self.leaves, self.fed, self.loss, self.stat_nodes = tape, leaves, fed, loss, stat_nodes
        self.step = compile_step(tape, k, loss, list(stat_nodes.values()), [*tape.params, *fed])
        # each fed argument's slot, the positions of its leaves among the fed
        # leaves, and the index of its leading axes: the clients' and any lanes'
        self.feeds = [
            (slot, tuple(map(fed.index, ids)), (slice(None),) * (1 + (len(ids) > 1)))
            for slot, ids in enumerate(self.step.leaves) if ids[0] in fed
        ]

    def bind(self, params: list[np.ndarray]) -> list:
        """One call's step arguments: its (k, *shape) ``params``, which training
        moves in place, and every other leaf but the fed ones (the snapshot
        heads, the recorder's constants) stacked k times from the tape, which
        holds this call's client 0 values; ``run`` fills the fed slots."""
        k = len(params[0])
        given = dict(zip(self.tape.params, params)) | dict.fromkeys(self.fed)
        return [
            given[ids[0]] if ids[0] in given else _stacked([[self.tape.vals[nid]] * k for nid in ids])
            for ids in self.step.leaves
        ]

    def run(self, args: list, per_client: list, rows: slice, stacks: dict):
        """The compiled step on ``rows`` of each client's epoch values of the
        fed leaves, ``per_client``, with the other arguments ``args`` (``bind``).
        ``stacks`` holds the epoch's stack of each fed argument by its leaves'
        positions, stacked by the first run on it.
        """
        # a row slice of a stack is row-major in each client's slice, as the step needs
        for slot, pos, lead in self.feeds:
            if pos not in stacks:
                stacks[pos] = _stacked([[feeds[q] for feeds in per_client] for q in pos])
            args[slot] = stacks[pos][(*lead, rows)]
        return self.step(*args)

    def check(self, outs, grads) -> None:
        """Raise OracleError unless slice 0 of the run that gave ``outs`` and
        ``grads`` holds the bytes of client 0's recording and its ``backward``.

        The run must be on the values the tape holds, before any update moves
        client 0's parameters away from them.
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
    cover the whole epoch before its first step. The ``spectra`` it gets
    gathers the rows' spectra in the same order from the dataset's
    ``spectra``, which the dataset computes on the first such call and keeps
    as long as it lives. Each argument of the step the feeds give (the batch
    and its view are one) is stacked from the clients' epoch feeds once per
    epoch, and a batch takes a row slice of it.

    Each structure (``step_loss``'s recorder and settings, k and the shapes
    of the parameters, the heads and one batch's feeds) is recorded once
    and kept, with its step compiled for k clients, in ``_RECORDED``: at
    the first batch of each feed shape, the first call of a structure
    records ``step_loss`` on copies of client 0's parameters and feeds and
    the heads, and every later call ``replay``s that tape on its own
    copies. Either way the tape then holds this batch's client 0 step, the
    call binds its parameters and stacks the heads once, and every batch of
    that shape, the first included, runs all clients at once through the
    compiled step, which gives every client the bytes of its own eager
    step. On that first batch of every call ``backward`` differentiates the
    tape and an OracleError is raised unless the compiled slice 0 matches
    it bit for bit. The stats are averaged over the steps. Momentum buffers
    start at zero every round because the client restarts from the
    broadcast global model.

    A client's failure (a bad label, a non-finite loss, a non-finite
    parameter after the last update) is its own, as the clients' slices are
    independent: each client's first failure is recorded, a client whose
    feeds failed runs on client 0's feeds with its result thrown away, and
    the lowest-index failing client's first failure is raised after the last
    step (client 0's bad label or loss at once), which is the error training
    the clients one at a time, in list order, raises. An OracleError is an engine
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
    stacked = param_views(initial.arch, initial.classes, flat)
    clients = [
        ModelParams.from_arrays(initial.arch, initial.classes, [arr[i] for arr in stacked]) for i in range(k)
    ]
    velocity = np.zeros_like(flat)
    lr = cosine_lr(round_t, hp)
    batch_seed = streams.subseed(hp.seed, streams.CLIENT)
    aug_rngs = [streams.substream(hp.seed, streams.AUG, ds.domain_id, round_t) for ds in datasets]
    bound: dict[tuple, tuple[_Recorded, list]] = {}  # this call's step and its arguments, by feed shapes
    # what a recording depends on besides the feed shapes; settings by repr, so 0.0 and -0.0 differ
    head_shapes = tuple((head.weight.shape, head.bias.shape) for head in step_loss.heads)
    structure = (step_loss.record, repr(step_loss.settings), k, tuple(a.shape for a in initial.arrays()), head_shapes)
    failed: dict[int, UsageError | DivergenceError] = {}  # each failing client's first failure
    sums = None
    steps = 0
    n = datasets[0].N
    epoch_base = (round_t - 1) * hp.local_epochs
    for e in range(hp.local_epochs):
        per_client = []
        for i, (ds, aug_rng) in enumerate(zip(datasets, aug_rngs)):
            # the epoch's rows in batch order: its permutation, as one batch of all
            # rows; their spectra, on demand, gathered in that order from the dataset's
            X, y = next(batch_iter(ds, n, batch_seed, epoch_base + e))
            spectra = functools.partial(epoch_spectra, ds, batch_seed, epoch_base + e)
            try:
                per_client.append(step_loss.feeds(X, y, initial.classes, hp.batch, aug_rng, spectra))
            except UsageError as err:
                if i == 0:
                    raise
                failed.setdefault(i, err)
                per_client.append(per_client[0])
        stacks = {}  # the epoch's stack of each fed argument, filled by the first batch
        for start in range(0, n, hp.batch):
            rows = slice(start, start + hp.batch)
            shapes = tuple(f[rows].shape for f in per_client[0])
            fresh = shapes not in bound
            if fresh:  # client 0's values, copied: the kept tape holds none of this call's arrays
                params0 = clients[0].copy()
                feeds0 = [f[rows].copy() for f in per_client[0]]
                key = (*structure, shapes)
                rec = _RECORDED.get(key)
                if rec is None:  # the structure's first call records it
                    tape, leaves, loss, stat_nodes = step_loss.recording(params0, *feeds0)
                    fed = leaves[len(tape.params) : len(tape.params) + len(feeds0)]
                    rec = _Recorded(tape, leaves, fed, loss, stat_nodes, k)
                    _remember(_RECORDED, key, rec)
                else:
                    replay(rec.tape, dict(zip(rec.leaves, step_loss.leaf_values(params0, feeds0))))
                bound[shapes] = rec, rec.bind(stacked)
            rec, args = bound[shapes]
            outs, grads = rec.run(args, per_client, rows, stacks)
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
    for i in np.flatnonzero(~np.isfinite(flat).all(axis=1)):  # the last update is checked here
        failed.setdefault(int(i), DivergenceError(f"non-finite parameters after round {round_t}, step {steps - 1}"))
    if failed:
        raise failed[min(failed)]
    return [
        ClientUpdate(ds.domain_id, clients[i], ds.N, {m: float(acc[i] / steps) for m, acc in zip(rec.stat_nodes, sums)})
        for i, ds in enumerate(datasets)
    ]


def _matching_loss(snapshots: list[HeadSnapshot], hp: HyperParams, aug: AugmentationSpec) -> StepLoss:
    """A source client's step loss on a batch and its ``aug`` view: local_loss
    matched against ``snapshots`` (none: no inter-domain term), with
    ``hp.lam`` and ``hp.inter_normalize`` as its settings, or with
    ``hp.gm_enabled`` off the baseline's averaged_ce."""
    if not hp.gm_enabled:
        return StepLoss(aug, averaged_ce)
    settings = (("lam", hp.lam), ("inter_normalize", hp.inter_normalize))
    return StepLoss(aug, local_loss, settings, tuple(snapshots))


def _plain_ce_record(tape: Tape, staged: ParamNodes, heads, x: int, y_mat: int) -> tuple[int, dict[str, int]]:
    _, z = forward(tape, staged, x)
    loss = cross_entropy(tape, z, y_mat)
    return loss, {"ce_orig": loss, "total": loss}


# The target client's step loss: cross-entropy on the un-augmented batch.
plain_ce_loss = StepLoss(None, _plain_ce_record)


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
