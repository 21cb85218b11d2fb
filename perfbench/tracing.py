"""Spans around the calls the protocol makes into each fedgm module.

Nothing inside ``fedgm`` is changed: the tracer replaces module attributes
for the duration of one traced protocol run and puts the originals back.
``fedgm.federation`` imports most names directly, so a function is wrapped
where the protocol looks it up (``fedgm.federation.augment``, not
``fedgm.data.augment``). Tape ops are counted, not spanned, by wrapping
``fedgm.autodiff.op_apply``, which every op helper and ``Tape.apply`` call
through the module global.

A span is ``[name id, start, end, parent span, run id]``. Spans nest strictly
(the protocol is single-threaded), so a span's self time is its duration
minus the summed durations of its children. The protocol call itself is the
root span; its self time is the run time covered by no other span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from fedgm.autodiff import OP_TAGS

ROOT = "federation.run"

# span name -> the (module, attribute) slots the protocol calls it through
SPAN_TARGETS = {
    "federation.local_train": [("fedgm.federation", "local_train")],
    "federation.target_train": [("fedgm.federation", "_train_plain_ce")],
    "federation.aggregate": [("fedgm.federation", "aggregate")],
    "federation.evaluate": [("fedgm.federation", "evaluate")],
    "federation.knowledge_vote": [("fedgm.federation", "knowledge_vote")],
    "autodiff.backward": [("fedgm.federation", "backward")],
    "objective.local_loss": [("fedgm.federation", "local_loss")],
    "model.forward": [("fedgm.objective", "forward"), ("fedgm.federation", "forward")],
    "model.stage_params": [("fedgm.federation", "stage_params")],
    "model.predict_logits": [("fedgm.federation", "predict_logits"), ("fedgm.model", "predict_logits")],
    "model.init_params": [("fedgm.federation", "init_params")],
    "data.augment": [("fedgm.federation", "augment")],
    "data.batch_iter": [("fedgm.federation", "batch_iter")],
    "data.generate": [
        ("fedgm.federation", "gen_rotated_domains"),
        ("fedgm.federation", "gen_textured_domains"),
    ],
    "data.split": [("fedgm.federation", "train_test_split")],
}
MODULES = ("autodiff", "objective", "model", "data", "federation")
STEP_PARTS = ("model.stage_params", "objective.local_loss", "autodiff.backward")


def _frozen_copy(tape):
    """A copy of ``tape`` whose values survive the SGD update that follows.

    The optimizer updates parameter arrays in place, and those arrays are
    the tape's leaf values (and the bases of its transpose views).
    """
    frozen = type(tape)()
    frozen.ops = list(tape.ops)
    frozen.inputs = list(tape.inputs)
    frozen.saved = list(tape.saved)
    frozen.params = list(tape.params)
    frozen.vals = [v.copy() for v in tape.vals]
    return frozen


class Tracer:
    """In-memory span recorder for traced protocol runs."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run = -1
        self.attrs: dict[int, object] = {}
        self.op_counts: Counter = Counter()
        # (backward span, round, op counts of that step) per local_train step
        self.steps: list[tuple[int, int, dict]] = []
        # (tape, loss node, gradients) of the first post-round-1 step traced
        self.captured = None
        self.capture_problem: str | None = None
        self.missing: set[str] = set()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> list:
        stack = self._stack
        rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.run]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, on_enter=None, on_exit=None):
        nid = self._name_id(name)

        if inspect.isgeneratorfunction(fn):
            # time each next() of the generator, not its lifetime
            @functools.wraps(fn)
            def gen_wrapped(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    rec = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(rec)
                    yield item

            return gen_wrapped

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = len(self.spans)
            rec = self._open(nid)
            if on_enter is not None:
                on_enter(idx, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if on_exit is not None:
                on_exit(idx, args, result)
            return result

        return wrapped

    # --- hooks that attach counts to spans ---------------------------------

    def _local_train_enter(self, sig):
        def hook(idx, args, kwargs):
            self.attrs[idx] = sig.bind(*args, **kwargs).arguments["round_t"]

        return hook

    def _backward_exit(self, idx, args, grads):
        parent = self.spans[idx][3]
        round_t = self.attrs.get(parent) if parent >= 0 else None
        if isinstance(round_t, int):
            self.steps.append((idx, round_t, dict(self.op_counts)))
            if round_t >= 2 and self.captured is None and self.capture_problem is None:
                try:
                    self.captured = (_frozen_copy(args[0]), args[1], grads)
                except Exception as exc:  # a tape layout this module does not know
                    self.capture_problem = f"cannot copy the tape: {exc!r}"
        self.op_counts.clear()

    def _vote_exit(self, idx, args, voted):
        self.attrs[idx] = (voted.n_accepted, int(args[1].shape[0]))

    @contextmanager
    def patched(self):
        """Install the span wrappers and the op counter; restore on exit."""
        saved = []
        try:
            for name, slots in SPAN_TARGETS.items():
                for modname, attr in slots:
                    mod = importlib.import_module(modname)
                    fn = getattr(mod, attr, None)
                    if fn is None:
                        self.missing.add(f"{modname}.{attr}")
                        continue
                    on_enter = on_exit = None
                    if name == "federation.local_train":
                        on_enter = self._local_train_enter(inspect.signature(fn))
                    elif name == "autodiff.backward":
                        on_exit = self._backward_exit
                    elif name == "federation.knowledge_vote":
                        on_exit = self._vote_exit
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(name, fn, on_enter, on_exit))
            autodiff = importlib.import_module("fedgm.autodiff")
            op_apply = autodiff.op_apply
            counts = self.op_counts

            @functools.wraps(op_apply)
            def counted(tape, kind, inputs, const=None):
                counts[kind] += 1
                return op_apply(tape, kind, inputs, const)

            saved.append((autodiff, "op_apply", op_apply))
            autodiff.op_apply = counted
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def traced_run(self, protocol, config):
        """One protocol call under a root span, as run ``self.run``.

        Returns the protocol's result and the root span's duration.
        """
        self.run += 1
        self.op_counts.clear()
        with self.patched():
            rec = self._open(self._name_id(ROOT))
            try:
                result = protocol(config)
            finally:
                self._close(rec)
        return result, rec[2] - rec[1]

    # --- analysis ------------------------------------------------------------

    def summarize(self, run: int) -> dict[str, float]:
        """Per-layer metrics of one traced run."""
        idxs = [i for i, s in enumerate(self.spans) if s[4] == run]
        dur = {i: self.spans[i][2] - self.spans[i][1] for i in idxs}
        children: dict[int, list[int]] = {i: [] for i in idxs}
        root = None
        for i in idxs:
            parent = self.spans[i][3]
            if parent >= 0:
                children[parent].append(i)
            else:
                root = i
        self_time = {i: dur[i] - sum(dur[c] for c in children[i]) for i in idxs}
        by_name: dict[str, list[int]] = {}
        for i in idxs:
            by_name.setdefault(self.names[self.spans[i][0]], []).append(i)

        out: dict[str, float] = {}
        for name in SPAN_TARGETS:
            spans = by_name.get(name, [])
            out[f"{name}.calls"] = len(spans)
            out[f"{name}.self_s"] = sum(self_time[i] for i in spans)
            out[f"{name}.us_p50"] = statistics.median(dur[i] for i in spans) * 1e6 if spans else 0.0
        run_s = dur[root]
        out["trace.run_s"] = run_s
        out["federation.residual_s"] = self_time[root]
        for module in MODULES:
            out[f"layer.{module}.self_frac"] = (
                sum(out[f"{n}.self_s"] for n in SPAN_TARGETS if n.startswith(module + ".")) / run_s
            )
        # self times of all spans, residual included, cover the run exactly
        out["trace.self_sum_error_s"] = abs(sum(self_time.values()) - run_s)

        ends = sorted(self.spans[i][2] for i in by_name.get("federation.aggregate", []))
        gaps = [b - a for a, b in zip(ends, ends[1:])]
        out["federation.round.ms_p50"] = statistics.median(gaps) * 1e3 if gaps else 0.0

        votes = [self.attrs[i] for i in by_name.get("federation.knowledge_vote", [])]
        pool = sum(p for _, p in votes)
        out["federation.knowledge_vote.accept_ratio"] = sum(a for a, _ in votes) / pool if pool else 0.0

        steady = [(b, counts) for b, r, counts in self.steps if r >= 2 and self.spans[b][4] == run]
        totals = [sum(c.values()) for _, c in steady]
        out["autodiff.ops_per_step"] = statistics.median(totals) if totals else 0
        for tag in OP_TAGS:
            out[f"autodiff.ops.{tag}"] = statistics.median(c.get(tag, 0) for _, c in steady) if steady else 0
        step_times = self._step_times(run, {b for b, _ in steady}, children, dur)
        out["trace.step_us_p50"] = statistics.median(step_times) * 1e6 if step_times else 0.0
        out["autodiff.us_per_op"] = (
            out["trace.step_us_p50"] / out["autodiff.ops_per_step"] if out["autodiff.ops_per_step"] else 0.0
        )
        return out

    def _step_times(self, run, steady_backwards, children, dur) -> list[float]:
        """Staging plus loss recording plus backward, per post-round-1 step."""
        times = []
        for i, kids in children.items():
            acc = 0.0
            for c in kids:
                name = self.names[self.spans[c][0]]
                if name in STEP_PARTS:
                    acc += dur[c]
                if name == "autodiff.backward":
                    if c in steady_backwards:
                        times.append(acc)
                    acc = 0.0
        return times

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "run"],
                    "names": self.names,
                    "spans": self.spans,
                },
                fh,
            )
