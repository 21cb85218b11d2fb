"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` records a Wengert list: every operation appends one node holding
the op tag, the input node ids, the forward value, and whatever the backward
rule needs. Node ids are list indices, so inputs always precede outputs and a
single reverse sweep visits each node exactly once.

Graphs are built eagerly (define-by-run), one op at a time. A recorded tape
can also be replayed: ``Tape.replay`` rebinds some leaves to new values of
the same shapes and re-runs the recorded forward rules in order, so a step
whose graph depends only on shapes and configuration is recorded once and
replayed for later batches. The rule lookups, the input ids of every node
and ``backward``'s reverse schedule are resolved once per tape and cached on
it; the lists ``ops``, ``inputs``, ``vals``, ``saved`` and ``params`` mean
the same on a replayed tape as on a freshly recorded one.

Tensors are plain ``numpy.ndarray`` values in float64, row-major. Scalars are
0-d arrays.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, OracleError, ShapeError, UsageError

Array = np.ndarray

LEAF = "leaf"


def as_tensor(x) -> Array:
    """Coerce to a float64 ndarray (copies only when needed)."""
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum an adjoint back down to the pre-broadcast shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _require_2d(kind: str, a: Array) -> None:
    if a.ndim != 2:
        raise ShapeError(f"{kind}: expected a 2-d operand, got dims {a.shape}")


# --- forward rules: (input values, const) -> (output value, saved) ---------
# Elementwise rules lean on numpy broadcasting and only pay for shape
# diagnostics on the failure path.


def _fw_add(vals, const):
    a, b = vals
    try:
        return a + b, None
    except ValueError:
        raise ShapeError(f"add: dims {a.shape} and {b.shape} are not conformable") from None


def _fw_sub(vals, const):
    a, b = vals
    try:
        return a - b, None
    except ValueError:
        raise ShapeError(f"sub: dims {a.shape} and {b.shape} are not conformable") from None


def _fw_mul(vals, const):
    a, b = vals
    try:
        return a * b, None
    except ValueError:
        raise ShapeError(f"elementwise-mul: dims {a.shape} and {b.shape} are not conformable") from None


def _fw_div(vals, const):
    a, b = vals
    try:
        return a / b, None
    except ValueError:
        raise ShapeError(f"div: dims {a.shape} and {b.shape} are not conformable") from None


def _fw_scale(vals, const):
    if const is None:
        raise UsageError("scale-by-constant: missing constant")
    return vals[0] * float(const), float(const)


def _fw_matmul(vals, const):
    a, b = vals
    _require_2d("matmul", a)
    _require_2d("matmul", b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: dims {a.shape} and {b.shape} are not conformable")
    return a @ b, None


def _fw_transpose(vals, const):
    a = vals[0]
    _require_2d("transpose", a)
    return a.T, None  # view is safe: node values are never mutated


def _fw_relu(vals, const):
    a = vals[0]
    return np.maximum(a, 0.0), a > 0.0


def _fw_exp(vals, const):
    return np.exp(vals[0]), None


def _fw_log_softmax(vals, const):
    a = vals[0]
    _require_2d("log-softmax-rows", a)
    shifted = a - a.max(axis=1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return out, np.exp(out)  # saves the softmax for backward


def _fw_reduce_sum(vals, const):
    return np.asarray(vals[0].sum()), None


def _fw_reduce_mean(vals, const):
    return np.asarray(vals[0].mean()), None


def _fw_dot(vals, const):
    a, b = vals
    if a.size != b.size:
        raise ShapeError(f"dot: dims {a.shape} and {b.shape} have different sizes")
    return np.asarray(a.ravel() @ b.ravel()), None


def _fw_l2_norm(vals, const):
    a = vals[0]
    return np.asarray(math.sqrt(float(a.ravel() @ a.ravel()))), None


def _fw_flatten_concat(vals, const):
    return np.concatenate([v.ravel() for v in vals]), [v.shape for v in vals]


_FORWARD: dict[str, Callable] = {
    "add": _fw_add,
    "sub": _fw_sub,
    "elementwise-mul": _fw_mul,
    "div": _fw_div,
    "scale-by-constant": _fw_scale,
    "matmul": _fw_matmul,
    "transpose": _fw_transpose,
    "relu": _fw_relu,
    "exp": _fw_exp,
    "log-softmax-rows": _fw_log_softmax,
    "reduce-sum": _fw_reduce_sum,
    "reduce-mean": _fw_reduce_mean,
    "dot": _fw_dot,
    "l2-norm": _fw_l2_norm,
    "flatten-concat": _fw_flatten_concat,
}


# --- backward rules ---------------------------------------------------------
# Signature: (adjoint, input values, output value, saved, needs) -> grads.
# ``needs[k]`` is False when the k-th input cannot reach any parameter, so
# the rule may return None there and skip the work.


def _bw_add(g, vals, out, saved, needs):
    a, b = vals
    return (
        _unbroadcast(g, a.shape) if needs[0] else None,
        _unbroadcast(g, b.shape) if needs[1] else None,
    )


def _bw_sub(g, vals, out, saved, needs):
    a, b = vals
    return (
        _unbroadcast(g, a.shape) if needs[0] else None,
        _unbroadcast(-g, b.shape) if needs[1] else None,
    )


def _bw_mul(g, vals, out, saved, needs):
    a, b = vals
    return (
        _unbroadcast(g * b, a.shape) if needs[0] else None,
        _unbroadcast(g * a, b.shape) if needs[1] else None,
    )


def _bw_div(g, vals, out, saved, needs):
    a, b = vals
    return (
        _unbroadcast(g / b, a.shape) if needs[0] else None,
        _unbroadcast(-g * a / (b * b), b.shape) if needs[1] else None,
    )


def _bw_scale(g, vals, out, saved, needs):
    return (g * saved,)


def _bw_matmul(g, vals, out, saved, needs):
    a, b = vals
    return (
        g @ b.T if needs[0] else None,
        a.T @ g if needs[1] else None,
    )


def _bw_transpose(g, vals, out, saved, needs):
    return (g.T,)


def _bw_relu(g, vals, out, saved, needs):
    return (g * saved,)


def _bw_exp(g, vals, out, saved, needs):
    return (g * out,)


def _bw_log_softmax(g, vals, out, saved, needs):
    return (g - saved * g.sum(axis=1, keepdims=True),)


def _bw_reduce_sum(g, vals, out, saved, needs):
    return (np.full_like(vals[0], float(g)),)


def _bw_reduce_mean(g, vals, out, saved, needs):
    a = vals[0]
    return (np.full_like(a, float(g) / a.size),)


def _bw_dot(g, vals, out, saved, needs):
    a, b = vals
    s = float(g)
    return (
        (s * b).reshape(a.shape) if needs[0] else None,
        (s * a).reshape(b.shape) if needs[1] else None,
    )


def _bw_l2_norm(g, vals, out, saved, needs):
    a = vals[0]
    norm = float(out)
    if norm == 0.0:
        return (np.zeros_like(a),)  # subgradient at the origin
    return (a * (float(g) / norm),)


def _bw_flatten_concat(g, vals, out, saved, needs):
    grads = []
    offset = 0
    for k, shape in enumerate(saved):
        size = math.prod(shape)
        grads.append(g[offset : offset + size].reshape(shape) if needs[k] else None)
        offset += size
    return tuple(grads)


_BACKWARD: dict[str, Callable] = {
    "add": _bw_add,
    "sub": _bw_sub,
    "elementwise-mul": _bw_mul,
    "div": _bw_div,
    "scale-by-constant": _bw_scale,
    "matmul": _bw_matmul,
    "transpose": _bw_transpose,
    "relu": _bw_relu,
    "exp": _bw_exp,
    "log-softmax-rows": _bw_log_softmax,
    "reduce-sum": _bw_reduce_sum,
    "reduce-mean": _bw_reduce_mean,
    "dot": _bw_dot,
    "l2-norm": _bw_l2_norm,
    "flatten-concat": _bw_flatten_concat,
}

OP_TAGS = tuple(_FORWARD)


class Tape:
    """Append-only computation record for one forward/backward pass.

    Single-threaded by design; use one Tape per concurrent unit of work.
    """

    __slots__ = ("ops", "inputs", "vals", "saved", "params", "_program", "_sweeps")

    def __init__(self) -> None:
        self.ops: list[str] = []
        self.inputs: list[tuple[int, ...]] = []
        self.vals: list[Array] = []
        self.saved: list = []
        self.params: list[int] = []
        # replay's forward program, and backward's schedule per loss node
        self._program: tuple[int, list] = (0, [])
        self._sweeps: dict[int, list] = {}

    def __len__(self) -> int:
        return len(self.ops)

    def leaf(self, value, *, param: bool = False) -> int:
        """Register an input tensor; ``param=True`` marks it for gradients."""
        self.ops.append(LEAF)
        self.inputs.append(())
        self.vals.append(as_tensor(value))
        self.saved.append(None)
        nid = len(self.ops) - 1
        if param:
            self.params.append(nid)
        return nid

    def constant(self, value) -> int:
        return self.leaf(value, param=False)

    def value(self, nid: int) -> Array:
        return self.vals[nid]

    def apply(self, kind: str, inputs, const: float | None = None) -> int:
        return op_apply(self, kind, inputs, const)

    def replay(self, feeds: dict[int, Array]) -> None:
        """Rebind leaves to new values and re-run every recorded op in order.

        ``feeds`` maps leaf ids to values of the recorded shapes; leaves not
        named keep their values. Each op goes through the same forward rule
        as when it was recorded, shape checks included, and overwrites its
        value and saved data in place.
        """
        vals = self.vals
        for nid, value in feeds.items():
            value = as_tensor(value)
            if self.ops[nid] != LEAF:
                raise UsageError(f"replay: node {nid} is a '{self.ops[nid]}' op, not a leaf")
            if value.shape != vals[nid].shape:
                raise ShapeError(f"replay: leaf {nid} was recorded with dims {vals[nid].shape}, got {value.shape}")
            vals[nid] = value
        saved = self.saved
        for nid, fw, ids, const in self._forward_program():
            vals[nid], saved[nid] = fw([vals[i] for i in ids], const)

    def _forward_program(self) -> list:
        """(node, forward rule, input ids, constant) of every op, in order."""
        n, program = self._program
        if n != len(self.ops):
            # scale-by-constant keeps its constant as its saved data; no
            # other rule reads a constant
            program = [
                (nid, _FORWARD[kind], self.inputs[nid], self.saved[nid] if kind == "scale-by-constant" else None)
                for nid, kind in enumerate(self.ops)
                if kind != LEAF
            ]
            self._program = (len(self.ops), program)
        return program

    def _sweep(self, loss: int) -> list:
        """Reverse schedule from ``loss``: (node, backward rule, input ids,
        per-input needs) of every op that can reach a parameter, last first.

        A node ``needs`` an adjoint when a parameter leaf is among its
        ancestors. The tape only grows, so the schedule of a loss node
        recorded earlier stays valid.
        """
        sweep = self._sweeps.get(loss)
        if sweep is None:
            ops, inputs = self.ops, self.inputs
            n = loss + 1
            needs = bytearray(n)
            for pid in self.params:
                if pid < n:
                    needs[pid] = 1
            for nid in range(n):
                if ops[nid] != LEAF and any(needs[i] for i in inputs[nid]):
                    needs[nid] = 1
            sweep = [
                (nid, _BACKWARD[ops[nid]], inputs[nid], tuple(bool(needs[i]) for i in inputs[nid]))
                for nid in range(loss, -1, -1)
                if needs[nid] and ops[nid] != LEAF
            ]
            self._sweeps[loss] = sweep
        return sweep


def op_apply(tape: Tape, kind: str, inputs, const: float | None = None) -> int:
    """Append one operation node and return its id.

    ``inputs`` is a node id or a sequence of node ids. ``const`` is only
    meaningful for scale-by-constant.
    """
    fw = _FORWARD.get(kind)
    if fw is None:
        raise UsageError(f"unknown op tag '{kind}'")
    ids = (inputs,) if isinstance(inputs, int) else tuple(inputs)
    out, saved = fw([tape.vals[i] for i in ids], const)
    tape.ops.append(kind)
    tape.inputs.append(ids)
    tape.vals.append(out)
    tape.saved.append(saved)
    return len(tape.ops) - 1


def backward(tape: Tape, loss: int) -> dict[int, Array]:
    """Reverse sweep from a scalar node.

    Returns one gradient per parameter leaf, keyed by node id. Parameters
    the loss does not depend on get zero gradients. Subgraphs that cannot
    reach a parameter (constants, frozen snapshots) are skipped entirely.
    Which nodes those are is worked out on the first call for a loss node
    and reused by later calls on the same tape, such as after a replay.
    """
    if len(tape) == 0:
        raise ContractError("backward on an empty tape")
    val = tape.vals[loss]
    if val.size != 1:
        raise ContractError(f"backward needs a scalar loss, got dims {val.shape}")
    vals = tape.vals
    saved = tape.saved
    n = loss + 1
    adjoint: list[Array | None] = [None] * n
    adjoint[loss] = np.ones_like(val)
    for nid, rule, in_ids, in_needs in tape._sweep(loss):
        g = adjoint[nid]
        if g is None:
            continue
        grads = rule(g, [vals[i] for i in in_ids], vals[nid], saved[nid], in_needs)
        for iid, ig in zip(in_ids, grads):
            if ig is None:
                continue
            acc = adjoint[iid]
            adjoint[iid] = ig if acc is None else acc + ig
    result: dict[int, Array] = {}
    for pid in tape.params:
        g = adjoint[pid] if pid < n else None
        result[pid] = np.zeros_like(tape.vals[pid]) if g is None else np.array(g)
    return result


def finite_diff_grad(f: Callable[[Array], float], theta, h: float) -> Array:
    """Central-difference gradient, the reference oracle for backward().

    ``f`` maps a flat parameter vector to a scalar; the step ``h`` is applied
    one coordinate at a time: (f(t + h e_k) - f(t - h e_k)) / (2h).
    """
    if h <= 0.0:
        raise UsageError(f"finite_diff_grad: step must be positive, got {h}")
    theta = as_tensor(theta).ravel()
    grad = np.empty_like(theta)
    for k in range(theta.size):
        up = theta.copy()
        up[k] += h
        down = theta.copy()
        down[k] -= h
        fu = float(f(up))
        fd = float(f(down))
        if not (math.isfinite(fu) and math.isfinite(fd)):
            raise OracleError(f"non-finite function value at coordinate {k}")
        grad[k] = (fu - fd) / (2.0 * h)
    return grad


# Convenience wrappers so callers read like the math they implement.


def add(tape: Tape, a: int, b: int) -> int:
    return op_apply(tape, "add", (a, b))


def sub(tape: Tape, a: int, b: int) -> int:
    return op_apply(tape, "sub", (a, b))


def mul(tape: Tape, a: int, b: int) -> int:
    return op_apply(tape, "elementwise-mul", (a, b))


def div(tape: Tape, a: int, b: int) -> int:
    return op_apply(tape, "div", (a, b))


def scale(tape: Tape, a: int, c: float) -> int:
    return op_apply(tape, "scale-by-constant", (a,), c)


def matmul(tape: Tape, a: int, b: int) -> int:
    return op_apply(tape, "matmul", (a, b))


def transpose(tape: Tape, a: int) -> int:
    return op_apply(tape, "transpose", (a,))


def relu(tape: Tape, a: int) -> int:
    return op_apply(tape, "relu", (a,))


def exp(tape: Tape, a: int) -> int:
    return op_apply(tape, "exp", (a,))


def log_softmax_rows(tape: Tape, a: int) -> int:
    return op_apply(tape, "log-softmax-rows", (a,))


def reduce_sum(tape: Tape, a: int) -> int:
    return op_apply(tape, "reduce-sum", (a,))


def reduce_mean(tape: Tape, a: int) -> int:
    return op_apply(tape, "reduce-mean", (a,))


def dot(tape: Tape, a: int, b: int) -> int:
    return op_apply(tape, "dot", (a, b))


def l2_norm(tape: Tape, a: int) -> int:
    return op_apply(tape, "l2-norm", (a,))


def flatten_concat(tape: Tape, ids: Sequence[int]) -> int:
    return op_apply(tape, "flatten-concat", tuple(ids))
