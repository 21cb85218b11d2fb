"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` records a Wengert list: every operation appends one node holding
the op tag, the input node ids, the forward value, and whatever the backward
rule needs. Node ids are list indices, so inputs always precede outputs and a
single reverse sweep visits each node exactly once.

Each op tag is defined once, as one entry of ``_OPS``: its eager forward and
backward rules, and the source templates ``compile_step`` builds from. The
eager rules are the reference; a template issues the kernels of its rule.

Graphs are built eagerly (define-by-run), one op at a time, and ``backward``
differentiates a freshly recorded tape. A step whose graph depends only on
shapes and configuration can also be compiled: ``compile_step`` turns one
recorded tape into one straight-line Python function that runs its step for
k clients at once, on every leaf's values stacked on a leading client axis.
It issues the forward rules' and ``backward``'s kernels in the same order,
each giving every client's slice the bytes of that client's own eager step,
with every shape decision resolved when the source is generated. Copies of
one block that the recorder declares as lanes (``Tape.lane``: the two views'
forward and head-gradient chains, the inter term's per-snapshot ops) run as
one kernel per op. Every batch of the recorded shapes, the recorded one
included, calls that function, and tapes with the same structure share one
compiled function; ``backward`` on the recorded tape checks it. A tape can
be kept and ``replay``ed: new leaf values, and every op re-evaluated with
its eager forward rule, give the tape a fresh recording would give, so a
structure is recorded once and checked again on every later call's values.

Tensors are plain ``numpy.ndarray`` values in float64. Every leaf is stored
row-major, so a transposed layout only comes from a ``transpose`` op, whose
value is a view. Scalars are 0-d arrays.
"""

from __future__ import annotations

import math
import operator
from contextlib import contextmanager
from typing import Callable, Hashable, NamedTuple, Sequence

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


def _fw_elementwise(kind: str, fn: Callable) -> Callable:
    """The forward rule of ``kind``, the broadcasting binary operator ``fn``."""

    def rule(vals, const):
        a, b = vals
        try:
            return fn(a, b), None
        except ValueError:
            raise ShapeError(f"{kind}: dims {a.shape} and {b.shape} are not conformable") from None

    return rule


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
    a, b = vals
    return np.concatenate([a.ravel(), b.ravel()]), None


# --- backward rules ---------------------------------------------------------
# Signature: (adjoint, input values, output value, saved, needs) -> grads.
# ``needs[k]`` is False when the k-th input cannot reach any parameter, so
# the rule may return None there and skip the work. The four elementwise ops
# share one rule, ``_bw_elementwise``, given each op's adjoints in ``_OPS``.


def _bw_elementwise(da: Callable, db: Callable) -> Callable:
    """The backward rule of a broadcasting binary operator whose adjoints are
    ``da(g, a, b)`` and ``db(g, a, b)``, each unbroadcast to its input."""

    def rule(g, vals, out, saved, needs):
        a, b = vals
        return (
            _unbroadcast(da(g, a, b), a.shape) if needs[0] else None,
            _unbroadcast(db(g, a, b), b.shape) if needs[1] else None,
        )

    return rule


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
    a, b = vals
    return (
        g[: a.size].reshape(a.shape) if needs[0] else None,
        g[a.size :].reshape(b.shape) if needs[1] else None,
    )


class _Op(NamedTuple):
    """One op tag's entry: its eager rules, the reference, and their templates
    for ``compile_step``: ``fw_src`` the forward's source lines, ``bw_src`` one
    adjoint expression per input, so the op takes exactly ``len(bw_src)`` inputs.
    """

    forward: Callable  # (input values, const) -> (output value, saved)
    backward: Callable  # (adjoint, input values, output value, saved, needs) -> grads
    fw_src: list[str]
    bw_src: tuple[str, ...]


# Templates run an op for k clients at once: every value has a leading client
# axis, a group of S lanes (see _declared) has (k, S). {a} and {b} name the inputs
# shaped to broadcast as the rule's operands, {A}/{B} unshaped with leading
# dims {ka}/{kb}; {o} is the output, {g} its adjoint, {n} the node, {lead} its
# leading dims, {c} the constant, {size} input a's per-client size, {shape_a}/{shape_b}
# each input's full shape, and {ra}/{rb} reshape a scalar to broadcast
# against {a}/{b}. Each kernel gives a slice the bytes the rule gives that
# client alone: matmul and transposes per slice, reductions only over the
# rule's axes, dot and l2-norm as (1, n) @ (n, 1).

_OPS: dict[str, _Op] = {
    "add": _Op(
        _fw_elementwise("add", operator.add), _bw_elementwise(lambda g, a, b: g, lambda g, a, b: g),
        ["{o} = {a} + {b}"], ("{g}", "{g}"),
    ),
    "sub": _Op(
        _fw_elementwise("sub", operator.sub), _bw_elementwise(lambda g, a, b: g, lambda g, a, b: -g),
        ["{o} = {a} - {b}"], ("{g}", "(-{g})"),
    ),
    "elementwise-mul": _Op(
        _fw_elementwise("elementwise-mul", operator.mul), _bw_elementwise(lambda g, a, b: g * b, lambda g, a, b: g * a),
        ["{o} = {a} * {b}"], ("({g} * {b})", "({g} * {a})"),
    ),
    "div": _Op(
        _fw_elementwise("div", operator.truediv),
        _bw_elementwise(lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b)),
        ["{o} = {a} / {b}"], ("({g} / {b})", "(-{g} * {a} / ({b} * {b}))"),
    ),
    "scale-by-constant": _Op(_fw_scale, _bw_scale, ["{o} = {a} * {c}"], ("{g} * {c}",)),
    "matmul": _Op(
        _fw_matmul, _bw_matmul, ["{o} = {a} @ {b}"], ("{g} @ {b}.swapaxes(-1, -2)", "{a}.swapaxes(-1, -2) @ {g}")
    ),
    "transpose": _Op(_fw_transpose, _bw_transpose, ["{o} = {a}.swapaxes(-1, -2)"], ("{g}.swapaxes(-1, -2)",)),
    "relu": _Op(_fw_relu, _bw_relu, ["{o} = maximum({a}, 0.0)", "m{n} = {a} > 0.0"], ("{g} * m{n}",)),
    "exp": _Op(_fw_exp, _bw_exp, ["{o} = exp({a})"], ("{g} * {o}",)),
    "log-softmax-rows": _Op(
        _fw_log_softmax, _bw_log_softmax,
        [
            "s{n} = {a} - {a}.max(axis=-1, keepdims=True)",
            "{o} = s{n} - log(exp(s{n}).sum(axis=-1, keepdims=True))",
            "m{n} = exp({o})",
        ],
        ("{g} - m{n} * {g}.sum(axis=-1, keepdims=True)",),
    ),
    "reduce-sum": _Op(_fw_reduce_sum, _bw_reduce_sum, ["{o} = {a}.sum(axis={rest})"], ("full_like({a}, {g}{ra})",)),
    "reduce-mean": _Op(
        _fw_reduce_mean, _bw_reduce_mean, ["{o} = {a}.mean(axis={rest})"], ("full_like({a}, ({g} / {size}){ra})",)
    ),
    "dot": _Op(
        _fw_dot, _bw_dot,
        ["{o} = ({A}.reshape({ka}, 1, -1) @ {B}.reshape({kb}, -1, 1)).reshape({lead})"],
        ("({g}{rb} * {b}).reshape({shape_a})", "({g}{ra} * {a}).reshape({shape_b})"),
    ),
    # the zero-norm subgradient depends on each client's value, so when any
    # norm is zero (-0.0 included) it is selected per slice and the division
    # never sees that zero; when none is, both forms give the same bytes and
    # the plain quotient runs alone
    "l2-norm": _Op(
        _fw_l2_norm, _bw_l2_norm,
        ["{o} = sqrt(({A}.reshape({ka}, 1, -1) @ {A}.reshape({ka}, -1, 1)).reshape({lead}))"],
        (
            "({a} * ({g} / {o}){ra} if {o}.all() else "
            "where({o}{ra} == 0.0, 0.0, {a} * ({g} / where({o} == 0.0, 1.0, {o})){ra}))",
        ),
    ),
    "flatten-concat": _Op(
        _fw_flatten_concat, _bw_flatten_concat,
        ["{o} = concatenate([{A}.reshape({lead}, -1), {B}.reshape({lead}, -1)], axis=-1)"],
        ("{g}[..., :{size}].reshape({shape_a})", "{g}[..., {size}:].reshape({shape_b})"),
    ),
}

OP_TAGS = tuple(_OPS)


class Tape:
    """Append-only computation record for one forward/backward pass.

    Single-threaded by design; use one Tape per concurrent unit of work.
    """

    __slots__ = ("ops", "inputs", "vals", "saved", "params", "lanes")

    def __init__(self) -> None:
        self.ops: list[str] = []
        self.inputs: list[tuple[int, ...]] = []
        self.vals: list[Array] = []
        self.saved: list = []
        self.params: list[int] = []
        self.lanes: list[tuple[Hashable, int, int, int]] = []  # see lane; only compile_step reads them

    def __len__(self) -> int:
        return len(self.ops)

    def leaf(self, value, *, param: bool = False) -> int:
        """Register an input tensor, stored row-major (a copy only if it is not), so a transpose
        is always an op; ``param=True`` marks it for gradients."""
        self.ops.append(LEAF)
        self.inputs.append(())
        self.vals.append(np.asarray(value, dtype=np.float64, order="C"))
        self.saved.append(None)
        nid = len(self.ops) - 1
        if param:
            self.params.append(nid)
        return nid

    def constant(self, value) -> int:
        return self.leaf(value, param=False)

    def value(self, nid: int) -> Array:
        """The value of node ``nid``; anything but a node id of this tape is a UsageError."""
        if not _is_node(self, nid):
            got = nid if isinstance(nid, (int, np.integer)) else type(nid).__name__
            raise UsageError(f"expected a node id in [0, {len(self.ops)}), got {got}")
        return self.vals[nid]

    @contextmanager
    def lane(self, group: Hashable, j: int):
        """Declare the nodes recorded inside as lane ``j`` of ``group``, kept as (group, j, start, stop):
        a copy of its other lanes' block, which ``compile_step`` runs with them as one kernel per op."""
        start = len(self.ops)
        yield
        self.lanes.append((group, j, start, len(self.ops)))


def _is_node(tape: Tape, nid) -> bool:
    return (type(nid) is int or isinstance(nid, np.integer)) and 0 <= nid < len(tape.ops)


def op_apply(tape: Tape, kind: str, inputs, const: float | None = None) -> int:
    """Append one operation node and return its id.

    ``inputs`` is a node id or a sequence of node ids. ``const`` is only
    meaningful for scale-by-constant.
    """
    op = _OPS.get(kind)
    if op is None:
        raise UsageError(f"unknown op tag '{kind}'")
    ids = (inputs,) if isinstance(inputs, (int, np.integer)) else tuple(inputs)
    if len(ids) != len(op.bw_src):
        raise UsageError(f"{kind}: wrong number of inputs: expected {len(op.bw_src)}, got {len(ids)}")
    for i in ids:  # a loop, not all(): this runs on every recorded op
        if not _is_node(tape, i):
            raise UsageError(f"{kind}: inputs must be node ids in [0, {len(tape.ops)}), got {ids}")
    out, saved = op.forward([tape.vals[i] for i in ids], const)
    tape.ops.append(kind)
    tape.inputs.append(ids)
    tape.vals.append(out)
    tape.saved.append(saved)
    return len(tape.ops) - 1


def replay(tape: Tape, values: dict[int, Array]) -> None:
    """Give each leaf that ``values`` names its new value, stored as ``Tape.leaf``
    stores it, and every op the output and saved entry its eager forward rule
    gives on the new values, in tape order.

    The tape then holds what recording its code afresh on those leaf values
    would give, as long as that code recorded nothing else that depends on
    the values (a recorder's own constants may depend on shapes only). Ops,
    inputs, params and lanes stay. A new value of another shape than the
    recorded one is a ShapeError, raised before any value changes.
    """
    vals, saved = tape.vals, tape.saved
    new = {nid: np.asarray(v, dtype=np.float64, order="C") for nid, v in values.items()}
    for nid, v in new.items():
        if not _is_node(tape, nid) or tape.ops[nid] != LEAF:
            raise UsageError(f"replay: node {nid} is not a leaf of the tape")
        if v.shape != vals[nid].shape:
            raise ShapeError(f"replay: leaf {nid} was recorded with dims {vals[nid].shape}, got {v.shape}")
    for nid, v in new.items():
        vals[nid] = v
    for nid, (kind, ids) in enumerate(zip(tape.ops, tape.inputs)):
        if kind != LEAF:  # a scale op's saved entry is its constant
            const = saved[nid] if kind == "scale-by-constant" else None
            vals[nid], saved[nid] = _OPS[kind].forward([vals[i] for i in ids], const)


_SWEEP_CACHE: dict[tuple, tuple] = {}
_STEP_CACHE_SIZE = 32  # the entries _SWEEP_CACHE, _STEP_CACHE and federation's recorded steps each keep


def _remember(cache: dict, key: tuple, value) -> None:
    """Store ``value`` under ``key``, first dropping the oldest entry of a full ``cache``."""
    if len(cache) >= _STEP_CACHE_SIZE:
        del cache[next(iter(cache))]
    cache[key] = value


def _sweep(tape: Tape, loss: int) -> tuple[tuple[int, tuple[bool, ...]], ...]:
    """Reverse schedule from a scalar ``loss``: (node, per-input needs) of
    every op that can reach a parameter, last first.

    A node ``needs`` an adjoint when a parameter leaf is among its ancestors.
    The schedule depends on the ops, inputs, params and loss alone, so every
    recording of one structure shares one, kept in ``_SWEEP_CACHE``; the
    checks on ``tape`` and ``loss`` run on every call.
    """
    if len(tape) == 0:
        raise ContractError("backward on an empty tape")
    val = tape.vals[loss]
    if val.size != 1:
        raise ContractError(f"backward needs a scalar loss, got dims {val.shape}")
    ops, inputs = tape.ops, tape.inputs
    key = (tuple(ops), tuple(inputs), tuple(tape.params), loss)
    sweep = _SWEEP_CACHE.get(key)
    if sweep is not None:
        return sweep
    needs = bytearray(loss + 1)
    for pid in tape.params:
        if pid <= loss:
            needs[pid] = 1
    for nid in range(loss + 1):
        if ops[nid] != LEAF and any(needs[i] for i in inputs[nid]):
            needs[nid] = 1
    sweep = tuple(
        (nid, tuple(bool(needs[i]) for i in inputs[nid]))
        for nid in range(loss, -1, -1)
        if needs[nid] and ops[nid] != LEAF
    )
    _remember(_SWEEP_CACHE, key, sweep)
    return sweep


def backward(tape: Tape, loss: int) -> dict[int, Array]:
    """Reverse sweep from a scalar node.

    Returns one gradient per parameter leaf, keyed by node id. Parameters
    the loss does not depend on get zero gradients. Subgraphs that cannot
    reach a parameter (constants, frozen snapshots) are skipped entirely.
    """
    ops, inputs, vals, saved = tape.ops, tape.inputs, tape.vals, tape.saved
    sweep = _sweep(tape, loss)
    adjoint: list[Array | None] = [None] * (loss + 1)
    adjoint[loss] = np.ones_like(vals[loss])
    for nid, in_needs in sweep:
        g = adjoint[nid]
        if g is None:
            continue
        in_ids = inputs[nid]
        grads = _OPS[ops[nid]].backward(g, [vals[i] for i in in_ids], vals[nid], saved[nid], in_needs)
        for iid, ig in zip(in_ids, grads):
            if ig is None:
                continue
            acc = adjoint[iid]
            adjoint[iid] = ig if acc is None else acc + ig
    result: dict[int, Array] = {}
    for pid in tape.params:
        g = adjoint[pid] if pid <= loss else None
        result[pid] = np.zeros_like(vals[pid]) if g is None else np.array(g)
    return result


# --- compiled steps -----------------------------------------------------------

_ELEMENTWISE = ("add", "sub", "elementwise-mul", "div")
# the ops whose adjoint templates read the incoming adjoint alone, and their input only for its shape
_VALUE_FREE = frozenset(("add", "sub", "scale-by-constant", "transpose", "reduce-sum", "reduce-mean", "flatten-concat"))


_KERNELS = {
    "concatenate": np.concatenate, "exp": np.exp, "full_like": np.full_like, "log": np.log,
    "maximum": np.maximum, "ones_like": np.ones_like, "sqrt": np.sqrt, "where": np.where,
    "zeros_like": np.zeros_like, "inf": math.inf, "nan": math.nan,
}

_STEP_CACHE: dict[tuple, Callable] = {}


def _unbroadcast_src(expr: str, grad_shape: tuple[int, ...], shape: tuple[int, ...], lead: int) -> str:
    """``_unbroadcast`` resolved for known shapes, below ``lead`` leading axes
    (1: the client axis; 2: the client and lane axes, so each lane keeps its term)."""
    if grad_shape == shape:
        return expr
    extra = len(grad_shape) - len(shape)
    if extra:
        expr = f"{expr}.sum(axis={tuple(range(lead, lead + extra))!r})"
        grad_shape = grad_shape[extra:]
    axes = tuple(i + lead for i, n in enumerate(shape) if n == 1 and grad_shape[i] != 1)
    return f"{expr}.sum(axis={axes!r}, keepdims=True)" if axes else expr


def _names(tape: Tape, nid: int, lead: tuple[int, ...], args: list[tuple[str, tuple[int, ...]]]) -> dict:
    """What the source templates of node ``nid`` fill in, with ``lead`` the leading dims of its
    value, (k,) or (k, S), and ``args`` each input's variable and leading dims ((k, 1) if shared)."""
    ids = tape.inputs[nid]
    shapes = [tape.vals[i].shape for i in ids]
    nd = tape.vals[nid].ndim
    lanes = len(lead) > 1

    def operand(q):
        var, ld = args[q]
        if tape.ops[nid] in _ELEMENTWISE and len(shapes[q]) < nd:
            return f"{var}.reshape({ld + (1,) * (nd - len(shapes[q])) + shapes[q]!r})"
        return f"{var}[:, None]" if ld != lead else var

    dims = lambda ld: ", ".join(map(str, ld))  # noqa: E731
    (a, a_shape), (b, b_shape) = (0, shapes[0]), (len(ids) - 1, shapes[-1])
    return dict(
        lead_shape=lead, n=f"L{nid}" if lanes else nid,
        o=f"L{nid}" if lanes else f"v{nid}", g=f"G{nid}" if lanes else f"g{nid}",
        a=operand(a), b=operand(b), A=args[a][0], B=args[b][0], ka=dims(args[a][1]), kb=dims(args[b][1]),
        lead=dims(lead), c=repr(tape.saved[nid]) if tape.ops[nid] == "scale-by-constant" else None,
        rest=tuple(range(len(lead), len(lead) + len(a_shape))), size=math.prod(a_shape),
        shape_a=repr(lead + a_shape), shape_b=repr(lead + b_shape),
        ra=f".reshape({lead + (1,) * len(a_shape)!r})", rb=f".reshape({lead + (1,) * len(b_shape)!r})",
    )


def _grad_exprs(tape: Tape, nid: int, in_needs: tuple[bool, ...], names: dict) -> list[str | None]:
    """Source of each input's adjoint contribution (None where not needed): the op's
    ``bw_src`` templates, filled in and, for an elementwise op, unbroadcast."""
    kind = tape.ops[nid]
    exprs = [t.format(**names) for t in _OPS[kind].bw_src]
    if kind in _ELEMENTWISE:
        out_shape, lead = tape.vals[nid].shape, len(names["lead_shape"])
        shapes = [tape.vals[i].shape for i in tape.inputs[nid]]
        exprs = [_unbroadcast_src(e, out_shape, s, lead) for e, s in zip(exprs, shapes)]
    return [e if need else None for e, need in zip(exprs, in_needs)]


def _structure(tape: Tape, loss: int, outs: tuple[int, ...], fed: tuple[int, ...]) -> tuple:
    """What a compiled step depends on: ops, inputs, leaf shapes, scale
    constants (by ``repr``, so 0.0 and -0.0 differ), params, loss, outs, the
    fed leaves and the declared lanes. Every leaf is row-major, so its shape fixes its layout."""
    shapes = tuple(v.shape for v, kind in zip(tape.vals, tape.ops) if kind == LEAF)
    consts = tuple(repr(s) for s, kind in zip(tape.saved, tape.ops) if kind == "scale-by-constant")
    return (tuple(tape.ops), tuple(tape.inputs), shapes, consts, tuple(tape.params), loss, outs, fed, tuple(tape.lanes))


def _declared(tape: Tape, loss: int, fed: set[int], has_adjoint: set[int]):
    """The groups of lanes ``tape`` declares, checked, and which inputs of each group are lanes.

    Lane j of a group is the nodes recorded under ``tape.lane(group, j)``, j in
    0..S-1; the n-th nodes of S >= 2 lanes make one group, which one (k, S, ...)
    kernel per op computes. A group's lanes come in lane order and agree in
    ``sig``; none is the loss or a parameter. Each input column is one shared
    node or one group's lanes in order (distinct leaves in no group, the fed
    batch and its view, become a group), so no lane reads its twin; a group of
    ops reads lanes, a flatten-concat group only lanes. Else: ContractError.
    """
    ops, inputs, vals = tape.ops, tape.inputs, tape.vals
    declared: dict = {}
    for name, j, start, stop in tape.lanes:
        declared.setdefault(name, {}).setdefault(j, []).extend(range(start, stop))
    groups: list[list[int]] = []
    for name, by_lane in declared.items():
        lanes = [by_lane[j] for j in sorted(by_lane)]
        if sorted(by_lane) != list(range(len(lanes))) or len(set(map(len, lanes))) > 1:
            counts = [len(nodes) for nodes in lanes]
            raise ContractError(
                f"lane group {name!r}: lanes {sorted(by_lane)} of {counts} nodes, not lanes 0..S-1 of one length"
            )
        if len(lanes) > 1:
            groups += map(list, zip(*lanes))
    lane = {m: (gi, j) for gi, g in enumerate(groups) for j, m in enumerate(g)}
    if len(lane) < sum(map(len, groups)):
        raise ContractError("a node is declared in two lanes")
    fields = ("tag", "input count", "scale constant", "shape", "adjoint need", "feeding")

    def sig(m):
        const = repr(tape.saved[m]) if ops[m] == "scale-by-constant" else None
        return ops[m], len(inputs[m]), const, vals[m].shape, m in has_adjoint, m in fed

    flags: list[tuple[bool, ...]] = []
    for gi, g in enumerate(groups):  # grows by the groups of leaves the columns make
        where = f"lane group {g}"
        if loss in g or set(g) & set(tape.params):
            raise ContractError(f"{where}: the loss and the parameters are never lanes")
        if g != sorted(g):
            raise ContractError(f"{where}: lanes must be recorded in lane order")
        differ = [what for what, *col in zip(fields, *map(sig, g)) if len(set(col)) > 1]
        if differ:
            raise ContractError(f"{where}: lanes differ in {', '.join(differ)}")
        f = []
        for p, col in enumerate(map(list, zip(*(inputs[m] for m in g)))):
            if len(set(col)) == 1:
                f.append(False)
                continue
            if len(set(col)) == len(col) and all(ops[i] == LEAF and i not in lane for i in col):
                lane.update((i, (len(groups), j)) for j, i in enumerate(col))
                groups.append(col)
            if lane.get(col[0], (0, 1))[1] != 0 or groups[lane[col[0]][0]] != col:
                twin = any(lane.get(i, (-1,))[0] == gi for i in col)
                what = "its twin" if twin else "neither one shared node nor one group's lanes"
                raise ContractError(f"{where}: input {p} reads {col}, {what}")
            f.append(True)
        if ops[g[0]] != LEAF and not any(f):
            raise ContractError(f"{where}: reads no lane, so its lanes would be one value")
        if ops[g[0]] == "flatten-concat" and not all(f):
            raise ContractError(f"{where}: a flatten-concat group reads a shared input")
        flags.append(tuple(f))
    return groups, flags


def compile_step(tape: Tape, k: int, loss: int, outs: Sequence[int], fed: Sequence[int] = ()) -> Callable:
    """One straight-line function for the forward and backward of ``tape``'s step for k clients at once.

    ``tape`` gives the step's structure (ops, inputs, leaf shapes, scale
    constants, params, the declared lanes); ``fed`` names the leaves the
    caller passes anew on every call. The function takes a value of every
    leaf per client, constants included, in tape order, stacked on a
    leading client axis, (k, *recorded shape),
    except that the leaves of a group of S lanes (see ``_declared``: the
    snapshot heads, or a fed batch and its augmented view) come as one
    argument, also stacked on axis 1, (k, S, *recorded shape); a declaration
    that breaks a rule of ``_declared`` raises ContractError. Its ``leaves``
    attribute lists each argument's leaves, and a ShapeError names the first
    argument that differs. It returns the values of ``outs`` and one gradient per
    parameter leaf, in ``tape.params`` order, with the client axis in front.
    Slice i equals bit for bit what recording the step on client i's values
    and calling ``backward`` would give, each slice being row-major as the
    tape's leaves are: it issues the forward rules' kernels and
    ``backward``'s sweep, one kernel per group of lanes, adds every adjoint's terms in ``backward``'s order (a shared input's terms from a
    group lane by lane, an unbroadcast one included), and resolves the
    ``needs`` masks, unbroadcasts and flatten-concat slices once. Whether a
    backward line reads a runtime value is decided as it is emitted: the
    loss seed, and what the ``_VALUE_FREE`` ops (add, sub, scale-by-constant,
    transpose, the reductions' fills, flatten-concat slices) and lane stacks
    make of it alone, do not. Such a line is evaluated here, once, by the
    same expression on zero stand-ins laid out as the recorded values (an
    op's value may be a transposed view), and bound as a read-only constant
    ``K<variable>``, which later lines name; a parameter gradient that is
    one is returned as that read-only array. An l2-norm's adjoint takes its
    zero-norm subgradient only on a call where some slice's norm is zero. Functions are cached by
    structure and k; the generated source, whose backward starts at its
    ``# backward`` line, is the function's ``source`` attribute.
    """
    outs, fed = tuple(outs), tuple(fed)
    key = (k, *_structure(tape, loss, outs, fed))
    step = _STEP_CACHE.get(key)
    if step is not None:
        return step
    ops, inputs = tape.ops, tape.inputs
    last = max((loss, *outs))
    sweep = _sweep(tape, loss)
    terms: dict[int, list[tuple[int, int]]] = {}  # each adjoint's terms (consumer, input), in backward's order
    has_adjoint = {loss}
    for nid, in_needs in sweep:
        if nid in has_adjoint:
            for p, (iid, need) in enumerate(zip(inputs[nid], in_needs)):
                if need:
                    terms.setdefault(iid, []).append((nid, p))
                    has_adjoint.add(iid)
    groups, flags = _declared(tape, loss, set(fed), has_adjoint)
    lane = {m: (gi, j) for gi, g in enumerate(groups) for j, m in enumerate(g)}
    tails = {m for g in groups for m in g[1:]}  # lanes computed along with their group's first
    leaves = [nid for nid, kind in enumerate(ops) if kind == LEAF and nid not in tails]
    args = tuple(tuple(groups[lane[nid][0]]) if nid in lane else (nid,) for nid in leaves)
    arg_names = [f"L{ids[0]}" if len(ids) > 1 else f"v{ids[0]}" for ids in args]
    shapes = tuple((k, *(len(ids),) * (len(ids) > 1), *tape.vals[ids[0]].shape) for ids in args)
    shape_vars = "".join(f"{v}.shape, " for v in arg_names)
    body = [f"if ({shape_vars}) != shapes:", f"    shape_error([{', '.join(arg_names)}])"]
    # a lane that anything but its group's own lane ops reads is bound as a view
    alone = set(outs) | {
        i for c in range(last + 1) for q, i in enumerate(inputs[c])
        if i in lane and not (c in lane and flags[lane[c][0]][q])
    }

    def names(nid):
        if nid not in lane:
            return _names(tape, nid, (k,), [(f"v{i}", (k,)) for i in inputs[nid]])
        gi = lane[nid][0]
        lead = (k, len(groups[gi]))
        return _names(tape, nid, lead, [
            (f"L{groups[lane[i][0]][0]}", lead) if is_lane else (f"v{i}", (k, 1))
            for i, is_lane in zip(inputs[nid], flags[gi])
        ])

    for nid in range(last + 1):
        if ops[nid] != LEAF and nid not in tails:
            nm, i = names(nid), inputs[nid][0]
            if ops[nid] == "exp" and ops[i] == "log-softmax-rows" and (i in lane) == (nid in lane):
                body.append(f"{nm['o']} = m{nm['A'] if nid in lane else i}")  # the softmax it saved
            else:
                body.extend(t.format(**nm) for t in _OPS[ops[nid]].fw_src)
        if nid in lane and nid not in tails:
            g = groups[lane[nid][0]]
            body.extend(f"v{m} = L{g[0]}[:, {j}]" for j, m in enumerate(g) if m in alone)
    body.append("# backward")

    # a folded line's namespace: kernels, constants, and zeros laid out as the recorded values
    # for a step variable it names, which a value-free template reads for its shape alone
    class StandIns(dict):
        def __missing__(self, name):
            if name[0] not in "vL":
                raise KeyError(name)
            ids = groups[lane[int(name[1:])][0]] if name[0] == "L" else [int(name[1:])]
            per_lane = [np.stack([np.zeros_like(tape.vals[m])] * k) for m in ids]
            return per_lane[0] if name[0] == "v" else np.concatenate([p[:, None] for p in per_lane], axis=1)

    consts: dict[str, Array] = {}  # the folded lines' values, by "K<variable>"
    folded: set[str] = set()  # the variables whose value now is that constant
    ref = lambda var: f"K{var}" if var in folded else var  # noqa: E731

    def emit(var, expr, fold):  # a folded line is evaluated here, once, and bound read-only as K<var>
        if fold:
            value = consts[f"K{var}"] = eval(expr, StandIns(_KERNELS, **consts))
            value.flags.writeable = False
            folded.add(var)
        else:
            body.append(f"{var} = {expr}")
            folded.discard(var)

    emit(f"g{loss}", f"ones_like(v{loss})", True)

    # Every adjoint adds its terms in backward's order, each once it is ready.
    # A group's adjoint is one (k, S, ...) array when each lane's terms come
    # lane by lane from the same groups; otherwise its lanes add up apart and
    # are stacked, and a term a group gives to a single node is one slice.
    def aligned(g):
        lists = [terms.get(m, []) for m in g]
        return len(set(map(len, lists))) == 1 and all(
            c in lane and list(col) == [(h, p) for h in groups[lane[c][0]]] for col in zip(*lists) for c, p in col[:1]
        )

    whole = {gi for gi, g in enumerate(groups) if aligned(g)}
    ready, added = {}, {}  # each term's source and whether it folds, by (consumer, input); terms added so far by node

    def offer(c, p, expr, fold):
        t = inputs[c][p]
        var = f"G{t}" if t in lane and lane[t][0] in whole else f"g{t}"
        ready[c, p] = expr, fold
        n = added.get(t, 0)
        while n < len(terms[t]) and terms[t][n] in ready:
            e, f = ready.pop(terms[t][n])
            emit(var, f"{ref(var)} + ({e})" if n else e, f and (not n or var in folded))
            n += 1
        added[t] = n

    # The seed folds; so does a term whose op is value-free and whose consumer's adjoint is
    # folded, an adjoint while all its terms so far do, and a lane stack whose lanes all do.
    for nid, in_needs in sweep:
        if nid not in has_adjoint or nid in tails:
            continue
        gi = lane.get(nid, (None,))[0]
        if nid in lane and gi not in whole:
            lanes = [f"g{m}" for m in groups[gi]]
            stack = ", ".join(f"{ref(v)}[:, None]" for v in lanes)
            emit(f"G{nid}", f"concatenate([{stack}], axis=1)", folded.issuperset(lanes))
        nm = names(nid)
        fold = ops[nid] in _VALUE_FREE and nm["g"] in folded
        nm["g"] = ref(nm["g"])
        for p, expr in enumerate(_grad_exprs(tape, nid, in_needs, nm)):
            if expr is None:
                continue
            if nid not in lane or flags[gi][p] and lane[inputs[nid][p]][0] in whole:
                offer(nid, p, expr, fold)
                continue
            emit(f"C{nid}_{p}", expr, fold)
            for j, m in enumerate(groups[gi]):
                offer(m, p, f"{ref(f'C{nid}_{p}')}[:, {j}]", fold)
    grads = "".join(f"{ref(f'g{p}')}, " if p in has_adjoint else f"zeros_like(v{p}), " for p in tape.params)
    body.append(f"return ({''.join(f'v{nid}, ' for nid in outs)}), ({grads})")
    source = f"def step({', '.join(arg_names)}):\n" + "".join(f"    {line}\n" for line in body)

    def shape_error(values):
        for ids, shape, value in zip(args, shapes, values):
            if value.shape != shape:
                what = f"leaf {ids[0]}" if len(ids) == 1 else f"lanes of leaves {ids}"
                raise ShapeError(f"compiled step: {what} was recorded with dims {shape}, got {value.shape}")

    namespace = {**_KERNELS, **consts, "shapes": shapes, "shape_error": shape_error}
    exec(compile(source, "<compiled step>", "exec"), namespace)
    step = namespace["step"]
    step.source, step.leaves = source, args
    _remember(_STEP_CACHE, key, step)
    return step


def finite_diff_grad(f: Callable[[Array], float], theta, h: float) -> Array:
    """Central-difference gradient, the reference oracle for backward().

    ``f`` maps a flat parameter vector to a scalar; the step ``h`` is applied
    one coordinate at a time: (f(t + h e_k) - f(t - h e_k)) / (2h).
    """
    if not (math.isfinite(h) and h > 0.0):
        raise UsageError(f"finite_diff_grad: step must be finite and positive, got {h}")
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
