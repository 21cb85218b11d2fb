"""Dispatch floor: one recorded step's numpy kernels, issued bare.

Given a tape recorded by one training step and its loss node, this module
writes straight-line Python that issues the same forward and backward numpy
kernels as ``fedgm.autodiff`` on the recorded leaf values, with every shape
decision, ``needs`` mask and adjoint accumulation resolved ahead of time.
What remains is the cost of the kernels plus one bytecode dispatch each: the
least any engine built on numpy calls could spend on that step. The
generated step is checked bit for bit against the tape's forward values and
against ``fedgm.autodiff.backward`` before it is timed.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

from fedgm.autodiff import LEAF


def _unbroadcast(expr: str, grad_shape: tuple, shape: tuple) -> str:
    """Static form of autodiff._unbroadcast for known shapes."""
    if grad_shape == shape:
        return expr
    extra = len(grad_shape) - len(shape)
    if extra:
        expr = f"{expr}.sum(axis={tuple(range(extra))!r})"
        grad_shape = grad_shape[extra:]
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad_shape[i] != 1)
    if axes:
        expr = f"{expr}.sum(axis={axes!r}, keepdims=True)"
    return expr


def _forward_lines(tape, nid: int) -> list[str]:
    kind = tape.ops[nid]
    a, *rest = [f"v{i}" for i in tape.inputs[nid]]
    b = rest[0] if rest else None
    o = f"v{nid}"
    simple = {
        "add": f"{a} + {b}",
        "sub": f"{a} - {b}",
        "elementwise-mul": f"{a} * {b}",
        "div": f"{a} / {b}",
        "matmul": f"{a} @ {b}",
        "transpose": f"{a}.T",
        "exp": f"exp({a})",
        "reduce-sum": f"{a}.sum()",
        "reduce-mean": f"{a}.mean()",
        "dot": f"{a}.ravel() @ {b}.ravel()",
    }
    if kind in simple:
        return [f"{o} = {simple[kind]}"]
    if kind == "scale-by-constant":
        return [f"{o} = {a} * {tape.saved[nid]!r}"]
    if kind == "relu":
        return [f"{o} = maximum({a}, 0.0)", f"m{nid} = {a} > 0.0"]
    if kind == "log-softmax-rows":
        return [
            f"s{nid} = {a} - {a}.max(axis=1, keepdims=True)",
            f"{o} = s{nid} - log(exp(s{nid}).sum(axis=1, keepdims=True))",
            f"m{nid} = exp({o})",
        ]
    if kind == "l2-norm":
        return [f"r{nid} = {a}.ravel()", f"{o} = sqrt(float(r{nid} @ r{nid}))"]
    if kind == "flatten-concat":
        parts = ", ".join(f"v{i}.ravel()" for i in tape.inputs[nid])
        return [f"{o} = concatenate(({parts},))"]
    raise ValueError(f"no bare kernel for op tag '{kind}'")


def _backward_grads(tape, nid: int, needs) -> list[str | None]:
    """One expression per input (None where no gradient is needed)."""
    kind = tape.ops[nid]
    ids = tape.inputs[nid]
    g = f"g{nid}"
    gshape = tape.vals[nid].shape
    shp = [tape.vals[i].shape for i in ids]
    want = [bool(needs[i]) for i in ids]
    v = [f"v{i}" for i in ids]

    def unb(expr, k):
        return _unbroadcast(expr, gshape, shp[k])

    if kind == "add":
        exprs = [unb(g, 0), unb(g, 1)]
    elif kind == "sub":
        exprs = [unb(g, 0), unb(f"(-{g})", 1)]
    elif kind == "elementwise-mul":
        exprs = [unb(f"({g} * {v[1]})", 0), unb(f"({g} * {v[0]})", 1)]
    elif kind == "div":
        exprs = [unb(f"({g} / {v[1]})", 0), unb(f"(-{g} * {v[0]} / ({v[1]} * {v[1]}))", 1)]
    elif kind == "scale-by-constant":
        exprs = [f"{g} * {tape.saved[nid]!r}"]
    elif kind == "matmul":
        exprs = [f"{g} @ {v[1]}.T", f"{v[0]}.T @ {g}"]
    elif kind == "transpose":
        exprs = [f"{g}.T"]
    elif kind == "relu":
        exprs = [f"{g} * m{nid}"]
    elif kind == "exp":
        exprs = [f"{g} * v{nid}"]
    elif kind == "log-softmax-rows":
        exprs = [f"{g} - m{nid} * {g}.sum(axis=1, keepdims=True)"]
    elif kind == "reduce-sum":
        exprs = [f"full_like({v[0]}, float({g}))"]
    elif kind == "reduce-mean":
        exprs = [f"full_like({v[0]}, float({g}) / {tape.vals[ids[0]].size})"]
    elif kind == "dot":
        exprs = [
            f"(float({g}) * {v[1]}).reshape({shp[0]!r})",
            f"(float({g}) * {v[0]}).reshape({shp[1]!r})",
        ]
    elif kind == "l2-norm":
        if float(tape.vals[nid]) == 0.0:
            exprs = [f"zeros_like({v[0]})"]
        else:
            exprs = [f"{v[0]} * (float({g}) / float(v{nid}))"]
    elif kind == "flatten-concat":
        exprs, offset = [], 0
        for s in shp:
            size = int(np.prod(s)) if s else 1
            exprs.append(f"{g}[{offset}:{offset + size}].reshape({s!r})")
            offset += size
    else:
        raise ValueError(f"no bare kernel for op tag '{kind}'")
    if kind in ("scale-by-constant", "transpose", "relu", "exp", "log-softmax-rows",
                "reduce-sum", "reduce-mean", "l2-norm"):
        return exprs  # single-input rules compute their gradient unconditionally
    return [e if w else None for e, w in zip(exprs, want)]


def build_step(tape, loss: int):
    """Compile the bare forward+backward of ``tape`` up to ``loss``.

    Returns ``(step, source)``; ``step()`` returns the forward values of
    every op node and the gradient of every parameter leaf, both keyed by
    node id.
    """
    ops, inputs = tape.ops, tape.inputs
    n = loss + 1
    needs = bytearray(n)
    for pid in tape.params:
        if pid < n:
            needs[pid] = 1
    for nid in range(n):
        if ops[nid] != LEAF and any(needs[i] for i in inputs[nid]):
            needs[nid] = 1

    leaves = [nid for nid in range(n) if ops[nid] == LEAF]
    body: list[str] = []
    for nid in range(n):
        if ops[nid] != LEAF:
            body.extend(_forward_lines(tape, nid))
    body.append(f"g{loss} = ones_like(v{loss})")
    has_adjoint = {loss}
    for nid in range(loss, -1, -1):
        if nid not in has_adjoint or not needs[nid] or ops[nid] == LEAF:
            continue
        for iid, expr in zip(inputs[nid], _backward_grads(tape, nid, needs)):
            if expr is None:
                continue
            if iid in has_adjoint:
                body.append(f"g{iid} = g{iid} + {expr}")
            else:
                body.append(f"g{iid} = {expr}")
                has_adjoint.add(iid)
    op_nodes = [nid for nid in range(n) if ops[nid] != LEAF]
    fwd = ", ".join(f"{i}: v{i}" for i in op_nodes)
    grads = ", ".join(
        f"{p}: g{p}" if p in has_adjoint else f"{p}: zeros_like(v{p})" for p in tape.params if p < n
    )
    body.append(f"return {{{fwd}}}, {{{grads}}}")

    kernels = {
        "exp": np.exp, "log": np.log, "maximum": np.maximum, "concatenate": np.concatenate,
        "full_like": np.full_like, "ones_like": np.ones_like, "zeros_like": np.zeros_like,
        "sqrt": math.sqrt,
    }
    bound = {f"v{i}": tape.vals[i] for i in leaves}
    params = ", ".join(f"{k}={k}" for k in (*kernels, *bound))
    source = f"def step({params}):\n" + "".join(f"    {line}\n" for line in body)
    namespace = {**kernels, **bound}
    exec(compile(source, "<dispatch-floor>", "exec"), namespace)
    return namespace["step"], source


def verify(step, tape, grads: dict) -> list[str]:
    """Bitwise agreement of the bare step with the tape and backward()."""
    fwd, bare_grads = step()
    problems = []
    for nid, val in fwd.items():
        if not np.array_equal(np.asarray(val), tape.vals[nid]):
            problems.append(f"forward value of node {nid} ({tape.ops[nid]}) differs")
    for pid, g in grads.items():
        if not np.array_equal(bare_grads[pid], g):
            problems.append(f"gradient of parameter node {pid} differs")
    return problems


def floor_us(step, reps: int) -> float:
    """Median wall time of one bare step, in microseconds."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        step()
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e6
