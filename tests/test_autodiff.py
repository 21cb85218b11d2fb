import math

import numpy as np
import pytest

import fedgm.autodiff as ad
from fedgm.autodiff import OP_TAGS, Tape, backward, finite_diff_grad, op_apply
from fedgm.errors import ContractError, OracleError, ShapeError, UsageError


def test_relu_forward():
    t = Tape()
    x = t.constant([-1.0, 2.0])
    assert np.array_equal(t.value(ad.relu(t, x)), [0.0, 2.0])


def test_matmul_identity():
    t = Tape()
    a = t.constant(np.eye(2))
    b = t.constant([[1.5, -2.0], [3.0, 4.0]])
    out = t.value(ad.matmul(t, a, b))
    assert np.array_equal(out, [[1.5, -2.0], [3.0, 4.0]])


def test_log_softmax_uniform_row():
    t = Tape()
    z = t.constant([[0.0, 0.0]])
    out = t.value(ad.log_softmax_rows(t, z))
    assert np.allclose(out, [[-math.log(2), -math.log(2)]], atol=1e-15)


def test_log_softmax_rows_sum_to_one_extreme_logits():
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = rng.uniform(-1e3, 1e3, size=(5, 7))
        t = Tape()
        out = t.value(ad.log_softmax_rows(t, t.constant(z)))
        sums = np.exp(out).sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-12


def test_unknown_op_tag():
    t = Tape()
    x = t.constant([1.0])
    with pytest.raises(UsageError, match="unknown op"):
        op_apply(t, "hadamard", (x,))


def test_shape_error_names_op_and_dims():
    t = Tape()
    a = t.constant(np.ones((2, 3)))
    b = t.constant(np.ones((4, 5)))
    with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(4, 5\)"):
        ad.matmul(t, a, b)


@pytest.mark.parametrize(
    "kind, inputs",
    [
        ("exp", lambda w, v: (w, v)),  # a second input its rules never read
        ("add", lambda w, v: (w,)),
        ("flatten-concat", lambda w, v: ()),
        ("flatten-concat", lambda w, v: (w,)),
        ("flatten-concat", lambda w, v: (w, v, w)),
        ("exp", lambda w, v: -1),
        ("exp", lambda w, v: (v + 1,)),  # past the end of the tape
        ("exp", lambda w, v: (True,)),
        ("exp", lambda w, v: (1.0,)),
    ],
    ids=[
        "exp-two-inputs", "add-one-input", "concat-no-input", "concat-one-input", "concat-three-inputs",
        "negative", "past-end", "bool", "float",
    ],
)
def test_op_apply_takes_the_node_ids_its_rules_read(kind, inputs):
    t = Tape()
    w = t.leaf([1.0, 2.0], param=True)
    v = t.leaf([3.0, 4.0], param=True)
    with pytest.raises(UsageError, match=rf"^{kind}: "):
        op_apply(t, kind, inputs(w, v))
    assert len(t) == 2


@pytest.mark.parametrize("kind", ad.OP_TAGS)
def test_every_op_takes_exactly_one_input_per_adjoint_template(kind):
    arity = len(ad._OPS[kind].bw_src)
    assert arity >= 1
    t = Tape()
    w = t.leaf([1.0, 2.0], param=True)
    for n in (arity - 1, arity + 1):
        with pytest.raises(UsageError) as err:
            op_apply(t, kind, (w,) * n, 2.0)
        assert str(err.value) == f"{kind}: wrong number of inputs: expected {arity}, got {n}"
    assert len(t) == 1


def test_op_apply_takes_numpy_integer_ids():
    t = Tape()
    w = t.leaf([1.0, 2.0], param=True)
    a = op_apply(t, "exp", np.int64(w))
    b = op_apply(t, "add", (np.int32(a), np.int64(w)))
    c = op_apply(t, "flatten-concat", np.array([a, b]))
    assert t.inputs[1:] == [(w,), (a, w), (a, b)]
    assert np.array_equal(backward(t, ad.reduce_sum(t, c))[w], 2.0 * np.exp([1.0, 2.0]) + 1.0)


@pytest.mark.parametrize("kind", ["add", "sub", "elementwise-mul", "div"])
def test_elementwise_shape_error_names_the_tag(kind):
    t = Tape()
    a = t.constant(np.ones((2, 3)))
    b = t.constant(np.ones((4, 5)))
    with pytest.raises(ShapeError) as err:
        op_apply(t, kind, (a, b))
    assert str(err.value) == f"{kind}: dims (2, 3) and (4, 5) are not conformable"


def test_backward_dot_self():
    t = Tape()
    w = t.leaf([1.0, 2.0], param=True)
    grads = backward(t, ad.dot(t, w, w))
    assert np.array_equal(grads[w], [2.0, 4.0])


def test_backward_mean_relu_subgradient():
    t = Tape()
    w = t.leaf([-1.0, 1.0], param=True)
    grads = backward(t, ad.reduce_mean(t, ad.relu(t, w)))
    assert np.array_equal(grads[w], [0.0, 0.5])


def test_relu_derivative_zero_at_zero():
    t = Tape()
    w = t.leaf([0.0], param=True)
    grads = backward(t, ad.reduce_sum(t, ad.relu(t, w)))
    assert np.array_equal(grads[w], [0.0])


def test_backward_one_minus_cosine_at_equal_vectors():
    # grad of 1 - cos(u, v) vanishes where u == v; checked against the
    # central-difference oracle at h = 1e-5.
    def build(theta):
        t = Tape()
        u = t.leaf(theta[:2], param=True)
        v = t.leaf(theta[2:], param=True)
        num = ad.dot(t, u, v)
        den = ad.add(t, ad.mul(t, ad.l2_norm(t, u), ad.l2_norm(t, v)), t.constant(1e-12))
        loss = ad.sub(t, t.constant(1.0), ad.div(t, num, den))
        return t, u, v, loss

    theta = np.array([3.0, 4.0, 3.0, 4.0])
    t, u, v, loss = build(theta)
    grads = backward(t, loss)
    flat = np.concatenate([grads[u], grads[v]])
    assert np.abs(flat).max() <= 1e-7

    def f(th):
        tp, *_, l = build(th)
        return float(tp.value(l))

    fd = finite_diff_grad(f, theta, 1e-5)
    assert np.abs(flat - fd).max() <= 1e-7


def test_backward_requires_scalar_loss():
    t = Tape()
    w = t.leaf([1.0, 2.0], param=True)
    out = ad.relu(t, w)
    with pytest.raises(ContractError, match="scalar"):
        backward(t, out)


def _two_layer(x, w_param=True, v_param=True):
    t = Tape()
    w = t.leaf(np.linspace(-1, 1, 6).reshape(3, 2), param=w_param)
    v = t.leaf(np.arange(2.0).reshape(2, 1), param=v_param)
    h = ad.relu(t, ad.matmul(t, t.constant(x), w))
    out = ad.matmul(t, h, v)
    return t, out, ad.reduce_sum(t, out), ad.reduce_mean(t, h)


def test_backward_schedule_is_shared_by_structure(monkeypatch):
    monkeypatch.setattr(ad, "_SWEEP_CACHE", {})
    t1, _, loss, mean = _two_layer(np.ones((4, 3)))
    first = ad._sweep(t1, loss)
    t2, *_ = _two_layer(np.full((4, 3), -2.0))  # other values, one structure
    assert ad._sweep(t2, loss) is first and len(ad._SWEEP_CACHE) == 1
    monkeypatch.setattr(ad, "_SWEEP_CACHE", {})
    assert ad._sweep(t2, loss) == first  # a hit gives what a fresh sweep gives
    # another loss, or another set of params, gets its own schedule
    assert ad._sweep(t1, mean) != first
    frozen_v, *_ = _two_layer(np.ones((4, 3)), v_param=False)
    assert ad._sweep(frozen_v, loss) != first
    assert len(ad._SWEEP_CACHE) == 3
    assert backward(frozen_v, loss).keys() == {0}
    for k in range(ad._STEP_CACHE_SIZE + 3):  # k constants before the parameter: k structures
        t = Tape()
        for _ in range(k):
            t.constant(1.0)
        ad._sweep(t, ad.reduce_sum(t, t.leaf(np.ones(2), param=True)))
    assert len(ad._SWEEP_CACHE) == ad._STEP_CACHE_SIZE


def test_backward_checks_its_loss_on_a_cached_schedule(monkeypatch):
    monkeypatch.setattr(ad, "_SWEEP_CACHE", {})
    t1, out, *_ = _two_layer(np.ones((1, 3)))
    backward(t1, out)  # a (1, 1) loss is a scalar
    t2, out, *_ = _two_layer(np.ones((4, 3)))  # the same structure, a (4, 1) loss
    with pytest.raises(ContractError, match="scalar"):
        backward(t2, out)


def test_backward_zero_for_unreachable_leaves():
    t = Tape()
    w = t.leaf([1.0, 2.0], param=True)
    unused = t.leaf(np.ones((2, 2)), param=True)
    grads = backward(t, ad.dot(t, w, w))
    assert np.array_equal(grads[unused], np.zeros((2, 2)))


def test_backward_deterministic_bitwise():
    def run():
        t = Tape()
        w = t.leaf(np.linspace(-1, 1, 6).reshape(2, 3), param=True)
        x = t.constant(np.arange(6.0).reshape(3, 2))
        z = ad.matmul(t, w, x)
        loss = ad.reduce_mean(t, ad.relu(t, z))
        return backward(t, loss)[w]

    a, b = run(), run()
    assert a.tobytes() == b.tobytes()


def test_finite_diff_dot_self():
    g = finite_diff_grad(lambda th: float(th @ th), [1.0, 2.0], 1e-5)
    assert np.abs(g - [2.0, 4.0]).max() <= 1e-8


def test_finite_diff_constant_function():
    g = finite_diff_grad(lambda th: 3.25, np.ones(4), 1e-5)
    assert np.array_equal(g, np.zeros(4))


def test_finite_diff_rejects_bad_step_and_nonfinite():
    # a NaN or infinite step is named as the step, not blamed on the function
    # (and a function that stays finite at infinity would give zeros)
    for h in (0.0, float("nan"), float("inf")):
        with pytest.raises(UsageError, match="step"):
            finite_diff_grad(lambda th: 0.0, [1.0], h)
    with pytest.raises(OracleError, match="coordinate 0"):
        finite_diff_grad(lambda th: float("nan"), [1.0], 1e-5)


def test_finite_diff_cross_entropy_fixed_batch():
    # the oracle agrees with backward on a fixed 2-class batch
    from fedgm.objective import cross_entropy, one_hot

    X = np.array([[0.8, -0.4], [-1.1, 0.6], [0.2, 2.0]])
    y = [0, 1, 1]
    w0 = np.array([[0.3, -0.7], [0.9, 0.1]])

    def run(w):
        t = Tape()
        w_id = t.leaf(w, param=True)
        z = ad.matmul(t, t.constant(X), ad.transpose(t, w_id))
        return t, w_id, cross_entropy(t, z, t.constant(one_hot(y, 2)))

    t, w_id, loss = run(w0)
    g_ad = backward(t, loss)[w_id].ravel()

    def f(theta):
        t2, _, loss2 = run(theta.reshape(2, 2))
        return float(t2.value(loss2))

    g_fd = finite_diff_grad(f, w0.ravel(), 1e-5)
    rel = np.abs(g_ad - g_fd) / np.maximum(np.abs(g_fd), 1e-12)
    assert rel.max() <= 1e-6


def _graph_structure(t, a, b, vec):
    """Fixed mix of every op tag; inputs are kept O(1) so the
    finite-difference oracle stays well conditioned."""
    m = ad.add(t, ad.mul(t, a, b), vec)          # broadcast add over rows
    m = ad.sub(t, m, ad.scale(t, a, 0.5))
    m = ad.relu(t, m)
    rows = t.value(a).shape[0]
    sq = ad.scale(t, ad.matmul(t, m, ad.transpose(t, b)), 1.0 / rows)
    ls = ad.log_softmax_rows(t, sq)
    p = ad.exp(t, ls)
    flat = ad.flatten_concat(t, (p, vec))
    d = ad.dot(t, flat, flat)
    n = ad.l2_norm(t, m)
    ratio = ad.div(t, d, ad.add(t, n, t.constant(0.1)))
    return ad.add(t, ad.add(t, ad.reduce_mean(t, sq), ad.scale(t, ad.reduce_sum(t, ls), 0.25)), ratio)


def test_random_graphs_match_finite_differences():
    used = set()
    rng = np.random.default_rng(2024)
    for _ in range(20):
        rows, cols = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        a0 = rng.normal(0, 0.6, (rows, cols))
        b0 = rng.normal(0, 0.6, (rows, cols))
        v0 = rng.normal(0, 0.6, cols)
        t = Tape()
        a = t.leaf(a0, param=True)
        b = t.leaf(b0, param=True)
        vec = t.leaf(v0, param=True)
        total = _graph_structure(t, a, b, vec)
        used.update(op for op in t.ops if op != "leaf")
        grads = backward(t, total)
        g_ad = np.concatenate([grads[x].ravel() for x in (a, b, vec)])

        def f(theta):
            t2 = Tape()
            a2 = t2.leaf(theta[: rows * cols].reshape(rows, cols), param=True)
            b2 = t2.leaf(theta[rows * cols : 2 * rows * cols].reshape(rows, cols), param=True)
            v2 = t2.leaf(theta[2 * rows * cols :], param=True)
            return float(t2.value(_graph_structure(t2, a2, b2, v2)))

        theta0 = np.concatenate([a0.ravel(), b0.ravel(), v0])
        g_fd = finite_diff_grad(f, theta0, 1e-5)
        err = np.abs(g_ad - g_fd)
        big = np.abs(g_fd) > 1e-6
        if big.any():
            assert (err[big] / np.abs(g_fd)[big]).max() <= 1e-5
        if (~big).any():
            assert err[~big].max() <= 1e-7
    # every tag participates across the sampled graphs
    assert used == set(OP_TAGS)
