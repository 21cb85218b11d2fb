import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedgm.autodiff as ad
from fedgm.autodiff import Tape, backward, finite_diff_grad
from fedgm.errors import ContractError, ShapeError, UsageError
from fedgm.model import HeadSnapshot, flatten, forward, init_params, stage_heads, stage_params, unflatten
from fedgm.objective import (
    averaged_ce,
    cosine_sim,
    cross_entropy,
    head_grad,
    inter_gm_loss,
    intra_gm_loss,
    local_loss,
    one_hot,
)


def _y(t, y, classes):
    """The node of labels ``y``'s one-hot matrix."""
    return t.constant(one_hot(y, classes))


def _ce_value(z, y):
    t = Tape()
    return float(t.value(cross_entropy(t, t.constant(z), _y(t, y, np.shape(z)[1]))))


def test_cross_entropy_uniform_two_classes():
    assert abs(_ce_value([[0.0, 0.0]], [0]) - math.log(2)) <= 1e-15


def test_cross_entropy_confident_correct():
    assert _ce_value([[30.0, 0.0]], [0]) < 1e-12


def test_cross_entropy_known_value():
    # -log softmax_0 of [1, 0] is log(1 + e^-1)
    expected = math.log(1.0 + math.exp(-1.0))
    assert abs(_ce_value([[1.0, 0.0]], [0]) - expected) <= 1e-15


def test_cross_entropy_label_out_of_range():
    t = Tape()
    z = t.constant([[0.0, 0.0]])
    with pytest.raises(UsageError, match="index 0"):
        cross_entropy(t, z, _y(t, [2], 2))


def test_head_grad_worked_example():
    # B=1, K=2, H=[[1,0]], zero head, true class 0:
    # P = [0.5, 0.5]; grad_W = [[-0.5, 0], [0.5, 0]]; grad_b = [-0.5, 0.5]
    t = Tape()
    h = t.constant([[1.0, 0.0]])
    g = t.value(head_grad(t, h, _y(t, [0], 2), np.zeros((2, 2)), np.zeros(2)))
    expected = np.array([-0.5, 0.0, 0.5, 0.0, -0.5, 0.5])
    assert np.abs(g - expected).max() <= 1e-15


def test_head_grad_matches_finite_differences_of_cross_entropy():
    H = np.array([[1.0, 0.0]])
    y = [0]

    def f(theta):
        w = theta[:4].reshape(2, 2)
        b = theta[4:]
        t = Tape()
        h = t.constant(H)
        z = ad.add(t, ad.matmul(t, h, ad.transpose(t, t.constant(w))), t.constant(b))
        return float(t.value(cross_entropy(t, z, _y(t, y, 2))))

    fd = finite_diff_grad(f, np.zeros(6), 1e-5)
    t = Tape()
    g = t.value(head_grad(t, t.constant(H), _y(t, y, 2), np.zeros((2, 2)), np.zeros(2)))
    assert np.abs(g - fd).max() <= 1e-10


def test_head_grad_confident_correct_is_tiny():
    t = Tape()
    h = t.constant([[1.0, 0.0]])
    w = np.array([[30.0, 0.0], [0.0, 0.0]])
    g = t.value(head_grad(t, h, _y(t, [0], 2), w, np.zeros(2)))
    assert np.linalg.norm(g) <= 1e-10


def test_head_grad_duplication_invariant():
    rng = np.random.default_rng(4)
    H = rng.normal(0, 1, (3, 4))
    w = rng.normal(0, 0.5, (3, 4))
    b = rng.normal(0, 0.2, 3)
    y = [0, 2, 1]
    t1 = Tape()
    g1 = t1.value(head_grad(t1, t1.constant(H), _y(t1, y, 3), w, b))
    t2 = Tape()
    g2 = t2.value(head_grad(t2, t2.constant(np.repeat(H, 2, axis=0)), _y(t2, np.repeat(y, 2), 3), w, b))
    assert np.abs(g1 - g2).max() <= 1e-14


def test_head_grad_rejects_a_non_conformable_head():
    t = Tape()
    with pytest.raises(ShapeError):
        head_grad(t, t.constant(np.ones((2, 3))), _y(t, [0, 1], 2), np.zeros((2, 4)), np.zeros(2))


def test_head_grad_snapshot_receives_no_adjoint_but_features_do():
    rng = np.random.default_rng(8)
    t = Tape()
    h = t.leaf(rng.normal(0, 1, (2, 3)), param=True)
    w = rng.normal(0, 1, (2, 3))  # frozen head
    b = np.zeros(2)
    g = head_grad(t, h, _y(t, [0, 1], 2), w, b)
    grads = backward(t, ad.dot(t, g, g))
    assert set(grads) == {h}
    assert np.linalg.norm(grads[h]) > 0
    # the head is on the tape only as constants, which take no adjoint
    head = [
        nid for nid, v in enumerate(t.vals)
        if t.ops[nid] == ad.LEAF and v.shape == w.shape and (v == w).all()
    ]
    assert head and not set(head) & set(t.params)


def _cos_value(u, v):
    t = Tape()
    return float(t.value(cosine_sim(t, t.constant(u), t.constant(v))))


def test_cosine_examples():
    # At unit norms the denominator epsilon shifts the value by exactly
    # eps/(1+eps) ~ 1e-12; the extra 1% covers rounding of the constant.
    assert abs(_cos_value([1.0, 0.0], [1.0, 0.0]) - 1.0) <= 1.01e-12
    assert _cos_value([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert abs(_cos_value([1.0, 0.0], [-2.0, 0.0]) + 1.0) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(
    u=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=8),
    v=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=8),
)
def test_cosine_bounded_property(u, v):
    n = min(len(u), len(v))
    c = _cos_value(u[:n], v[:n])
    assert -1.0 - 1e-9 <= c <= 1.0 + 1e-9


def test_cosine_scale_invariance():
    rng = np.random.default_rng(3)
    for _ in range(25):
        u = rng.normal(0, 1, 6)
        v = rng.normal(0, 1, 6)
        c = rng.uniform(0.1, 50.0)
        assert abs(_cos_value(c * u, c * v) - _cos_value(u, v)) <= 1e-9


def test_cosine_length_mismatch():
    t = Tape()
    with pytest.raises(ShapeError):
        cosine_sim(t, t.constant([1.0, 2.0]), t.constant([1.0, 2.0, 3.0]))


def test_intra_loss_extremes():
    t = Tape()
    g = t.constant([2.0, 0.0, 1.0])
    assert float(t.value(intra_gm_loss(t, g, g))) <= 1e-12
    t2 = Tape()
    a = t2.constant([1.0, 0.0])
    b = t2.constant([0.0, 1.0])
    assert abs(float(t2.value(intra_gm_loss(t2, a, b))) - 1.0) <= 1e-12
    t3 = Tape()
    a = t3.constant([1.0, 0.0])
    b = t3.constant([-3.0, 0.0])
    assert abs(float(t3.value(intra_gm_loss(t3, a, b))) - 2.0) <= 1e-9


def _live_head_instance(seed=0, scale=2.5):
    rng = np.random.default_rng(seed)
    H = scale * np.abs(rng.normal(0, 1, (4, 3)))
    w = rng.normal(0, 0.6, (3, 3))
    b = rng.normal(0, 0.2, 3)
    y = rng.integers(0, 3, 4)
    return H, w, b, y


def test_inter_loss_identical_snapshot_identity_augmentation():
    H, w, b, y = _live_head_instance()
    t = Tape()
    h, y_mat = t.constant(H), _y(t, y, 3)
    g_aug = head_grad(t, h, y_mat, w, b)  # identity augmentation: same batch
    snap = HeadSnapshot(0, w.copy(), b.copy())
    val = float(t.value(inter_gm_loss(t, g_aug, stage_heads(t, [snap]), h, y_mat)))
    assert val <= 1e-9


def test_inter_loss_orthogonal_snapshots_sum_to_two():
    # With B=1, H=[[1,0]], every snapshot gradient lies along
    # [1,0,-1,0,1,-1]; an augmented-batch gradient built from H_aug=[[-1,c]]
    # is exactly orthogonal to it, so each of the two terms is exactly 1.
    w_live = np.array([[0.4, -0.2], [0.1, 0.3]])
    b_live = np.array([0.05, -0.05])
    y = [0]
    t = Tape()
    h_orig = t.constant([[1.0, 0.0]])
    h_aug = t.constant([[-1.0, 0.5]])
    y_mat = _y(t, y, 2)
    g_aug = head_grad(t, h_aug, y_mat, w_live, b_live)
    snaps = [
        HeadSnapshot(0, np.array([[0.3, 0.0], [-0.1, 0.2]]), np.zeros(2)),
        HeadSnapshot(1, np.array([[-0.6, 0.4], [0.2, 0.1]]), np.array([0.1, 0.0])),
    ]
    val = float(t.value(inter_gm_loss(t, g_aug, stage_heads(t, snaps), h_orig, y_mat)))
    assert abs(val - 2.0) <= 1e-12


def test_inter_loss_matches_independent_recomputation():
    rng = np.random.default_rng(17)
    H_orig = rng.normal(0, 1, (5, 4))
    H_aug = rng.normal(0, 1, (5, 4))
    w = rng.normal(0, 0.5, (3, 4))
    b = rng.normal(0, 0.2, 3)
    y = rng.integers(0, 3, 5)
    snaps = [
        HeadSnapshot(j, rng.normal(0, 0.6, (3, 4)), rng.normal(0, 0.2, 3))
        for j in range(3)
    ]
    t = Tape()
    h_o, y_mat = t.constant(H_orig), _y(t, y, 3)
    g_aug = head_grad(t, t.constant(H_aug), y_mat, w, b)
    combined = float(t.value(inter_gm_loss(t, g_aug, stage_heads(t, snaps), h_o, y_mat)))
    # oracle: each term on its own tape
    total = 0.0
    g_aug_val = t.value(g_aug)
    for snap in snaps:
        ti = Tape()
        g_j = ti.value(head_grad(ti, ti.constant(H_orig), _y(ti, y, 3), snap.weight, snap.bias))
        ti2 = Tape()
        total += 1.0 - float(
            ti2.value(cosine_sim(ti2, ti2.constant(g_aug_val), ti2.constant(g_j)))
        )
    assert abs(combined - total) <= 1e-12


def test_inter_loss_normalize_divides_by_count():
    rng = np.random.default_rng(23)
    H = rng.normal(0, 1, (3, 2))
    w = rng.normal(0, 0.5, (2, 2))
    y = [0, 1, 0]
    snaps = [HeadSnapshot(j, rng.normal(0, 0.6, (2, 2)), np.zeros(2)) for j in range(4)]
    t = Tape()
    h, y_mat = t.constant(H), _y(t, y, 2)
    g_aug = head_grad(t, h, y_mat, w, np.zeros(2))
    heads = stage_heads(t, snaps)
    plain = float(t.value(inter_gm_loss(t, g_aug, heads, h, y_mat)))
    normed = float(t.value(inter_gm_loss(t, g_aug, heads, h, y_mat, normalize=True)))
    assert abs(normed - plain / 4.0) <= 1e-12


def test_inter_loss_empty_snapshots_rejected():
    t = Tape()
    g = t.constant([1.0, 0.0])
    with pytest.raises(ContractError):
        inter_gm_loss(t, g, [], t.constant([[1.0, 0.0]]), _y(t, [0], 2))


def _instance(seed=0, batch=4, arch=(3, 5, 4), classes=3, n_snaps=2, x_scale=1.5):
    rng = np.random.default_rng(seed)
    params = init_params(list(arch), classes, seed=int(rng.integers(0, 2**31)))
    X = rng.normal(0, x_scale, (batch, arch[0]))
    X_aug = X + rng.normal(0, 0.3, X.shape)
    y = rng.integers(0, classes, batch)
    snaps = [
        HeadSnapshot(j, rng.normal(0, 0.7, params.head_w.shape), rng.normal(0, 0.3, classes))
        for j in range(n_snaps)
    ]
    return params, snaps, X, X_aug, y


def _loss(t, params, snaps, X, X_aug, y, lam, **kwargs):
    """local_loss with ``params`` staged as leaves, the batches, the one-hot
    labels and the snapshot heads as constants."""
    staged = stage_params(t, params)
    x, x_aug, y_mat = t.constant(X), t.constant(X_aug), _y(t, y, params.classes)
    return local_loss(t, staged, stage_heads(t, snaps), x, x_aug, y_mat, lam, **kwargs)


def _terms(tape, nodes):
    """The value of each term local_loss returned the node of."""
    return {m: float(tape.value(nid)) for m, nid in nodes.items()}


def test_local_loss_lambda_one_ignores_snapshots():
    params, snaps, X, X_aug, y = _instance(seed=5)
    t1 = Tape()
    bd1 = _terms(t1, _loss(t1, params, snaps, X, X_aug, y, 1.0)[1])
    t2 = Tape()
    bd2 = _terms(t2, _loss(t2, params, [], X, X_aug, y, 1.0)[1])
    assert bd1["total"] == bd2["total"]


def test_local_loss_lambda_zero_identity_aug_live_copy():
    params, _, X, _, y = _instance(seed=6)
    snap = HeadSnapshot(0, params.head_w.copy(), params.head_b.copy())
    t = Tape()
    bd = _terms(t, _loss(t, params, [snap], X, X, y, 0.0)[1])
    assert bd["ce_aug"] == bd["ce_orig"]
    assert abs(bd["total"] - bd["ce_orig"]) <= 1e-9


def test_local_loss_breakdown_recomposition():
    for seed in range(5):
        params, snaps, X, X_aug, y = _instance(seed=seed)
        lam = [0.0, 0.3, 0.5, 0.8, 1.0][seed]
        t = Tape()
        bd = _terms(t, _loss(t, params, snaps, X, X_aug, y, lam)[1])
        recomposed = 0.5 * (bd["ce_orig"] + bd["ce_aug"]) + lam * bd["intra"] + (1 - lam) * bd["inter"]
        assert abs(bd["total"] - recomposed) <= 1e-12
        assert 0.0 <= bd["intra"] <= 2.0
        assert 0.0 <= bd["inter"] <= 2.0 * len(snaps)


def test_local_loss_empty_snapshots_round_one_rule():
    params, _, X, X_aug, y = _instance(seed=7)
    t = Tape()
    bd = _terms(t, _loss(t, params, [], X, X_aug, y, 0.3)[1])
    assert bd["inter"] == 0.0
    expected = 0.5 * (bd["ce_orig"] + bd["ce_aug"]) + 0.3 * bd["intra"]
    assert abs(bd["total"] - expected) <= 1e-12


def test_local_loss_lambda_range_checked():
    params, snaps, X, X_aug, y = _instance(seed=8)
    with pytest.raises(UsageError, match="lambda"):
        _loss(Tape(), params, snaps, X, X_aug, y, 1.5)


def test_local_loss_batch_shape_mismatch():
    params, snaps, X, X_aug, y = _instance(seed=9)
    with pytest.raises(ShapeError):
        _loss(Tape(), params, snaps, X, X_aug[:-1], y, 0.5)


@pytest.mark.parametrize("n_snaps", [0, 2])
def test_averaged_ce_is_local_loss_without_its_matching_terms(n_snaps):
    # the baseline records the objective's ops up to its total, input for
    # input and byte for byte, then one zero constant for both matching stats
    params, snaps, X, X_aug, y = _instance(seed=11, n_snaps=n_snaps)

    def matched(t, staged, heads, x, x_aug, y_mat):
        return local_loss(t, staged, heads, x, x_aug, y_mat, 0.5)

    recorded = []
    for record in (matched, averaged_ce):
        t = Tape()
        staged = stage_params(t, params)
        x, x_aug, y_mat = t.constant(X), t.constant(X_aug), _y(t, y, params.classes)
        recorded.append((t, record(t, staged, stage_heads(t, snaps), x, x_aug, y_mat)[1]))
    (t_gm, gm), (t_avg, avg) = recorded
    end = avg["total"] + 1
    assert t_avg.ops[:end] == t_gm.ops[:end] and t_avg.inputs[:end] == t_gm.inputs[:end]
    assert [v.tobytes() for v in t_avg.vals[:end]] == [v.tobytes() for v in t_gm.vals[:end]]
    assert t_avg.lanes == [lane for lane in t_gm.lanes if lane[3] <= end]
    assert [avg[m] for m in ("ce_orig", "ce_aug")] == [gm[m] for m in ("ce_orig", "ce_aug")]
    assert len(t_avg) == end + 1 and avg["intra"] == avg["inter"] == end
    assert t_avg.ops[end] == ad.LEAF and end not in t_avg.params and t_avg.value(end) == 0.0
    if not snaps:  # round 1: local_loss records its zero inter constant at the same place
        assert gm["inter"] == end and t_gm.vals[end].tobytes() == t_avg.vals[end].tobytes()


@pytest.mark.parametrize("normalize", [False, True])
def test_standalone_terms_give_local_loss_bits(normalize):
    # one spelling of the matching objective: the public routines on a batch
    # give the very bytes local_loss records for it
    params, snaps, X, X_aug, y = _instance(seed=12, n_snaps=3)
    t = Tape()
    _, nodes = _loss(t, params, snaps, X, X_aug, y, 0.3, inter_normalize=normalize)
    # local_loss's head gradients in recording order: g, g_aug, then one per snapshot
    recorded = [t.value(nid) for nid, op in enumerate(t.ops) if op == "flatten-concat"]
    s = Tape()
    staged = stage_params(s, params)
    y_mat = _y(s, y, params.classes)
    h_orig, _ = forward(s, staged, s.constant(X))
    h_aug, _ = forward(s, staged, s.constant(X_aug))
    g = head_grad(s, h_orig, y_mat, params.head_w, params.head_b)
    g_aug = head_grad(s, h_aug, y_mat, params.head_w, params.head_b)
    standalone = [g, g_aug] + [head_grad(s, h_orig, y_mat, snap.weight, snap.bias) for snap in snaps]
    assert len(recorded) == len(standalone)
    for want, nid in zip(recorded, standalone):
        assert s.value(nid).shape == want.shape and s.value(nid).tobytes() == want.tobytes()
    terms = {
        "intra": intra_gm_loss(s, g, g_aug),
        "inter": inter_gm_loss(s, g_aug, stage_heads(s, snaps), h_orig, y_mat, normalize=normalize),
    }
    for m, nid in terms.items():
        assert s.value(nid).tobytes() == t.value(nodes[m]).tobytes()
        assert float(s.value(nid)) == float(t.value(nodes[m]))


def test_head_grad_equals_autodiff_cross_entropy_gradient():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(50):
        batch = int(rng.integers(1, 9))
        d_h = int(rng.integers(2, 9))
        classes = int(rng.integers(2, 6))
        H = rng.normal(0, 1, (batch, d_h))
        w = rng.normal(0, 0.8, (classes, d_h))
        b = rng.normal(0, 0.3, classes)
        y = rng.integers(0, classes, batch)
        t = Tape()
        w_id = t.leaf(w, param=True)
        b_id = t.leaf(b, param=True)
        h_id = t.constant(H)
        z = ad.add(t, ad.matmul(t, h_id, ad.transpose(t, w_id)), b_id)
        grads = backward(t, cross_entropy(t, z, _y(t, y, classes)))
        auto = np.concatenate([grads[w_id].ravel(), grads[b_id].ravel()])
        t2 = Tape()
        closed = t2.value(head_grad(t2, t2.constant(H), _y(t2, y, classes), w, b))
        worst = max(worst, float(np.abs(closed - auto).max()))
    assert worst <= 1e-10


def _total_gradient(params, snaps, X, X_aug, y, lam):
    t = Tape()
    loss, _ = _loss(t, params, snaps, X, X_aug, y, lam)
    grads = backward(t, loss)
    return np.concatenate([grads[nid].ravel() for nid in t.params])


def test_local_loss_gradient_matches_finite_differences():
    # differentiation *through* the head-gradient expressions
    for seed, lam in [(1, 0.0), (2, 0.3), (3, 1.0)]:
        params, snaps, X, X_aug, y = _instance(seed=seed)
        g_ad = _total_gradient(params, snaps, X, X_aug, y, lam)

        def f(theta):
            t = Tape()
            loss, _ = _loss(
                t, unflatten(params.arch, params.classes, theta), snaps, X, X_aug, y, lam
            )
            return float(t.value(loss))

        g_fd = finite_diff_grad(f, flatten(params), 1e-5)
        err = np.abs(g_ad - g_fd)
        big = np.abs(g_fd) > 1e-6
        assert (err[big] / np.abs(g_fd)[big]).max() <= 1e-5
        if (~big).any():
            assert err[~big].max() <= 1e-7


def test_identity_augmentation_null():
    # with A = identity the intra loss is numerically zero and contributes
    # nothing to the total gradient (difference of lambda=1 vs lambda=0
    # gradients with the inter term disabled)
    params, _, X, _, y = _instance(seed=11, x_scale=2.5)
    t = Tape()
    bd = _terms(t, _loss(t, params, [], X, X, y, 1.0)[1])
    assert bd["intra"] <= 1e-12
    g1 = _total_gradient(params, [], X, X, y, 1.0)
    g0 = _total_gradient(params, [], X, X, y, 0.0)
    assert np.linalg.norm(g1 - g0) <= 1e-8


def _recording_inputs():
    """Every node the recording functions take, on one tape, and the arrays and labels behind them."""
    params, snaps, X, X_aug, y = _instance(seed=14)
    t = Tape()
    staged = stage_params(t, params)
    x, x_aug, y_mat = t.constant(X), t.constant(X_aug), _y(t, y, params.classes)
    h, z = forward(t, staged, x)
    w, b = params.head_w, params.head_b
    g_aug = head_grad(t, h, y_mat, w, b)
    return SimpleNamespace(
        t=t, params=params, staged=staged, snaps=stage_heads(t, snaps), arrays=snaps, X=X, x=x, x_aug=x_aug,
        y=list(y), y_mat=y_mat,
        h=h, H=t.value(h).copy(), z=z, Z=t.value(z).copy(), w=w, b=b, g_aug=g_aug,
    )


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda n: forward(n.t, n.staged, n.X), id="forward-batch-array"),
        pytest.param(lambda n: forward(n.t, n.params, n.x), id="forward-unstaged-params"),
        pytest.param(
            lambda n: local_loss(n.t, n.staged, n.snaps, n.X, n.x_aug, n.y_mat, 0.5), id="local_loss-batch-array"
        ),
        pytest.param(lambda n: local_loss(n.t, n.staged, n.snaps, n.x, n.x_aug, n.y, 0.5), id="local_loss-label-list"),
        pytest.param(
            lambda n: local_loss(n.t, n.params, n.snaps, n.x, n.x_aug, n.y_mat, 0.5), id="local_loss-unstaged"
        ),
        pytest.param(lambda n: cross_entropy(n.t, n.Z, n.y_mat), id="cross_entropy-logit-array"),
        pytest.param(lambda n: cross_entropy(n.t, n.z, n.y), id="cross_entropy-label-list"),
        # labels whose entries are all node ids of the tape are still not nodes
        pytest.param(lambda n: cross_entropy(n.t, n.z, [0]), id="cross_entropy-label-list-of-node-ids"),
        pytest.param(lambda n: head_grad(n.t, n.H, n.y_mat, n.w, n.b), id="head_grad-feature-array"),
        pytest.param(lambda n: head_grad(n.t, n.h, n.y, n.w, n.b), id="head_grad-label-list"),
        pytest.param(lambda n: inter_gm_loss(n.t, n.g_aug, n.snaps, n.H, n.y_mat), id="inter_gm_loss-feature-array"),
        pytest.param(lambda n: inter_gm_loss(n.t, n.g_aug, n.snaps, n.h, n.y), id="inter_gm_loss-label-list"),
        # the snapshot heads are staged by the caller, never read as arrays
        pytest.param(lambda n: inter_gm_loss(n.t, n.g_aug, n.arrays, n.h, n.y_mat), id="inter_gm_loss-head-arrays"),
        pytest.param(
            lambda n: local_loss(n.t, n.staged, n.arrays, n.x, n.x_aug, n.y_mat, 0.5), id="local_loss-head-arrays"
        ),
    ],
)
def test_recording_functions_take_nodes_only(call):
    # one calling convention: an array or a label list where a node belongs is
    # a usage error, never staged as a constant or read as labels
    n = _recording_inputs()
    with pytest.raises(UsageError, match="node id"):
        call(n)


@pytest.mark.parametrize("wrong", ["column", "one-row"])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda n, y: cross_entropy(n.t, n.z, y), id="cross_entropy"),
        pytest.param(lambda n, y: local_loss(n.t, n.staged, n.snaps, n.x, n.x_aug, y, 0.5), id="local_loss"),
        pytest.param(lambda n, y: head_grad(n.t, n.h, y, n.w, n.b), id="head_grad"),
        pytest.param(lambda n, y: inter_gm_loss(n.t, n.g_aug, n.snaps, n.h, y), id="inter_gm_loss"),
    ],
)
def test_one_hot_labels_must_have_the_logits_shape(call, wrong):
    # a (B, 1) column or a one-row one-hot would broadcast against the logits in mul, giving a wrong loss
    n = _recording_inputs()
    y_val = np.ones((len(n.y), 1)) if wrong == "column" else one_hot(n.y[:1], n.params.classes)
    with pytest.raises(ShapeError, match="one-hot labels of dims .* do not match the logits' dims"):
        call(n, n.t.constant(y_val))
