from __future__ import annotations

import math

import numpy as np
import pytest

from qsdde.qnet import (DimensionError, QNetSpec, _forward, _vjp, init_theta,
                        max_q_by_state, pair_heads, q_values_batch)

from conftest import saturated_theta
from oracles import dense_jacobian, fd_grad, loop_forward, loop_vjp, pair_inputs


def _q(net, theta, s, a):
    """Q(s, a; theta) through the kernel."""
    return q_values_batch(net, theta[None, :], np.array([[s, a]]))[0, 0]


def _grad(net, theta, s, a):
    """grad Q(s, a; theta) through the kernel."""
    return q_values_batch(net, theta[None, :], np.array([[s, a]]), with_grad=True)[1][0, 0]


def test_zero_theta_gives_zero_output(net):
    assert _q(net, np.zeros(net.d), 0, 0) == 0.0


def test_output_strictly_bounded(net):
    rng = np.random.default_rng(2)
    thetas = 5.0 * rng.standard_normal((10_000, net.d))
    q = q_values_batch(net, thetas, np.array([[1, 1]]))[:, 0]
    assert np.all(np.abs(q) < net.bound)


def test_hand_evaluated_single_hidden_unit():
    # 1 state, 1 action, one hidden unit: Q = C*tanh((w2*sigmoid(w1.x + b1) + b2)/2)
    net = QNetSpec(n_states=1, n_actions=1, hidden=(1,), bound=3.0)
    assert net.d == 5  # w1 (1x2), b1, w2 (1x1), b2
    w1 = np.array([0.7, -0.4])
    b1, w2, b2 = 0.2, 1.3, -0.5
    theta = np.array([w1[0], w1[1], b1, w2, b2])
    # input one-hot of (s=0, a=0) is (1, 1)
    z1 = w1[0] * 1.0 + w1[1] * 1.0 + b1
    h = 1.0 / (1.0 + math.exp(-z1))
    z2 = w2 * h + b2
    expected = 3.0 * (2.0 / (1.0 + math.exp(-z2)) - 1.0)
    assert _q(net, theta, 0, 0) == pytest.approx(expected, rel=1e-14)


def test_gradient_matches_finite_differences(net):
    rng = np.random.default_rng(11)
    for _ in range(25):
        theta = rng.standard_normal(net.d)
        s = int(rng.integers(net.n_states))
        a = int(rng.integers(net.n_actions))
        g = _grad(net, theta, s, a)
        g_fd = fd_grad(net, theta, s, a)
        assert np.linalg.norm(g_fd - g) / max(np.linalg.norm(g), 1e-12) < 1e-6


def test_vjp_matches_jacobian_contraction():
    # one reverse pass of the parameter-major kernel with a random cotangent
    # equals the cotangent contracted with the dense oracle's per-head
    # Jacobian; unit cotangents reproduce grad Q
    rng = np.random.default_rng(12)
    for S, A, hidden in ((3, 2, (4,)), (2, 3, (3, 5)), (1, 1, (1,)), (3, 2, (3, 2))):
        net = QNetSpec(n_states=S, n_actions=A, hidden=hidden, bound=7.0)
        thetas = rng.standard_normal((16, net.d))
        _, jac = dense_jacobian(net, thetas, pair_inputs(net, 16))
        cot = rng.standard_normal((16, S * A))
        want = np.einsum("nk,nkd->nd", cot, jac)
        for heads in (None, tuple(pair_heads(net).T)):  # every pair, or listed
            _, cache = _forward(net, np.ascontiguousarray(thetas.T), heads)
            got = _vjp(net, cache, np.ascontiguousarray(cot.T)).T
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        for j in range(4):
            s, a = j % S, j % A
            g_fd = fd_grad(net, thetas[j], s, a)
            g = jac[j, s * A + a]
            assert np.linalg.norm(g_fd - g) / max(np.linalg.norm(g), 1e-12) < 1e-6


@pytest.mark.parametrize("S, A, hidden", [(3, 2, (4,)), (5, 2, (9, 3)), (7, 1, (4,)),
                                           (1, 3, (12,))])
@pytest.mark.parametrize("n", [1, 6])
def test_kernel_matches_the_loop_reference_bitwise(S, A, hidden, n):
    # every pair (the outer sum and its two reductions), the listed pair_heads
    # (the gather and the incidence product) and per-trajectory heads, three
    # or the chain's one, all add the same terms in the same order as loops
    net = QNetSpec(n_states=S, n_actions=A, hidden=hidden, bound=7.0)
    rng = np.random.default_rng(14)
    pairs = np.broadcast_to(pair_heads(net).T[:, :, None], (2, S * A, n))
    s, a = rng.integers(S, size=(3, n)), rng.integers(A, size=(3, n))
    for heads, (hs, ha) in 4 * ((None, pairs), (tuple(pair_heads(net).T), pairs),
                                ((s, a), (s, a)), ((s[:1], a[:1]), (s[:1], a[:1]))):
        thetas = rng.standard_normal((net.d, n))  # 4 draws: reordered sums can round alike
        q, cache = _forward(net, thetas, heads)
        q_ref, cache_ref = loop_forward(net, thetas, hs, ha)
        assert q.tobytes() == q_ref.tobytes()
        cot = rng.standard_normal(q.shape)
        assert _vjp(net, cache, cot).tobytes() == \
            loop_vjp(net, thetas, hs, ha, cache_ref, cot).tobytes()


@pytest.mark.parametrize("heads", ["every pair", "shared", "per trajectory", "one head"])
def test_wide_net_is_batch_independent(heads):
    # K = 10 heads and a 9-unit layer: past the 8 terms from which
    # np.add.reduce adds pairwise once the summed axis is the innermost one
    # left, as it is for a single trajectory.  Each trajectory alone must
    # reproduce its column of the 7-trajectory batch bit for bit.
    net = QNetSpec(n_states=5, n_actions=2, hidden=(9, 3), bound=7.0)
    rng = np.random.default_rng(15)
    n = 7
    K = {"one head": 1}.get(heads, 10)
    thetas = rng.standard_normal((net.d, n))
    s, a = rng.integers(5, size=(K, n)), rng.integers(2, size=(K, n))

    def heads_of(cut):  # of the trajectories in the slice cut
        return {"every pair": None, "shared": tuple(pair_heads(net).T)}.get(
            heads, (s[:, cut], a[:, cut]))

    cot = rng.standard_normal((K, n))
    q, cache = _forward(net, thetas, heads_of(slice(None)))
    g = _vjp(net, cache, cot)
    for j in range(n):
        q1, cache1 = _forward(net, thetas[:, j:j + 1].copy(), heads_of(slice(j, j + 1)))
        assert q1.tobytes() == q[:, j:j + 1].tobytes()
        assert _vjp(net, cache1, cot[:, j:j + 1]).tobytes() == g[:, j:j + 1].tobytes()


def test_per_trajectory_heads_match_dense_oracle():
    # (N, K, 2) heads, a different head set per trajectory and repeated
    # columns within a row, through q_values_batch; the oracle reads their
    # one-hot encodings
    rng = np.random.default_rng(13)
    for hidden in ((4,), (3, 2)):
        net = QNetSpec(n_states=3, n_actions=2, hidden=hidden, bound=7.0)
        n, K = 9, 4
        thetas = rng.standard_normal((n, net.d))
        heads = np.stack([rng.integers(3, size=(n, K)), rng.integers(2, size=(n, K))], axis=2)
        x = np.zeros((n, K, net.input_dim))
        idx = np.arange(n)[:, None], np.arange(K)[None, :]
        x[(*idx, heads[..., 0])] = 1.0
        x[(*idx, 3 + heads[..., 1])] = 1.0
        q, g = q_values_batch(net, thetas, heads, with_grad=True)
        q_ref, g_ref = dense_jacobian(net, thetas, x)
        assert np.abs(q - q_ref).max() <= 1e-13 * np.abs(q_ref).max()
        assert np.abs(g - g_ref).max() <= 1e-13 * np.abs(g_ref).max()


def test_q_values_batch_rejects_out_of_range_heads(net):
    # an index s = S would otherwise read the first layer's column of action 0
    thetas = np.zeros((2, net.d))
    S, A = net.n_states, net.n_actions
    for bad in ([[-1, 0]], [[0, -1]], [[S, 0]], [[0, A]], [[0.0, 1.0]]):
        with pytest.raises(ValueError):
            q_values_batch(net, thetas, np.array(bad))
        with pytest.raises(ValueError):  # per trajectory
            q_values_batch(net, thetas, np.array([[[0, 0]], bad]))
    for shape in ((6, 3), (6,), (3, 6, 2), (2, 1, 6, 2)):
        with pytest.raises(DimensionError):
            q_values_batch(net, thetas, np.zeros(shape, dtype=int))


def test_saturated_gradient_vanishes(net):
    g = _grad(net, saturated_theta(net), 0, 0)
    assert np.max(np.abs(g)) < 1e-15


def test_zero_last_layer_blocks_lower_gradients():
    net = QNetSpec(n_states=2, n_actions=2, hidden=(3,), bound=5.0)
    rng = np.random.default_rng(4)
    theta = init_theta(net, rng)
    (o, i) = net.layer_shapes[-1]
    out_w_start = net.d - o * i - o
    theta[out_w_start:out_w_start + o * i] = 0.0  # zero the output weights
    g = _grad(net, theta, 1, 0)
    # chain rule: all layers below the output layer receive exactly zero
    assert np.all(g[:out_w_start] == 0.0)
    # while the output layer's own weight and bias gradients are nonzero
    assert np.any(g[out_w_start:] != 0.0)


def _max_q(net, theta, s):
    """max_a Q(s, a; theta) from the kernel's (1, S) table."""
    return max_q_by_state(net, theta[None, :])[0, s]


def test_max_q_single_action():
    net = QNetSpec(n_states=2, n_actions=1, hidden=(2,), bound=1.0)
    theta = init_theta(net, np.random.default_rng(0))
    assert _max_q(net, theta, 0) == pytest.approx(_q(net, theta, 0, 0))


def test_max_q_tie_break_lowest_index(net):
    # all actions tie at theta = 0; the greedy pick (np.argmax, as in
    # run_algorithm1) takes the lowest index
    q, _ = _forward(net, np.zeros((net.d, 1)), (np.array([1, 1]), np.array([0, 1])))
    assert _max_q(net, np.zeros(net.d), 1) == 0.0 and int(np.argmax(q[:, 0])) == 0


def test_max_q_argmax_matches_presquash_argmax(net):
    # the output squash is strictly monotone, so the argmax over actions
    # equals the argmax of the pre-squash values artanh(q / bound)
    rng = np.random.default_rng(14)
    for _ in range(20):
        theta = init_theta(net, rng)
        s = int(rng.integers(net.n_states))
        q = [_q(net, theta, s, a) for a in range(net.n_actions)]
        pre = [np.arctanh(v / net.bound) for v in q]
        assert int(np.argmax(q)) == int(np.argmax(pre))


def test_max_q_matches_exhaustive_scan():
    net = QNetSpec(n_states=2, n_actions=4, hidden=(3,), bound=10.0)
    rng = np.random.default_rng(9)
    for _ in range(20):
        theta = init_theta(net, rng)
        s = int(rng.integers(net.n_states))
        scan = [_q(net, theta, s, a) for a in range(net.n_actions)]
        assert _max_q(net, theta, s) == max(scan)


def test_hessian_vector_products_symmetric(net):
    rng = np.random.default_rng(21)
    theta = init_theta(net, rng)
    u = rng.standard_normal(net.d)
    v = rng.standard_normal(net.d)
    h = 1e-5

    def hvp(direction):
        return (_grad(net, theta + h * direction, 1, 1)
                - _grad(net, theta - h * direction, 1, 1)) / (2 * h)

    uhv = float(u @ hvp(v))
    vhu = float(v @ hvp(u))
    assert abs(uhv - vhu) / max(abs(uhv), 1e-12) < 1e-4


def test_dimension_mismatch_raises(net):
    with pytest.raises(DimensionError):
        _q(net, np.zeros(net.d + 1), 0, 0)
    with pytest.raises(DimensionError):
        _grad(net, np.zeros(3), 0, 0)


@pytest.mark.parametrize("args, field", [
    ((2, 2, (), 1.0), "hidden"), ((2, 2, (0,), 1.0), "hidden"), ((2, 2, (2,), -1.0), "bound"),
    ((3, 2, (4.7,), 1.0), "hidden"), ((3, 2, (True,), 1.0), "hidden"),
    ((3, 2, (4,), True), "bound"), ((3, 2, (4,), float("inf")), "bound"),
    ((3, 2, (4,), "5"), "bound"), ((2.5, 2, (4,), 1.0), "n_states"),
    ((0, 2, (4,), 1.0), "n_states"), ((2, True, (4,), 1.0), "n_actions"),
    ((2, 2, 4, 1.0), "hidden"),
])
def test_degenerate_net_rejected(args, field):
    # the config's rules: no truncation to an integer, no bool as a number
    with pytest.raises(ValueError, match=f"^{field} must be "):
        QNetSpec(*args)


def test_net_spec_normalises_its_fields():
    net = QNetSpec(np.int64(3), 2, [np.int32(4)], 7)
    assert (net.n_states, net.hidden, net.bound) == (3, (4,), 7.0)
    assert type(net.n_states) is int and type(net.hidden[0]) is int

