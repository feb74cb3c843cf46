from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest
from scipy.optimize import brentq

from qsdde.coeffs import (CoefficientError, delay_moments, estimate_constants,
                          exact_drift_b, head_stats, lowrank_ghat, sigma_matrix,
                          spd_sqrt, step_size_gate)
from qsdde.mdp import MdpSpec, sample_pairs, uniform_q
from qsdde.qnet import QNetSpec, init_theta, max_q_by_state

from conftest import make_mdp, saturated_theta
from oracles import (coefficient_failures, max_q, noise_matrix, q_grad, q_value, qbar,
                     sample_drift_bn)


def _mu1(net, spec, y, s, a):
    """The kernel's p-weighted next-state max Q of head (s, a) at y."""
    mu1, _ = delay_moments(spec, max_q_by_state(net, y[None, :]))
    return mu1[s * net.n_actions + a, 0]


def test_qbar_deterministic_transition(net, mdp, theta):
    p = np.zeros_like(mdp.p)
    p[:, :, 2] = 1.0
    det = MdpSpec(p=p, R=mdp.R, V=mdp.V, gamma=mdp.gamma)
    assert qbar(net, det, theta, 0, 1) == pytest.approx(max_q(net, theta, 2)[0], rel=1e-14)
    assert _mu1(net, det, theta, 0, 1) == pytest.approx(qbar(net, det, theta, 0, 1), rel=1e-14)


def test_qbar_zero_parameters(net, mdp):
    assert qbar(net, mdp, np.zeros(net.d), 1, 0) == 0.0
    assert _mu1(net, mdp, np.zeros(net.d), 1, 0) == 0.0


def test_qbar_uniform_average(net, theta):
    p = np.full((3, 2, 3), 1.0 / 3.0)
    spec = MdpSpec(p=p, R=np.zeros((3, 2)), V=np.zeros((3, 2)), gamma=0.9)
    expected = np.mean([max_q(net, theta, sp)[0] for sp in range(3)])
    assert qbar(net, spec, theta, 0, 0) == pytest.approx(expected, rel=1e-14)
    assert _mu1(net, spec, theta, 0, 0) == pytest.approx(expected, rel=1e-14)


def test_sample_drift_bn_saturated_is_zero(net, mdp):
    t = (0, 1, 0.3, 2)
    bn = sample_drift_bn(net, mdp, saturated_theta(net), saturated_theta(net), t)
    assert np.max(np.abs(bn)) < 1e-13


def test_sample_drift_bn_hand_arithmetic(mdp):
    net = QNetSpec(n_states=3, n_actions=2, hidden=(1,), bound=5.0)
    rng = np.random.default_rng(3)
    x = init_theta(net, rng)
    y = init_theta(net, rng)
    t = (1, 0, 99.0, 2)  # sampled reward must be ignored
    bracket = (mdp.R[1, 0]
               + mdp.gamma * max(q_value(net, y, 2, a) for a in range(2))
               - q_value(net, x, 1, 0))
    expected = -bracket * q_grad(net, x, 1, 0)
    assert np.allclose(sample_drift_bn(net, mdp, x, y, t), expected, rtol=1e-12)


def test_sample_drift_bn_vanishes_at_bellman_root():
    # scale the output weight until R + gamma*maxQ - Q = 0 at the transition;
    # R(0,0) = 0 keeps the bracket sign-changing across the saturation range
    base_mdp = make_mdp()
    R = base_mdp.R.copy()
    R[0, 0] = 0.0
    mdp = MdpSpec(p=base_mdp.p, R=R, V=base_mdp.V, gamma=0.9)
    net = QNetSpec(n_states=3, n_actions=2, hidden=(1,), bound=5.0)
    base = init_theta(net, np.random.default_rng(8))
    t = (0, 0, 0.0, 1)
    w_idx = net.d - 2  # single output weight

    def bracket(w):
        th = base.copy()
        th[w_idx] = w
        return (mdp.R[0, 0]
                + mdp.gamma * max(q_value(net, th, 1, a) for a in range(2))
                - q_value(net, th, 0, 0))

    w_root = brentq(bracket, -50.0, 50.0)
    th = base.copy()
    th[w_idx] = w_root
    bn = sample_drift_bn(net, mdp, th, th, t)
    assert np.max(np.abs(bn)) < 1e-9 * max(1.0, np.max(np.abs(q_grad(net, th, 0, 0))))


def test_exact_drift_saturated_zero(net, mdp, q_table):
    b = exact_drift_b(net, mdp, q_table, saturated_theta(net), saturated_theta(net))
    assert np.max(np.abs(b)) < 1e-13


def test_exact_drift_point_mass_degenerate(net, mdp):
    p = np.zeros_like(mdp.p)
    p[:, :, 1] = 1.0
    det = MdpSpec(p=p, R=mdp.R, V=mdp.V, gamma=mdp.gamma)
    q = np.zeros((3, 2))
    q[2, 1] = 1.0
    rng = np.random.default_rng(1)
    x, y = init_theta(net, rng), init_theta(net, rng)
    expected = sample_drift_bn(net, det, x, y, (2, 1, 0.0, 1))
    assert np.allclose(exact_drift_b(net, det, q, x, y), expected, rtol=1e-12)


def test_exact_drift_matches_monte_carlo(net, mdp, q_table):
    rng = np.random.default_rng(17)
    x, y = init_theta(net, rng), init_theta(net, rng)
    b = exact_drift_b(net, mdp, q_table, x, y)
    draws = np.empty((20_000, net.d))
    u = np.random.default_rng(99).uniform(size=(draws.shape[0], 2))
    s, a, sp, _ = sample_pairs(np.cumsum(q_table.reshape(-1)),
                               np.cumsum(mdp.p.reshape(-1, mdp.n_states), axis=1),
                               u[:, 0], u[:, 1], mdp.n_actions)
    for i in range(draws.shape[0]):
        draws[i] = sample_drift_bn(net, mdp, x, y, (s[i], a[i], 0.0, sp[i]))
    se = draws.std(axis=0) / np.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - b) < 4 * np.maximum(se, 1e-14))


def test_spd_sqrt_diagonal():
    assert np.allclose(spd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_sigma_is_exact_covariance_small_net():
    # smallest architecture (d = 6): Monte Carlo covariance of the per-sample
    # drift over 1e6 draws matches the enumerated Sigma within 5 SE entrywise
    rng = np.random.default_rng(50)
    p = rng.dirichlet(np.ones(1), size=(1, 2))  # 1 state, 2 actions
    spec = MdpSpec(p=p, R=rng.normal(0, 1, (1, 2)),
                   V=np.abs(rng.normal(0.5, 0.2, (1, 2))), gamma=0.9)
    net = QNetSpec(n_states=1, n_actions=2, hidden=(1,), bound=5.0)
    assert net.d == 6
    q = uniform_q(1, 2)
    x, y = init_theta(net, rng), init_theta(net, rng)
    cs = sigma_matrix(net, spec, q, x, y, 0.05, 0.5)
    table = np.stack([
        sample_drift_bn(net, spec, x, y, (0, a, 0.0, 0))
        for a in range(2)
    ])
    n = 1_000_000
    ks = rng.choice(2, size=n, p=q.reshape(-1))
    draws = table[ks]
    cov = np.cov(draws.T, bias=True)
    se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / n)
    assert np.all(np.abs(cov - cs.Sigma) < 5 * np.maximum(se, 1e-14))


def test_spd_sqrt_rejects_indefinite():
    with pytest.raises(CoefficientError):
        spd_sqrt(np.diag([1.0, -1e-6]))


def test_sigma_matrix_saturated_collapse(net, mdp, q_table):
    eta, delta = 0.05, 0.5
    cs = sigma_matrix(net, mdp, q_table, saturated_theta(net), saturated_theta(net),
                      eta, delta)
    assert np.max(np.abs(cs.Sigma)) < 1e-20
    assert np.max(np.abs(cs.beta_bar)) < 1e-20
    assert np.allclose(cs.sigma, np.sqrt(delta / eta) * np.eye(net.d), atol=1e-12)


def test_sigma_matrix_reconstruction_random_points(net, mdp, q_table):
    rng = np.random.default_rng(23)
    for _ in range(25):
        x = 2.0 * rng.standard_normal(net.d)
        y = 2.0 * rng.standard_normal(net.d)
        eta = float(10 ** rng.uniform(-2.5, -0.5))
        delta = float(rng.uniform(0.05, 1.0))
        cs = sigma_matrix(net, mdp, q_table, x, y, eta, delta)
        assert coefficient_failures(cs) == []


def test_sigma_matrix_rejects_bad_eta(net, mdp, q_table, theta):
    with pytest.raises(ValueError):
        sigma_matrix(net, mdp, q_table, theta, theta, 0.0, 0.5)
    with pytest.raises(ValueError):
        sigma_matrix(net, mdp, q_table, theta, theta, 0.1, -0.5)


def test_lowrank_matches_dense(net, mdp, q_table):
    # the engine's noise map A (columns at e_1..e_K) factors Sigma + beta_bar,
    # and so does lowrank_ghat's dense factor, which equals A
    rng = np.random.default_rng(31)
    for _ in range(10):
        x = rng.standard_normal(net.d)
        y = rng.standard_normal(net.d)
        eta, delta = 0.04, 0.3
        cs = sigma_matrix(net, mdp, q_table, x, y, eta, delta)
        A = noise_matrix(net, mdp, q_table, x[None, :], y[None, :])[0]
        assert np.allclose(A @ A.T, cs.Sigma + cs.beta_bar, atol=1e-11)
        stats = head_stats(net, mdp, x[None, :], max_q_by_state(net, y[None, :]))
        G = lowrank_ghat(stats, q_table, mdp.V.reshape(-1))[0]
        assert np.allclose(G @ G.T, cs.Sigma + cs.beta_bar, atol=1e-11)
        assert np.allclose(G, A, rtol=0.0, atol=1e-12)


def test_covariances_match_triple_enumeration_oracle():
    """Dense Sigma/beta_bar and the low-rank factor against a direct loop.

    The oracle builds E[b_n b_n^T] - b b^T + beta_bar by looping over every
    (s, a, s') triple with single-point calls, covering edge regimes: zero
    sampling weights, zero reward noise, saturated heads, deterministic p.
    """
    rng = np.random.default_rng(61)
    for trial in range(8):
        S = int(rng.integers(1, 4))
        A = int(rng.integers(1, 3))
        if trial % 4 == 3:  # deterministic transitions
            p = np.zeros((S, A, S))
            p[:, :, rng.integers(S)] = 1.0
        else:
            p = rng.dirichlet(np.ones(S), size=(S, A))
        V = np.abs(rng.normal(0.4, 0.3, (S, A)))
        if trial % 3 == 0:
            V[:] = 0.0  # no reward noise
        spec = MdpSpec(p=p, R=rng.normal(0, 1.5, (S, A)), V=V,
                       gamma=float(rng.uniform(0.5, 0.99)))
        net = QNetSpec(n_states=S, n_actions=A, hidden=(int(rng.integers(1, 4)),),
                       bound=float(rng.uniform(1.0, 10.0)))
        qt = rng.dirichlet(np.ones(S * A)).reshape(S, A)
        if S * A > 1 and trial % 2 == 0:
            qt.reshape(-1)[0] = 0.0  # a zero-weight head
            qt /= qt.sum()
        x = (120.0 if trial == 5 else 1.0) * rng.standard_normal(net.d)
        y = rng.standard_normal(net.d)
        eta, delta = float(rng.uniform(0.01, 0.2)), float(rng.uniform(0.05, 1.0))

        # oracle: direct triple loop through single-point operations
        d = net.d
        b_o = np.zeros(d)
        second_o = np.zeros((d, d))
        beta_o = np.zeros((d, d))
        for s in range(S):
            for a in range(A):
                w_sa = qt[s, a]
                if w_sa == 0.0:
                    continue
                g = q_grad(net, x, s, a)
                beta_o += w_sa * spec.V[s, a] ** 2 * np.outer(g, g)
                for sp in range(S):
                    w = w_sa * p[s, a, sp]
                    if w == 0.0:
                        continue
                    bn = sample_drift_bn(net, spec, x, y, (s, a, 0.0, sp))
                    b_o += w * bn
                    second_o += w * np.outer(bn, bn)
        sigma_o = second_o - np.outer(b_o, b_o)

        cs = sigma_matrix(net, spec, qt, x, y, eta, delta)
        # rounding residue scales with the cancelled second moment, not the result
        scale = max(np.abs(second_o).max(), np.abs(beta_o).max(), 1e-9)
        assert np.allclose(cs.b, b_o, atol=1e-11 * max(1.0, np.abs(b_o).max()))
        assert np.allclose(cs.Sigma, sigma_o, atol=1e-10 * scale)
        assert np.allclose(cs.beta_bar, beta_o, atol=1e-10 * scale)

        A = noise_matrix(net, spec, qt, x[None, :], y[None, :])[0]
        assert np.allclose(A @ A.T, sigma_o + beta_o, atol=1e-10 * scale)


def test_sigma_floor_structural(net, mdp, q_table):
    rng = np.random.default_rng(5)
    A = noise_matrix(net, mdp, q_table, rng.standard_normal((6, net.d)),
                     rng.standard_normal((6, net.d)))
    sig2 = 0.4 / 0.02 * np.eye(net.d) + A @ A.transpose(0, 2, 1)
    for i in range(6):
        w = np.linalg.eigvalsh(sig2[i])
        assert w.min() >= 0.4 / 0.02 - 1e-10


def test_estimate_constants_saturated_all_zero(net, mdp, q_table):
    # saturating bound: huge output bias in every probe is unreachable, so
    # instead use a network forced flat by a tiny bound
    flat = QNetSpec(n_states=mdp.n_states, n_actions=mdp.n_actions,
                    hidden=(4,), bound=1e-300)
    est = estimate_constants(flat, mdp, q_table, 100, 2.0,
                             np.random.default_rng(0))
    assert est.L_hat < 1e-150 and est.K_hat < 1e-150
    assert est.beta_max_hat < 1e-150 and est.b00_norm < 1e-150


def test_estimate_constants_monotone_in_pairs(net, mdp, q_table):
    small = estimate_constants(net, mdp, q_table, 100, 3.0,
                               np.random.default_rng(12))
    large = estimate_constants(net, mdp, q_table, 200, 3.0,
                               np.random.default_rng(12))
    assert large.L_hat >= small.L_hat
    assert large.K_hat >= small.K_hat


def test_estimate_constants_deterministic(net, mdp, q_table):
    a = estimate_constants(net, mdp, q_table, 150, 5.0,
                           np.random.default_rng(3))
    b = estimate_constants(net, mdp, q_table, 150, 5.0,
                           np.random.default_rng(3))
    assert asdict(a) == asdict(b)
    with pytest.raises(ValueError):
        estimate_constants(net, mdp, q_table, 99, 5.0,
                           np.random.default_rng(3))


def test_empirical_lipschitz_generalizes(net, mdp, q_table):
    # L_hat from one sample bounds ratios on a fresh sample within 5% slack
    est = estimate_constants(net, mdp, q_table, 400, 3.0,
                             np.random.default_rng(100))
    rng = np.random.default_rng(200)
    pts = 3.0 * rng.uniform(-1.0, 1.0, (200, 4, net.d))
    b1 = exact_drift_b(net, mdp, q_table, pts[:, 0], pts[:, 1])
    b2 = exact_drift_b(net, mdp, q_table, pts[:, 2], pts[:, 3])
    denom = (np.linalg.norm(pts[:, 0] - pts[:, 2], axis=1)
             + np.linalg.norm(pts[:, 1] - pts[:, 3], axis=1))
    ratio = np.linalg.norm(b1 - b2, axis=1) / denom
    assert ratio.max() <= 1.05 * est.L_hat


def test_step_size_gate_saturated_passes_any_eta_below_delta():
    est_zero = estimate_constants(
        QNetSpec(n_states=2, n_actions=2, hidden=(2,), bound=1e-300),
        make_mdp(n_states=2, n_actions=2), uniform_q(2, 2), 100, 2.0,
        np.random.default_rng(0))
    assert step_size_gate(est_zero, 0.5, [0.5, 1e-9])["rejected"] == []
    gate = step_size_gate(est_zero, 0.5, [0.6, 0.5])
    assert gate["rejected"] == [0.6] and gate["binding"] == "delta"


def test_step_size_gate_binding_constraint(net, mdp, q_table):
    est = estimate_constants(net, mdp, q_table, 100, 5.0,
                             np.random.default_rng(0))
    eta_max = step_size_gate(est, 0.5)["eta_max"]
    assert eta_max < 0.5
    gate = step_size_gate(est, 0.5, [eta_max * 0.999, 10.0])
    assert gate["rejected"] == [10.0]
    assert gate["binding"] in ("lipschitz_1_over_64L", "growth_L_over_8K2")
