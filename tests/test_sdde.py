from __future__ import annotations

import numpy as np
import pytest

from qsdde.chain import AlgoConfig
from qsdde.coeffs import exact_drift_b, noise_cotangent, sigma_matrix
from qsdde.mdp import MdpSpec, uniform_q
from qsdde.qnet import QNetSpec, init_theta
from qsdde.rng import TrajectoryStreams, block_size
from qsdde.sdde import run_sdde

from conftest import make_mdp, saturated_theta
from oracles import bellman_moments, dense_jacobian, dense_max_q, pair_inputs


def _cfg(**kw):
    base = dict(eta=0.05, delta=0.5, m=5, T=20, rho=10, seed=6)
    base.update(kw)
    return AlgoConfig(**base)


def test_run_sdde_rejects_zero_eta_and_config_rejects_zero_rho(net, mdp, q_table, theta):
    # AlgoConfig admits the chain's eta = 0 identity step; the diffusion does not
    with pytest.raises(ValueError, match="eta must be positive"):
        run_sdde(net, mdp, q_table, theta, _cfg(eta=0.0), 2, [0])
    with pytest.raises(ValueError):
        _cfg(rho=0)


def test_euler_step_saturated_collapses_to_scaled_brownian(net, mdp, q_table):
    # grad Q ~ 0: each substep of size h is x + sqrt(delta) sqrt(h) z, with z
    # the first d words of the substep's block in the trajectory's stream
    cfg = _cfg(eta=0.04, delta=0.36, T=1, rho=4)
    th = saturated_theta(net)
    h = 0.01
    out = run_sdde(net, mdp, q_table, th, cfg, 1, [1]).at(1)[0]
    K = mdp.n_states * mdp.n_actions
    z = TrajectoryStreams(cfg.seed, (0,), 1).normal_block(4 * (net.d + K))
    z = z.reshape(4, net.d + K)[:, :net.d].sum(axis=0)
    assert np.allclose(out, th + np.sqrt(cfg.delta) * np.sqrt(h) * z, atol=1e-12)


def test_increment_moments_small_h(net, mdp, q_table):
    # increment mean -b h and covariance eta sigma^2 h over many draws
    cfg = _cfg(eta=0.08, delta=0.4, m=100, T=1, rho=1, seed=19)
    rng = np.random.default_rng(14)
    x = 0.7 * init_theta(net, rng)
    n = 50_000
    ens = run_sdde(net, mdp, q_table, x, cfg, n, [0, 1])
    inc = ens.at(1) - ens.at(0)
    h = cfg.eta
    b = exact_drift_b(net, mdp, q_table, x, x)
    cs = sigma_matrix(net, mdp, q_table, x, x, cfg.eta, cfg.delta)
    target_cov = cfg.eta * h * (cs.sigma @ cs.sigma)
    se_mean = inc.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(inc.mean(0) + b * h) < 4 * se_mean)
    cov = np.cov(inc.T, bias=True)
    se_cov = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / n)
    assert np.all(np.abs(cov - target_cov) < 4.5 * np.maximum(se_cov, 1e-14))


def test_noise_free_mode_matches_explicit_ode_euler():
    # single transition, V = 0 and vanishing delta: Sigma = beta_bar = 0 and
    # the injected noise underflows to zero, so 20 substeps of size h inside
    # one delay segment must reproduce the explicit Euler iteration of
    # dX = -b(X, x) dt
    spec = MdpSpec(p=np.ones((1, 1, 1)), R=np.array([[0.7]]),
                   V=np.zeros((1, 1)), gamma=0.9)
    net = QNetSpec(n_states=1, n_actions=1, hidden=(1,), bound=3.0)
    q = np.ones((1, 1))
    x = init_theta(net, np.random.default_rng(2))
    cfg = AlgoConfig(eta=0.1, delta=1e-300, m=100, T=10, rho=2, seed=0)
    h = 0.05
    xs = run_sdde(net, spec, q, x, cfg, 1, [10]).at(10)[0]
    xe = x.copy()
    for _ in range(20):
        xe = xe - exact_drift_b(net, spec, q, xe, x) * h
    assert np.allclose(xs, xe, atol=1e-12)


def test_noise_cotangent_zero_for_single_deterministic_head():
    # M = 0 for one head with one reachable next state and V = 0: F xi must
    # be exactly 0 whatever the residual, so no noise enters run_sdde
    rng = np.random.default_rng(4)
    Ec = rng.normal(0.0, 2.0, (1, 8))
    xi = rng.standard_normal((1, 8))
    out = noise_cotangent(np.ones((1, 1)), Ec, Ec ** 2, np.zeros((1, 1)), xi)
    assert np.array_equal(out, np.zeros((1, 8)))


def _dense_substep_run(net, spec, q, x0, cfg, n_traj, stream_path=(0,)):
    """Reference substep built from dense parts, returning X at step T.

    x - b h + amp (sqrt(delta/eta) z + G^T F xi) with the dense (N, K, d)
    Jacobian G of the batched-matmul oracle and the dense (N, K, K) factor
    F = D^{1/2}(I - s uhat uhat^T), fed from the same stream blocks as run_sdde.
    """
    d, K = net.d, spec.n_states * spec.n_actions
    h = cfg.eta / cfg.rho
    scale, amp = np.sqrt(cfg.delta / cfg.eta), np.sqrt(cfg.eta * h)
    q_flat, V_flat = q.reshape(-1), spec.V.reshape(-1)
    x = np.repeat(x0[None, :], n_traj, axis=0)
    streams = TrajectoryStreams(cfg.seed, stream_path, n_traj)
    n_sub, per_step = cfg.T * cfg.rho, d + K
    blk = block_size(n_traj, per_step)
    for u in range(n_sub):
        if u % (cfg.m * cfg.rho) == 0:
            maxq = dense_max_q(net, x)
        if u % blk == 0:
            nb = min(blk, n_sub - u)
            block = streams.normal_block(nb * per_step).reshape(n_traj, nb, per_step)
        z, xi = block[:, u % blk, :d], block[:, u % blk, d:]
        Qx, g = dense_jacobian(net, x, pair_inputs(net, n_traj))
        Ec, Ec2 = bellman_moments(spec, Qx, maxq)
        D = q_flat * (Ec2 + V_flat ** 2)
        Dh = np.sqrt(np.clip(D, 0.0, None))
        uu = np.where(D > 1e-300, q_flat * Ec / np.maximum(Dh, 1e-300), 0.0)
        nu2 = (uu * uu).sum(axis=1)
        uhat = uu / np.maximum(np.sqrt(nu2), 1e-300)[:, None]
        sh = 1.0 - np.sqrt(np.clip(1.0 - np.minimum(nu2, 1.0), 0.0, None))
        F = Dh[:, :, None] * (np.eye(K) - sh[:, None, None] * uhat[:, :, None] * uhat[:, None, :])
        ghat = g.transpose(0, 2, 1) @ F  # (N, d, K)
        noise = scale * z + (ghat @ xi[:, :, None])[:, :, 0]
        drift = -((q_flat * Ec)[:, None, :] @ g)[:, 0, :]
        x = x - drift * h + amp * noise
    return x


def test_engine_matches_dense_substep_under_shared_noise(net, mdp, q_table, theta):
    # 70 substeps: a 64-step Philox block plus a ragged 6-step one, and four
    # delay segments (m = 2, rho = 10)
    cfg = _cfg(eta=0.05, delta=0.5, m=2, T=7, rho=10, seed=71)
    n = 16
    assert block_size(n, net.d + 6) == 64
    ens = run_sdde(net, mdp, q_table, theta, cfg, n, [cfg.T])
    ref = _dense_substep_run(net, mdp, q_table, theta, cfg, n)
    assert np.abs(ens.at(cfg.T) - ref).max() <= 1e-12 * np.abs(ref).max()
    assert not np.allclose(ens.at(cfg.T), theta, atol=1e-3)  # noise and drift acted


def test_engine_matches_dense_substep_two_hidden_layers(mdp, q_table):
    # the same comparison through a (3, 2) network, whose middle layer is a
    # dense weight gradient and whose first is the outer sum over (s, a)
    net = QNetSpec(n_states=mdp.n_states, n_actions=mdp.n_actions, hidden=(3, 2),
                   bound=10.0)
    theta = init_theta(net, np.random.default_rng(7))
    cfg = _cfg(eta=0.05, delta=0.5, m=2, T=7, rho=10, seed=72)
    n = 16
    ens = run_sdde(net, mdp, q_table, theta, cfg, n, [cfg.T])
    ref = _dense_substep_run(net, mdp, q_table, theta, cfg, n)
    assert np.abs(ens.at(cfg.T) - ref).max() <= 1e-12 * np.abs(ref).max()
    assert not np.allclose(ens.at(cfg.T), theta, atol=1e-3)


@pytest.mark.parametrize("shape", [(3, 2, (4,)), (5, 2, (9, 3)), (7, 1, (4,))])
@pytest.mark.parametrize("n", [1, 5])
def test_run_sdde_rows_do_not_depend_on_the_batch(shape, n):
    # the first n trajectories of a 12-trajectory run, bit for bit: the desk
    # net, a wide one (K = 10 heads, a 9-unit layer) and a single-action one
    S, A, hidden = shape
    mdp = make_mdp(n_states=S, n_actions=A)
    net = QNetSpec(n_states=S, n_actions=A, hidden=hidden, bound=10.0)
    theta = init_theta(net, np.random.default_rng(7))
    q = uniform_q(S, A)
    cfg = _cfg(m=2, T=4, rho=5, seed=73)
    full = run_sdde(net, mdp, q, theta, cfg, 12, [0, 2, 4]).samples
    part = run_sdde(net, mdp, q, theta, cfg, n, [0, 2, 4]).samples
    assert part.tobytes() == full[:n].tobytes()


def test_pure_sde_when_delay_window_covers_horizon(net, mdp, q_table, theta):
    a = run_sdde(net, mdp, q_table, theta, _cfg(m=20, T=12), 8, [12])
    b = run_sdde(net, mdp, q_table, theta, _cfg(m=10 ** 6, T=12), 8, [12])
    assert np.array_equal(a.samples, b.samples)
    c = run_sdde(net, mdp, q_table, theta, _cfg(m=1, T=12), 8, [12])
    assert not np.allclose(a.samples, c.samples)


def test_saturated_variance_linear_growth(net, mdp, q_table):
    # zero drift, constant diffusion sqrt(delta/eta) I: Var(X_t) = delta * t
    cfg = _cfg(eta=0.05, delta=0.5, m=5, T=40, rho=5, seed=23)
    th = saturated_theta(net)
    ens = run_sdde(net, mdp, q_table, th, cfg, 10_000, [10, 40])
    for step in (10, 40):
        t = step * cfg.eta
        var = (ens.at(step) - th).var(axis=0)
        assert abs(var.mean() - cfg.delta * t) / (cfg.delta * t) < 0.05


def test_rho_doubling_weak_stability(net, mdp, q_table, theta):
    # halving the step changes checkpoint means by less than one MC stderr
    n = 3000
    a = run_sdde(net, mdp, q_table, theta, _cfg(rho=5, T=10, seed=31), n, [10])
    b = run_sdde(net, mdp, q_table, theta, _cfg(rho=10, T=10, seed=32), n, [10])
    mean_se = np.sqrt(a.at(10).var(axis=0) / n + b.at(10).var(axis=0) / n)
    gap = np.abs(a.at(10).mean(0) - b.at(10).mean(0))
    assert np.mean(gap <= mean_se) > 0.6
    assert np.all(gap <= 4 * mean_se)


def test_segment_markov_conditional_resampling(net, mdp, q_table, theta):
    # restarting from the stored segment boundary with fresh noise reproduces
    # segment-end moments
    cfg = _cfg(m=5, T=10, rho=5, seed=41)
    n = 3000
    full = run_sdde(net, mdp, q_table, theta, cfg, n, [5, 10])
    mid = full.at(5)
    cfg2 = _cfg(m=5, T=5, rho=5, seed=900)
    again = run_sdde(net, mdp, q_table, mid, cfg2, n, [5], stream_path=(3,))
    a, b = full.at(10), again.at(5)
    se = np.sqrt((a.var(axis=0) + b.var(axis=0)) / n)
    assert np.all(np.abs(a.mean(0) - b.mean(0)) < 5 * se)


def test_checkpoint_alignment_and_bounds(net, mdp, q_table, theta):
    with pytest.raises(ValueError):
        run_sdde(net, mdp, q_table, theta, _cfg(T=5), 4, [6])
    ens = run_sdde(net, mdp, q_table, theta, _cfg(T=5), 4, [0, 3, 5])
    assert ens.meta["checkpoint_times"] == [0.0, 3 * 0.05, 5 * 0.05]


def test_displacement_gaussian_walk_closed_form(net, mdp, q_table):
    # zero drift, diffusion sqrt(delta/eta) I: E|X_t - x|^2 = delta * d * t
    cfg = _cfg(eta=0.05, delta=0.5, m=5, T=40, rho=5, seed=61)
    th = saturated_theta(net)
    ens = run_sdde(net, mdp, q_table, th, cfg, 4000, [0, 10, 20, 40])
    disp = np.array([((ens.at(c) - th) ** 2).sum(axis=1).mean() for c in ens.checkpoints])
    assert np.all(np.isfinite(ens.samples))
    assert disp[0] == 0.0
    assert np.all(np.diff(disp) > 0)  # monotone growth
    expected = cfg.delta * net.d * np.array(ens.meta["checkpoint_times"][1:])
    assert np.all(np.abs(disp[1:] - expected) / expected < 0.05)
