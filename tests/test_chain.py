from __future__ import annotations

import numpy as np
import pytest

import qsdde.chain as chain_mod
import qsdde.qnet as qnet_mod
import qsdde.rng as rng_mod
from qsdde.chain import (AlgoConfig, SimulationError, TrajectoryEnsemble, chain_increment,
                         cumulative_tables, replay_step, run_algorithm1, run_dqn)
from qsdde.mdp import MdpSpec, OnlineBufferReplay, sample_pairs, uniform_q
from qsdde.qnet import QNetSpec, init_theta, max_q_by_state
from qsdde.rng import spawn_generator, step_noise
from qsdde.sdde import run_sdde

from conftest import make_mdp, saturated_theta
from oracles import (dense_forward, dense_jacobian, enumerate_support, max_q, q_grad,
                     q_value)


def _cfg(**kw):
    base = dict(eta=0.05, delta=0.5, m=5, T=20, seed=3)
    base.update(kw)
    return AlgoConfig(**base)


def _step(net, mdp, q_table, theta, target, cfg, u, z):
    """One replay_step row from (d,) theta, the max-Q table of the (d,) target
    and its words u (2,), z (1 + d,)."""
    return replay_step(net, mdp, cumulative_tables(mdp, q_table), theta[:, None],
                       max_q_by_state(net, target[None, :]), u[:, None], z[:, None],
                       cfg.eta, cfg.delta)[:, 0]


def _words(net, rng):
    """One step's draws in the documented order: uniform(size=2), then
    standard_normal(1 + d) (the reward noise xi, then W)."""
    return rng.uniform(size=2), rng.standard_normal(1 + net.d)


def _dqn_steps(net, mdp, q_table, theta, target, cfg, rng, n, check=(0, 1, -1)):
    """n one-step increments from (theta, target) in one replay_step call.

    Draws n steps' words from rng, step after step.  The rows named in check
    are recomputed by a one-row replay_step on the same words and must agree
    bitwise: a row does not depend on the batch it sits in.
    """
    u, z = np.empty((n, 2)), np.empty((n, 1 + net.d))
    for i in range(n):
        u[i], z[i] = _words(net, rng)
    out = replay_step(net, mdp, cumulative_tables(mdp, q_table),
                      np.repeat(theta[:, None], n, axis=1),
                      np.repeat(max_q_by_state(net, target[None, :]), n, axis=0), u.T, z.T,
                      cfg.eta, cfg.delta).T
    for i in {i % n for i in check}:
        assert np.array_equal(_step(net, mdp, q_table, theta, target, cfg, u[i], z[i]), out[i])
    return out - theta


def test_algo_config_validation():
    with pytest.raises(ValueError):
        _cfg(eta=-0.1)
    with pytest.raises(ValueError):
        _cfg(delta=0.0)
    with pytest.raises(ValueError):
        _cfg(m=0)
    with pytest.raises(ValueError):
        _cfg(T=0)
    with pytest.raises(ValueError):
        _cfg(rho=0)
    # the chain and the diffusion both need eta > 0; the identity step at
    # eta = 0 is a property of replay_step, not of a run config
    with pytest.raises(ValueError, match="eta must be positive"):
        _cfg(eta=0)
    with pytest.raises(ValueError, match="eta must be a finite number, got True"):
        _cfg(eta=True)
    with pytest.raises(ValueError, match="m must be an integer >= 1, got 2.5"):
        _cfg(m=2.5)
    with pytest.raises(ValueError, match="rho must be an integer >= 1, got '5'"):
        _cfg(rho="5")
    # every conversion runs before the sign checks
    with pytest.raises(ValueError, match="m must be an integer >= 1, got 0"):
        _cfg(eta=0, m=0)


def test_ensemble_checkpoints_strictly_increasing():
    with pytest.raises(ValueError):
        TrajectoryEnsemble(checkpoints=(0, 0), samples=np.zeros((1, 2, 3)))


def test_dqn_step_eta_zero_is_identity(net, mdp, q_table, theta):
    u, z = _words(net, np.random.default_rng(0))
    out = replay_step(net, mdp, cumulative_tables(mdp, q_table), theta[:, None],
                      max_q_by_state(net, theta[None, :]), u[:, None], z[:, None],
                      0.0, 1e-300)[:, 0]
    assert np.array_equal(out, theta)


def test_dqn_step_saturated_is_gaussian_walk(net, mdp, q_table):
    # grad Q ~ 0: increment reduces to sqrt(eta*delta) W
    cfg = _cfg(eta=0.08, delta=0.5)
    th = saturated_theta(net)
    n = 4000
    incs = _dqn_steps(net, mdp, q_table, th, th, cfg, np.random.default_rng(10), n)
    scale = np.sqrt(cfg.eta * cfg.delta)
    assert np.abs(incs.mean(axis=0)).max() < 4 * scale / np.sqrt(n)
    assert np.allclose(incs.var(axis=0), scale ** 2, rtol=0.2)


def test_dqn_step_hand_unrolled(net, mdp, q_table):
    # replicate the documented draw order with independent arithmetic
    cfg = _cfg(eta=0.07, delta=0.3)
    theta = init_theta(net, np.random.default_rng(1))
    target = init_theta(net, np.random.default_rng(2))
    u, z = _words(net, np.random.default_rng(55))
    out = _step(net, mdp, q_table, theta, target, cfg, u, z)
    s, a, sp, _ = (int(v[0]) for v in sample_pairs(
        np.cumsum(q_table.reshape(-1)), np.cumsum(mdp.p.reshape(-1, mdp.n_states), axis=1),
        u[:1], u[1:], mdp.n_actions))
    r = mdp.R[s, a] + mdp.V[s, a] * z[0]
    bracket = (r + mdp.gamma * max(q_value(net, target, sp, b)
                                   for b in range(mdp.n_actions))
               - q_value(net, theta, s, a))
    expected = theta + cfg.eta * bracket * q_grad(net, theta, s, a) \
        + np.sqrt(cfg.eta * cfg.delta) * z[1:]
    assert np.allclose(out, expected, atol=1e-12)


# every simulator as (net, mdp, q_table, theta0, cfg, n_traj, checkpoints) -> ensemble
SIMULATORS = {
    "run_dqn": run_dqn,
    "run_algorithm1": lambda net, mdp, q, x0, cfg, n, cps: run_algorithm1(
        net, mdp, OnlineBufferReplay(capacity=10, epsilon=0.5), cfg, n, cps, x0),
    "run_sdde": run_sdde,
}


@pytest.mark.parametrize("name, unit", [("run_dqn", "step"), ("run_algorithm1", "step"),
                                        ("run_sdde", "substep")])
def test_nonfinite_names_move_and_trajectory(net, mdp, q_table, theta, name, unit):
    start = np.repeat(theta[None, :], 3, axis=0)
    start[1, 0] = np.nan
    with pytest.raises(SimulationError, match=f"at {unit} 1, trajectory 1$"):
        SIMULATORS[name](net, mdp, q_table, start, _cfg(rho=2), 3, [0, 20])


@pytest.mark.parametrize("name", SIMULATORS)
@pytest.mark.parametrize("checkpoints", [[10, 5], [5, 5], [0, 21]])
def test_bad_checkpoints_refused_before_any_stream(net, mdp, q_table, theta, monkeypatch,
                                                   name, checkpoints):
    built = []
    init = rng_mod.TrajectoryStreams.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(rng_mod.TrajectoryStreams, "__init__", counted)
    with pytest.raises(ValueError, match="checkpoint"):
        SIMULATORS[name](net, mdp, q_table, theta, _cfg(rho=2), 3, checkpoints)
    assert built == []
    SIMULATORS[name](net, mdp, q_table, theta, _cfg(T=2, rho=2), 3, [0, 2])
    assert built  # the counter sees the streams of a valid run


def test_dqn_step_depends_only_on_state_and_stream(net, mdp, q_table, theta):
    # identical (theta, target, noise words) give an identical next state,
    # regardless of how those arguments were produced
    target = theta + 0.1
    a = _step(net, mdp, q_table, theta.copy(), target.copy(), _cfg(),
              *_words(net, np.random.default_rng(99)))
    b = _step(net, mdp, q_table, theta + 0.0, np.array(target), _cfg(),
              *_words(net, np.random.default_rng(99)))
    assert np.array_equal(a, b)


def test_split_and_raw_noise_forms_agree_in_moments(net, mdp, q_table):
    """Mean-reward drift + routed reward noise vs sampled-reward update.

    The two decompositions of the update noise must give identical increment
    mean and covariance; compare a split-form reimplementation against
    replay_step draws, each over 1e5 samples, entrywise within 4 standard errors.
    """
    cfg = _cfg(eta=0.1, delta=0.2)
    rng = np.random.default_rng(7)
    theta = 0.6 * init_theta(net, rng)
    target = 0.6 * init_theta(net, rng)
    n = 100_000

    raw = _dqn_steps(net, mdp, q_table, theta, target, cfg, np.random.default_rng(100), n)

    # split form: b_n with mean reward, reward noise eta*V*xi*grad, exploration
    triples = enumerate_support(mdp, q_table)
    weights = np.array([w for (_, _, _, w) in triples])
    grads = {(s, a): q_grad(net, theta, s, a) for s in range(3) for a in range(2)}
    qvals = {(s, a): q_value(net, theta, s, a) for s in range(3) for a in range(2)}
    maxq = {sp: max_q(net, target, sp)[0] for sp in range(3)}
    split_rng = np.random.default_rng(200)
    ks = split_rng.choice(len(triples), size=n, p=weights)
    xi = split_rng.standard_normal(n)
    W = split_rng.standard_normal((n, net.d))
    split = np.empty((n, net.d))
    for i, k in enumerate(ks):
        s, a, sp, _ = triples[k]
        bn = -(mdp.R[s, a] + mdp.gamma * maxq[sp] - qvals[(s, a)]) * grads[(s, a)]
        split[i] = (-cfg.eta * bn + cfg.eta * mdp.V[s, a] * xi[i] * grads[(s, a)]
                    + np.sqrt(cfg.eta * cfg.delta) * W[i])

    se_mean = np.sqrt((raw.var(axis=0) + split.var(axis=0)) / n)
    assert np.all(np.abs(raw.mean(0) - split.mean(0)) < 4 * se_mean)
    cov_r = np.cov(raw.T, bias=True)
    cov_s = np.cov(split.T, bias=True)
    se_cov = np.sqrt((np.outer(np.diag(cov_r), np.diag(cov_r)) + cov_r ** 2
                      + np.outer(np.diag(cov_s), np.diag(cov_s)) + cov_s ** 2) / n)
    assert np.all(np.abs(cov_r - cov_s) < 4 * se_cov)


def test_chain_increment_matches_dense_oracle_step(mdp):
    # the parameter-major kernel against theta + eta*bracket*grad Q + sqrt(eta*delta) W
    # through the batched-matmul oracle, with per-trajectory (s, a, s') and parameters
    rng = np.random.default_rng(21)
    n, S, A = 64, mdp.n_states, mdp.n_actions
    rows, acts = np.arange(n), np.arange(A)
    eta, delta = 0.07, 0.3
    for hidden in ((4,), (3, 2)):
        net = QNetSpec(n_states=S, n_actions=A, hidden=hidden, bound=10.0)
        theta = rng.normal(0.0, 0.8, (n, net.d))
        target = rng.normal(0.0, 0.8, (n, net.d))
        s, a, sp = rng.integers(S, size=n), rng.integers(A, size=n), rng.integers(S, size=n)
        r, W = rng.standard_normal(n), rng.standard_normal((n, net.d))
        out = chain_increment(net, mdp, theta.T.copy(), max_q_by_state(net, target), s, a,
                              sp, r, W.T, eta, delta).T
        x = np.zeros((n, 1, net.input_dim))
        x[rows, 0, s], x[rows, 0, S + a] = 1.0, 1.0
        Qx, g = dense_jacobian(net, theta, x)
        x_next = np.zeros((n, A, net.input_dim))
        x_next[rows[:, None], acts[None, :], sp[:, None]] = 1.0
        x_next[:, acts, S + acts] = 1.0
        bracket = r + mdp.gamma * dense_forward(net, target, x_next)[0].max(axis=1) - Qx[:, 0]
        ref = theta + eta * bracket[:, None] * g[:, 0] + np.sqrt(eta * delta) * W
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.abs(ref - theta - np.sqrt(eta * delta) * W).max() > 1e-3  # the step moves


def test_run_dqn_matches_dense_oracle_replay(mdp, q_table):
    # replay run_dqn's stream words through the batched-matmul oracle network;
    # the parameter-major kernel agrees to rounding, for one and two hidden layers
    for hidden in ((4,), (3, 2)):
        net = QNetSpec(n_states=mdp.n_states, n_actions=mdp.n_actions, hidden=hidden,
                       bound=10.0)
        theta0 = init_theta(net, np.random.default_rng(8))
        cfg = _cfg(eta=0.1, delta=0.3, m=3, T=14, seed=17)
        n, S, A = 12, mdp.n_states, mdp.n_actions
        ens = run_dqn(net, mdp, q_table, theta0, cfg, n, [0, 7, 14], stream_path=(2,))
        q_cum, p_cum = cumulative_tables(mdp, q_table)
        rows, acts = np.arange(n), np.arange(A)
        theta = np.repeat(theta0[None, :], n, axis=0)
        ref = {0: theta}
        noise = step_noise(cfg.seed, n, cfg.T, ((2, 0), "uniform", 2),
                           ((2, 1), "normal", 1 + net.d))
        for step, (u, z) in enumerate(noise):
            if step % cfg.m == 0:
                target = theta.copy()
            s, a, sp, k = sample_pairs(q_cum, p_cum, u[0], u[1], A)
            x = np.zeros((n, 1, net.input_dim))
            x[rows, 0, s], x[rows, 0, S + a] = 1.0, 1.0
            Qx, g = dense_jacobian(net, theta, x)
            x_next = np.zeros((n, A, net.input_dim))
            x_next[rows[:, None], acts[None, :], sp[:, None]] = 1.0
            x_next[:, acts, S + acts] = 1.0
            maxq = dense_forward(net, target, x_next)[0].max(axis=1)
            r = mdp.R.reshape(-1)[k] + mdp.V.reshape(-1)[k] * z[0]
            theta = (theta + cfg.eta * (r + mdp.gamma * maxq - Qx[:, 0])[:, None] * g[:, 0]
                     + np.sqrt(cfg.eta * cfg.delta) * z[1:].T)
            ref[step + 1] = theta
        for c in ens.checkpoints:
            assert np.abs(ens.at(c) - ref[c]).max() <= 1e-12 * np.abs(ref[c]).max()
        assert not np.allclose(ens.at(14), ens.at(0), atol=1e-2)


def test_run_dqn_freezes_one_max_q_table_per_window(net, mdp, q_table, theta, monkeypatch):
    # the target reaches the chain only as its max-Q table, one every-pair forward
    # pass per window of m steps; each step adds one pass on theta at its own head
    listed = []
    forward = qnet_mod._forward

    def counted(spec, thetas, heads):
        listed.append(heads is not None)
        return forward(spec, thetas, heads)

    monkeypatch.setattr(qnet_mod, "_forward", counted)  # max_q_by_state's pass
    monkeypatch.setattr(chain_mod, "_forward", counted)
    cfg = _cfg(m=3, T=14)
    run_dqn(net, mdp, q_table, theta, cfg, 6, [0, 14])
    assert listed.count(False) == -(-cfg.T // cfg.m) == 5
    assert listed.count(True) == cfg.T


def test_run_dqn_target_never_updates_when_m_exceeds_T(net, mdp, q_table, theta):
    a = run_dqn(net, mdp, q_table, theta, _cfg(m=20, T=12), 8, [0, 6, 12])
    b = run_dqn(net, mdp, q_table, theta, _cfg(m=10 ** 9, T=12), 8, [0, 6, 12])
    assert np.array_equal(a.samples, b.samples)


def test_run_dqn_m1_differs_from_frozen(net, mdp, q_table, theta):
    a = run_dqn(net, mdp, q_table, theta, _cfg(m=1, T=12), 8, [12])
    b = run_dqn(net, mdp, q_table, theta, _cfg(m=20, T=12), 8, [12])
    assert not np.allclose(a.samples, b.samples)


def test_run_dqn_deterministic_and_order_independent(net, mdp, q_table, theta):
    cfg = _cfg(T=15)
    a = run_dqn(net, mdp, q_table, theta, cfg, 12, [0, 15])
    b = run_dqn(net, mdp, q_table, theta, cfg, 12, [0, 15])
    c = run_dqn(net, mdp, q_table, theta, cfg, 5, [0, 15])
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.samples[:5], c.samples)


def test_run_dqn_markov_restart_consistency(net, mdp, q_table, theta):
    """The step depends only on (theta, target, fresh noise): restarting at a
    window boundary with the stored states reproduces the law of the next
    window (checked through first moments)."""
    cfg = _cfg(m=5, T=10, seed=21)
    n = 4000
    full = run_dqn(net, mdp, q_table, theta, cfg, n, [5, 10])
    mid = full.at(5)
    cfg2 = _cfg(m=5, T=5, seed=500)
    restarted = run_dqn(net, mdp, q_table, mid, cfg2, n, [5], stream_path=(7,))
    a, b = full.at(10), restarted.at(5)
    se = np.sqrt((a.var(axis=0) + b.var(axis=0)) / n)
    assert np.all(np.abs(a.mean(0) - b.mean(0)) < 5 * se)


def test_checkpoint_bounds_enforced(net, mdp, q_table, theta):
    with pytest.raises(ValueError):
        run_dqn(net, mdp, q_table, theta, _cfg(T=10), 4, [0, 11])


def test_moment_check_gaussian_walk_closed_form(net, mdp, q_table):
    # E|theta_n - x|^4 for the pure walk: (n eta delta)^2 d(d+2)
    cfg = _cfg(eta=0.02, delta=0.5, T=1000, seed=4)
    th = saturated_theta(net)
    ens = run_dqn(net, mdp, q_table, th, cfg, 6000, [100, 1000])
    d = net.d
    for n_step in (100, 1000):
        dev = ens.at(n_step) - th
        m4 = ((dev ** 2).sum(axis=1) ** 2).mean()
        expected = (n_step * cfg.eta * cfg.delta) ** 2 * d * (d + 2)
        assert abs(m4 - expected) / expected < 0.10


def test_run_algorithm1_uniform_actions_under_full_exploration():
    mdp = make_mdp(n_states=2, n_actions=2)
    net = QNetSpec(n_states=2, n_actions=2, hidden=(2,), bound=5.0)
    replay = OnlineBufferReplay(capacity=500, epsilon=1.0 - 1e-12)
    cfg = AlgoConfig(eta=0.01, delta=0.1, m=5, T=30_000, seed=9)
    theta0 = init_theta(net, np.random.default_rng(0))
    ens = run_algorithm1(net, mdp, replay, cfg, 1, [cfg.T], theta0)
    assert np.all(np.isfinite(ens.samples))
    counts = ens.meta["action_counts"][0]
    p_hat = counts[0] / cfg.T
    assert abs(p_hat - 0.5) < 4 * np.sqrt(0.25 / cfg.T)


def test_run_algorithm1_capacity_one_uses_latest_transition(net, mdp):
    replay = OnlineBufferReplay(capacity=1, epsilon=0.5)
    cfg = AlgoConfig(eta=0.05, delta=0.2, m=3, T=50, seed=13)
    theta0 = init_theta(net, np.random.default_rng(1))
    ens = run_algorithm1(net, mdp, replay, cfg, 2, [50], theta0)
    assert np.all(np.isfinite(ens.samples))


def _algorithm1_by_hand(net, mdp, replay, cfg, theta0, i, s0=0):
    """Trajectory i of run_algorithm1 from its two documented streams, with a
    FIFO list for the buffer (the ring matches it when capacity is 1 or >= T)."""
    gu = spawn_generator(cfg.seed, (5, 0, i))
    gz = spawn_generator(cfg.seed, (5, 1, i))
    A = mdp.n_actions
    theta, state, buffer = theta0.copy(), s0, []
    path, counts = [theta], np.zeros(A, dtype=np.int64)
    for n in range(cfg.T):
        if n % cfg.m == 0:
            target = theta.copy()
        u = gu.random(4)  # explore?, random action, s', buffer slot
        z = gz.standard_normal(1 + net.d)  # reward noise xi, then W
        if u[0] < replay.epsilon:
            a = int(u[1] * A)
        else:
            a = int(np.argmax([q_value(net, theta, state, b) for b in range(A)]))
        counts[a] += 1
        cp = np.cumsum(mdp.p[state, a])
        sp = int(np.searchsorted(cp, u[2] * cp[-1], side="right"))
        buffer.append((state, a, mdp.R[state, a] + mdp.V[state, a] * z[0], sp))
        buffer = buffer[-replay.capacity:]
        bs, ba, br, bsp = buffer[int(u[3] * len(buffer))]
        bracket = (br + mdp.gamma * max(q_value(net, target, bsp, b) for b in range(A))
                   - q_value(net, theta, bs, ba))
        theta = theta + cfg.eta * bracket * q_grad(net, theta, bs, ba) \
            + np.sqrt(cfg.eta * cfg.delta) * z[1:]
        state = sp
        path.append(theta)
    return np.array(path), counts


@pytest.mark.parametrize("capacity", [1, 100_000])
def test_run_algorithm1_hand_unrolled(net, mdp, capacity):
    replay = OnlineBufferReplay(capacity=capacity, epsilon=0.5)
    cfg = AlgoConfig(eta=0.1, delta=0.3, m=3, T=20, seed=17)
    theta0 = init_theta(net, np.random.default_rng(4))
    ens = run_algorithm1(net, mdp, replay, cfg, 3, range(cfg.T + 1), theta0, s0=1)
    for i in range(3):
        path, counts = _algorithm1_by_hand(net, mdp, replay, cfg, theta0, i, s0=1)
        assert np.allclose(ens.samples[i], path, rtol=0.0, atol=1e-12)
        assert np.array_equal(ens.meta["action_counts"][i], counts)
        assert 0 < counts[0] < cfg.T  # both actions taken


def test_run_algorithm1_order_independent(net, mdp):
    replay = OnlineBufferReplay(capacity=4, epsilon=0.5)
    cfg = AlgoConfig(eta=0.05, delta=0.2, m=3, T=30, seed=8)
    theta0 = init_theta(net, np.random.default_rng(5))
    one = run_algorithm1(net, mdp, replay, cfg, 1, [10, 30], theta0)
    five = run_algorithm1(net, mdp, replay, cfg, 5, [10, 30], theta0)
    assert np.array_equal(one.samples[0], five.samples[0])
    assert np.array_equal(one.meta["action_counts"][0], five.meta["action_counts"][0])


def test_online_vs_idealized_checkpoint_means_agree():
    # uniform transitions and full exploration: the buffer's stationary law is
    # the uniform q, so the two modes must agree in distribution
    S, A = 2, 2
    p = np.full((S, A, S), 0.5)
    rng = np.random.default_rng(40)
    mdp = MdpSpec(p=p, R=rng.normal(0, 1, (S, A)), V=np.full((S, A), 0.3), gamma=0.9)
    net = QNetSpec(n_states=S, n_actions=A, hidden=(2,), bound=5.0)
    theta0 = 0.5 * init_theta(net, np.random.default_rng(2))
    cfg = AlgoConfig(eta=0.05, delta=0.2, m=5, T=400, seed=77)
    n = 48
    online = run_algorithm1(net, mdp, OnlineBufferReplay(capacity=100_000,
                                                         epsilon=1.0 - 1e-12),
                            cfg, n, [400], theta0)
    ideal = run_dqn(net, mdp, uniform_q(S, A), theta0, cfg, n, [400])
    a, b = online.at(400), ideal.at(400)
    se = np.sqrt(a.var(axis=0) / n + b.var(axis=0) / n)
    assert np.all(np.abs(a.mean(0) - b.mean(0)) < 5 * se)
