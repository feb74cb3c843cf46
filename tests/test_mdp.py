from __future__ import annotations

import json

import numpy as np
import pytest

from qsdde.mdp import (IdealizedReplay, MdpSpec, OnlineBufferReplay, load_mdp,
                       next_states, sample_pairs, uniform_q, validate_mdp)

from conftest import make_mdp
from oracles import enumerate_support


def _tables(spec, q):
    return (np.cumsum(q.reshape(-1)),
            np.cumsum(spec.p.reshape(-1, spec.n_states), axis=1))


def _draw(spec, q, rng, n):
    """n transitions (s, a, s', r) in the chain's draw order: two uniforms
    per transition, then one reward normal per transition."""
    u = rng.uniform(size=(n, 2))
    s, a, sp, k = sample_pairs(*_tables(spec, q), u[:, 0], u[:, 1], spec.n_actions)
    r = spec.R.reshape(-1)[k] + spec.V.reshape(-1)[k] * rng.standard_normal(n)
    return s, a, sp, r


def test_uniform_rows_valid():
    spec = MdpSpec(p=np.full((2, 2, 2), 0.5), R=np.zeros((2, 2)),
                   V=np.zeros((2, 2)), gamma=0.9)
    assert validate_mdp(spec) == []


def test_bad_row_sum_reported():
    p = np.full((2, 2, 2), 0.5)
    p[0, 0] = [0.5, 0.4]
    spec = MdpSpec(p=p, R=np.zeros((2, 2)), V=np.zeros((2, 2)), gamma=0.9)
    failures = validate_mdp(spec)
    assert failures
    assert any("row sum" in f and "(.|0,0)" in f for f in failures)


def test_negative_stddev_reported():
    V = np.zeros((2, 2))
    V[1, 0] = -0.1
    spec = MdpSpec(p=np.full((2, 2, 2), 0.5), R=np.zeros((2, 2)), V=V, gamma=0.9)
    assert any("negative reward stddev" in f for f in validate_mdp(spec))


def test_gamma_bounds():
    spec = MdpSpec(p=np.full((2, 2, 2), 0.5), R=np.zeros((2, 2)),
                   V=np.zeros((2, 2)), gamma=1.2)
    assert any("gamma" in f for f in validate_mdp(spec))


def test_replay_validation():
    spec = MdpSpec(p=np.full((2, 2, 2), 0.5), R=np.zeros((2, 2)),
                   V=np.zeros((2, 2)), gamma=0.9)
    bad_q = IdealizedReplay(np.array([[0.5, 0.4], [0.05, 0.04]]))
    assert validate_mdp(spec, bad_q)
    assert validate_mdp(spec, OnlineBufferReplay(capacity=0, epsilon=0.5))
    assert validate_mdp(spec, OnlineBufferReplay(capacity=5, epsilon=1.0))
    assert validate_mdp(spec, OnlineBufferReplay(capacity=5, epsilon=0.3)) == []


def test_validate_mdp_refuses_a_non_square_p_and_an_unknown_replay():
    spec = MdpSpec(p=np.full((2, 2, 3), 1.0 / 3.0), R=np.zeros((2, 2)),
                   V=np.zeros((2, 2)), gamma=0.9)
    assert validate_mdp(spec) == ["p must have shape (S, A, S), got (2, 2, 3)"]
    spec = MdpSpec(p=np.full((2, 2, 2), 0.5), R=np.zeros((2, 2)),
                   V=np.zeros((2, 2)), gamma=0.9)
    assert validate_mdp(spec, "buffer") == ["unknown replay model str"]


def test_sample_pairs_degenerate():
    # point-mass q at (0,1), deterministic next state 2, zero reward noise
    p = np.zeros((3, 2, 3))
    p[:, :, 0] = 1.0
    p[0, 1] = [0.0, 0.0, 1.0]
    R = np.arange(6, dtype=float).reshape(3, 2)
    spec = MdpSpec(p=p, R=R, V=np.zeros((3, 2)), gamma=0.9)
    q = np.zeros((3, 2))
    q[0, 1] = 1.0
    s, a, sp, r = _draw(spec, q, np.random.default_rng(0), 50)
    assert np.all(s == 0) and np.all(a == 1) and np.all(sp == 2)
    assert np.all(r == R[0, 1])


def test_pair_frequencies_binomial():
    # uniform q over 4 pairs: frequencies within 3 binomial standard errors
    spec = make_mdp(n_states=2, n_actions=2)
    q = uniform_q(2, 2)
    n = 100_000
    s, a, _, _ = _draw(spec, q, np.random.default_rng(123), n)
    counts = np.zeros((2, 2))
    np.add.at(counts, (s, a), 1)
    se = np.sqrt(0.25 * 0.75 / n)
    assert np.all(np.abs(counts / n - 0.25) < 3 * se)


def test_reward_moments_clt():
    spec = make_mdp(n_states=2, n_actions=2, noise_scale=1.0)
    spec = MdpSpec(p=spec.p, R=spec.R, V=np.ones((2, 2)), gamma=spec.gamma)
    q = np.zeros((2, 2))
    q[1, 0] = 1.0
    n = 100_000
    _, _, _, rs = _draw(spec, q, np.random.default_rng(5), n)
    assert abs(rs.mean() - spec.R[1, 0]) < 3.0 / np.sqrt(n)
    assert abs(rs.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)


def test_next_states_never_returns_zero_probability_state():
    # u = 0 (Generator.random can return it) must skip leading zero weights
    assert next_states(np.cumsum([[0.0, 1.0, 0.0]], axis=1), np.zeros(1))[0] == 1
    rng = np.random.default_rng(31)
    p = rng.dirichlet(np.ones(6), size=400) * (rng.random((400, 6)) < 0.5)
    p[p.sum(axis=1) == 0.0, 3] = 1.0
    rows = np.cumsum(p, axis=1)
    for u in (np.zeros(400), rng.random(400)):
        sp = next_states(rows, u)
        assert np.all(p[np.arange(400), sp] > 0.0)


def _searchsorted_oracle(q_cum, p_cum, u1, u2, n_actions):
    out = []
    for x, y in zip(u1, u2):
        k = min(int(np.searchsorted(q_cum, x * q_cum[-1], side="right")),
                len(q_cum) - 1)
        row = p_cum[k]
        sp = min(int(np.searchsorted(row, y * row[-1], side="right")), len(row) - 1)
        out.append((k // n_actions, k % n_actions, sp, k))
    return np.array(out).T


def test_sample_pairs_matches_searchsorted():
    rng = np.random.default_rng(32)
    S, A = 5, 3
    p = rng.dirichlet(np.ones(S), size=(S, A)) * (rng.random((S, A, S)) < 0.6)
    p[..., 2] += p.sum(axis=2) == 0.0
    p /= p.sum(axis=2, keepdims=True)
    q = rng.random((S, A)) * (rng.random((S, A)) < 0.7)
    q[0, 0] = 0.0
    q /= q.sum()
    spec = MdpSpec(p=p, R=np.zeros((S, A)), V=np.zeros((S, A)), gamma=0.9)
    q_cum, p_cum = _tables(spec, q)
    # random uniforms, then uniforms placed exactly on cumulative boundaries
    u1, u2 = rng.random(2000), rng.random(2000)
    b1 = np.concatenate([[0.0], q_cum / q_cum[-1]])
    b2 = np.concatenate([[0.0], (p_cum / p_cum[:, -1:]).reshape(-1)])
    b1, b2 = np.broadcast_arrays(b1[:, None], b2[None, :])
    keep = (b1 < 1.0) & (b2 < 1.0)
    u1 = np.concatenate([u1, b1[keep]])
    u2 = np.concatenate([u2, b2[keep]])
    got = sample_pairs(q_cum, p_cum, u1, u2, A)
    assert np.array_equal(np.array(got), _searchsorted_oracle(q_cum, p_cum, u1, u2, A))
    assert np.all(q.reshape(-1)[got[3]] > 0.0)
    assert np.all(p[got[0], got[1], got[2]] > 0.0)


def test_enumerate_support_degenerate():
    p = np.zeros((2, 2, 2))
    p[:, :, 1] = 1.0
    spec = MdpSpec(p=p, R=np.zeros((2, 2)), V=np.zeros((2, 2)), gamma=0.5)
    q = np.zeros((2, 2))
    q[0, 0] = 1.0
    assert enumerate_support(spec, q) == [(0, 0, 1, 1.0)]


def test_enumerate_support_uniform_product():
    spec = MdpSpec(p=np.full((2, 2, 2), 0.5), R=np.zeros((2, 2)),
                   V=np.zeros((2, 2)), gamma=0.5)
    triples = enumerate_support(spec, uniform_q(2, 2))
    assert len(triples) == 8
    assert all(abs(w - 0.125) < 1e-15 for (_, _, _, w) in triples)


def test_enumerate_support_weights_sum_to_one(mdp, q_table):
    total = sum(w for (_, _, _, w) in enumerate_support(mdp, q_table))
    assert abs(total - 1.0) < 1e-12


def test_sampling_law_matches_enumeration(mdp, q_table):
    # engine sampling path at N = 1e6 vs exact weights, 4 SE per triple
    n = 1_000_000
    rng = np.random.default_rng(77)
    u = rng.random((n, 2))
    s, a, sp, _ = sample_pairs(*_tables(mdp, q_table), u[:, 0], u[:, 1],
                               mdp.n_actions)
    idx = (s * mdp.n_actions + a) * mdp.n_states + sp
    counts = np.bincount(idx, minlength=mdp.n_states * mdp.n_actions * mdp.n_states)
    for (si, ai, spi, w) in enumerate_support(mdp, q_table):
        k = (si * mdp.n_actions + ai) * mdp.n_states + spi
        se = np.sqrt(w * (1 - w) / n)
        assert abs(counts[k] / n - w) < 4 * se


def test_load_mdp_roundtrip(tmp_path, mdp):
    doc = {"states": mdp.n_states, "actions": mdp.n_actions, "p": mdp.p.tolist(),
           "R": mdp.R.tolist(), "V": mdp.V.tolist(), "gamma": mdp.gamma,
           "replay": {"mode": "idealized",
                      "q": uniform_q(mdp.n_states, mdp.n_actions).tolist()}}
    path = tmp_path / "mdp.json"
    path.write_text(json.dumps(doc))
    spec, replay = load_mdp(path)
    assert np.allclose(spec.p, mdp.p)
    assert isinstance(replay, IdealizedReplay)
    doc["replay"] = {"mode": "online_buffer", "capacity": 10, "epsilon": 0.2}
    path.write_text(json.dumps(doc))
    _, replay = load_mdp(path)
    assert isinstance(replay, OnlineBufferReplay)
    del doc["replay"]
    _, replay = load_mdp(doc)  # no replay: idealized, uniform over the pairs
    assert np.array_equal(replay.q, uniform_q(mdp.n_states, mdp.n_actions))
    doc["replay"] = {"mode": "bogus"}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_mdp(path)
