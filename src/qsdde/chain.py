"""The discrete parameter chain.

Two simulators live here.  ``run_dqn`` is the idealized-replay noisy
iteration that the delay diffusion approximates,

    theta_{n+1} = theta_n - eta * b_n(theta_n, theta_{floor(n/m) m})
                  + eta * V(s,a) * xi * grad Q   (reward noise)
                  + sqrt(eta * delta) * W        (exploration noise)

with the target argument frozen at the last multiple of m steps; the two
noise pieces are exactly the split of the sampled-reward update, so the
increment is identical in law to the raw update that uses r ~ N(R, V^2)
directly.  ``run_algorithm1`` is the fully faithful loop: epsilon-greedy
actions, an online FIFO buffer, uniform single-sample minibatches, and the
same injected exploration noise.  Both draw transitions through
``mdp.sample_pairs`` / ``mdp.next_states`` from per-trajectory Philox streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .mdp import MdpSpec, OnlineBufferReplay, next_states, sample_pairs
from .qnet import QNetSpec, _forward, _vjp
from .rng import step_noise

_BUFFER_PATH = 5  # run_algorithm1 streams: (seed, 5, kind, trajectory)


class ChainError(RuntimeError):
    pass


@dataclass(frozen=True)
class AlgoConfig:
    """Step size, noise temperature, target period and horizon of a run."""

    eta: float
    delta: float
    m: int
    T: int
    seed: int = 0

    def __post_init__(self):
        # eta = 0 is admitted as the degenerate identity step
        if not (self.eta >= 0.0):
            raise ValueError("eta must be nonnegative")
        if not (self.delta > 0.0):
            raise ValueError("delta must be positive")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.T < 1:
            raise ValueError("T must be >= 1")


@dataclass
class TrajectoryEnsemble:
    """Checkpoint slices of independent trajectories.

    samples has shape (n_traj, n_checkpoints, d); checkpoints are strictly
    increasing step indices (chain) or integer multiples of eta (delay SDE).
    """

    checkpoints: tuple[int, ...]
    samples: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.checkpoints, self.checkpoints[1:])):
            raise ValueError("checkpoint indices must be strictly increasing")

    @property
    def n_traj(self) -> int:
        return self.samples.shape[0]

    def at(self, checkpoint: int) -> np.ndarray:
        """(n_traj, d) slice at the requested checkpoint index."""
        return self.samples[:, self.checkpoints.index(checkpoint), :]


def parameter_major(theta0, n_traj: int, d: int) -> np.ndarray:
    """(d, n_traj) start from one shared (d,) theta0 or per-trajectory (n_traj, d) rows."""
    theta0 = np.asarray(theta0, dtype=np.float64)
    if theta0.shape not in ((d,), (n_traj, d)):
        raise ValueError(f"initial condition must have shape ({d},) or ({n_traj}, {d})")
    return np.broadcast_to(theta0, (n_traj, d)).T.copy()


def _all_actions(net: QNetSpec, states: np.ndarray):
    """Per-trajectory heads (s_n, a) for every action a, both (A, N)."""
    return np.broadcast_arrays(states[None, :], np.arange(net.n_actions)[:, None])


def chain_increment(net: QNetSpec, spec: MdpSpec, theta: np.ndarray,
                    target: np.ndarray, s, a, s_next, r, W, eta: float,
                    delta: float) -> np.ndarray:
    """Shared update kernel, batched over trajectories, parameter-major.

    theta, target: (d, N); s, a, s_next: (N,) int; r: (N,) sampled rewards;
    W: (d, N) standard normals.  Returns theta_next (d, N): theta plus the
    VJP of Q(s, a; theta) with cotangent eta * bracket, then sqrt(eta*delta) W.
    """
    Qx, cache = _forward(net, theta, (s[None, :], a[None, :]))
    maxq = _forward(net, target, _all_actions(net, s_next))[0].max(axis=0)
    bracket = r + spec.gamma * maxq - Qx[0]
    out = _vjp(net, cache, eta * bracket[None, :])
    out += theta
    out += np.sqrt(eta * delta) * W
    return out


def cumulative_tables(spec: MdpSpec, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cumulative q over flattened pairs, (S*A, S) cumulative rows of p)."""
    return (np.cumsum(np.asarray(q, dtype=np.float64).reshape(-1)),
            np.cumsum(spec.p.reshape(-1, spec.n_states), axis=1))


def replay_step(net: QNetSpec, spec: MdpSpec, tables, theta: np.ndarray,
                target: np.ndarray, u: np.ndarray, z: np.ndarray, eta: float,
                delta: float) -> np.ndarray:
    """One idealized-replay update per row from its noise words.

    theta, target: (d, N); u: (N, 2) uniforms for (s, a) and s'; z: (N, 1+d)
    standard normals, the reward noise xi then W.  tables from
    ``cumulative_tables``.  Returns theta_next (d, N).
    """
    q_cum, p_cum = tables
    s, a, sp, k = sample_pairs(q_cum, p_cum, u[:, 0], u[:, 1], spec.n_actions)
    r = spec.R.reshape(-1)[k] + spec.V.reshape(-1)[k] * z[:, 0]
    return chain_increment(net, spec, theta, target, s, a, sp, r, z[:, 1:].T, eta, delta)


def run_dqn(net: QNetSpec, spec: MdpSpec, q: np.ndarray, theta0: np.ndarray,
            cfg: AlgoConfig, n_traj: int, checkpoints: Sequence[int],
            stream_path: tuple[int, ...] = (0,)) -> TrajectoryEnsemble:
    """Simulate n_traj independent chains, recording checkpoint slices.

    The target parameter is frozen at theta_{floor(n/m) m} within each window
    of m steps (refreshed at the pre-step index).  Each trajectory owns a
    counter-based stream keyed by (cfg.seed, *stream_path, trajectory index).
    The parameters are held parameter-major, (d, n_traj), for the whole run.
    """
    checkpoints = tuple(int(c) for c in checkpoints)
    if any(c < 0 or c > cfg.T for c in checkpoints):
        raise ValueError("checkpoints must lie in [0, T]")
    d = net.d
    theta = parameter_major(theta0, n_traj, d)
    tables = cumulative_tables(spec, q)
    out = np.empty((n_traj, len(checkpoints), d))
    ck_pos = {c: i for i, c in enumerate(checkpoints)}
    if 0 in ck_pos:
        out[:, ck_pos[0], :] = theta.T
    noise = step_noise(cfg.seed, stream_path, n_traj, cfg.T, 2, 1 + d)
    for n, (u, z) in enumerate(noise):
        if n % cfg.m == 0:  # replay_step returns a new array, so alias the target
            target = theta
        theta = replay_step(net, spec, tables, theta, target, u, z, cfg.eta, cfg.delta)
        if not np.all(np.isfinite(theta)):
            bad = int(np.argwhere(~np.isfinite(theta).all(axis=0))[0, 0])
            raise ChainError(f"non-finite parameter at step {n + 1}, trajectory {bad}")
        if (n + 1) in ck_pos:
            out[:, ck_pos[n + 1], :] = theta.T
    meta = {"kind": "dqn_chain", "cfg": cfg, "theta0": np.asarray(theta0).copy(),
            "stream_path": stream_path, "n_traj": n_traj}
    return TrajectoryEnsemble(checkpoints=checkpoints, samples=out, meta=meta)


def run_algorithm1(net: QNetSpec, spec: MdpSpec, replay: OnlineBufferReplay,
                   cfg: AlgoConfig, n_traj: int, checkpoints: Sequence[int],
                   theta0: np.ndarray, s0: int = 0) -> TrajectoryEnsemble:
    """Faithful experience-replay loop with an online FIFO buffer.

    Per step: epsilon-greedy action at the current state, environment step,
    buffer store, uniform minibatch of size 1, gradient step with the sampled
    reward, injected sqrt(eta*delta) W noise, target sync every m steps.  The
    first step stores before sampling, so the buffer is never empty.

    Trajectory i draws 4 uniforms per step from the Philox stream keyed
    (cfg.seed, 5, 0, i) -- explore?, random action, s', buffer slot -- and
    1 + d normals from (cfg.seed, 5, 1, i) -- reward noise xi, then W.  All
    buffers hold min(n + 1, capacity) transitions at step n, so they share
    one ring index and live in (n_traj, min(capacity, T)) arrays.
    """
    checkpoints = tuple(int(c) for c in checkpoints)
    if any(c < 0 or c > cfg.T for c in checkpoints):
        raise ValueError("checkpoints must lie in [0, T]")
    d, A = net.d, net.n_actions
    rows = np.arange(n_traj)
    theta = parameter_major(theta0, n_traj, d)
    state = np.full(n_traj, s0, dtype=np.intp)
    cap = min(replay.capacity, cfg.T)
    buf_k = np.empty((n_traj, cap), dtype=np.intp)  # pair index s * A + a
    buf_sp = np.empty((n_traj, cap), dtype=np.intp)
    buf_r = np.empty((n_traj, cap))
    action_counts = np.zeros((n_traj, A), dtype=np.int64)
    p_cum = np.cumsum(spec.p.reshape(-1, spec.n_states), axis=1)
    R_flat, V_flat = spec.R.reshape(-1), spec.V.reshape(-1)
    out = np.empty((n_traj, len(checkpoints), d))
    ck_pos = {c: i for i, c in enumerate(checkpoints)}
    if 0 in ck_pos:
        out[:, ck_pos[0], :] = theta.T
    noise = step_noise(cfg.seed, (_BUFFER_PATH,), n_traj, cfg.T, 4, 1 + d)
    for n, (u, z) in enumerate(noise):
        if n % cfg.m == 0:  # chain_increment returns a new array, so alias the target
            target = theta
        action = np.minimum((u[:, 1] * A).astype(np.intp), A - 1)
        greedy = u[:, 0] >= replay.epsilon
        if greedy.any():
            qvals = _forward(net, theta[:, greedy], _all_actions(net, state[greedy]))[0]
            action[greedy] = np.argmax(qvals, axis=0)
        action_counts[rows, action] += 1
        k = state * A + action
        s_next = next_states(p_cum[k], u[:, 2])
        slot = n % cap
        buf_k[:, slot], buf_sp[:, slot] = k, s_next
        buf_r[:, slot] = R_flat[k] + V_flat[k] * z[:, 0]
        pick = np.minimum((u[:, 3] * min(n + 1, cap)).astype(np.intp), cap - 1)
        bk = buf_k[rows, pick]
        theta = chain_increment(net, spec, theta, target, bk // A, bk % A,
                                buf_sp[rows, pick], buf_r[rows, pick], z[:, 1:].T,
                                cfg.eta, cfg.delta)
        if not np.all(np.isfinite(theta)):
            bad = int(np.argwhere(~np.isfinite(theta).all(axis=0))[0, 0])
            raise ChainError(f"non-finite parameter at step {n + 1}, trajectory {bad}")
        state = s_next
        if (n + 1) in ck_pos:
            out[:, ck_pos[n + 1], :] = theta.T
    meta = {"kind": "algorithm1", "cfg": cfg, "theta0": np.asarray(theta0).copy(),
            "replay": replay, "n_traj": n_traj, "s0": s0,
            "action_counts": action_counts}
    return TrajectoryEnsemble(checkpoints=checkpoints, samples=out, meta=meta)


@dataclass
class ThetaMomentReport:
    """Fourth-moment growth of the chain against (1 + |x|^4 + E|theta_0|^4)."""

    checkpoints: tuple[int, ...]
    fourth_moments: np.ndarray
    envelope: float
    c_fit: float
    all_finite: bool

    def as_dict(self) -> dict:
        return {"checkpoints": list(self.checkpoints),
                "fourth_moments": self.fourth_moments.tolist(),
                "envelope": self.envelope, "c_fit": self.c_fit,
                "all_finite": self.all_finite}


def moment_check_theta(ensemble: TrajectoryEnsemble) -> ThetaMomentReport:
    """Empirical E|theta_n|^4 at each checkpoint and the fitted constant."""
    if ensemble.samples.size == 0:
        raise ValueError("empty ensemble")
    norms4 = (ensemble.samples ** 2).sum(axis=2) ** 2  # (n_traj, C)
    moments = norms4.mean(axis=0)
    x = ensemble.meta.get("theta0")
    if x is None:
        x4 = 0.0
    else:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        x4 = float(((x ** 2).sum(axis=1) ** 2).mean())
    envelope = 1.0 + 2.0 * x4  # deterministic start: E|theta_0|^4 = |x|^4
    return ThetaMomentReport(
        checkpoints=ensemble.checkpoints,
        fourth_moments=moments,
        envelope=envelope,
        c_fit=float(moments.max() / envelope),
        all_finite=bool(np.all(np.isfinite(moments))),
    )
