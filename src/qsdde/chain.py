"""The discrete parameter chain, and the loop that every simulator shares.

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

Both, like ``sdde.run_sdde``, are a step under one loop, ``simulate``: it feeds
each step its ``rng.step_noise`` words, raises ``SimulationError`` and, once per
window of m steps, freezes the lagged argument y as its max-Q table
max_a' Q(s', a'; y): the chain reads it at s', the diffusion its p-weighted moments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .mdp import (_COUNT, _NUMBER, MdpSpec, OnlineBufferReplay, _check, next_states,
                  sample_pairs)
from .qnet import QNetSpec, _forward, _vjp, max_q_by_state
from .rng import BUFFER_PATH, SIMULATE_PATH, step_noise


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class AlgoConfig:
    """Step size, noise temperature, target period and horizon of a run.

    The chain and the delay diffusion read the same config: T chain steps
    of size eta span the diffusion's horizon T*eta, which ``run_sdde``
    integrates with rho Euler substeps per step.  seed keys the
    per-trajectory noise streams.  eta and delta are finite and positive,
    and so large a noise ratio that delta/eta overflows is refused; m, T and
    rho are integers >= 1.
    """

    eta: float
    delta: float
    m: int
    T: int
    rho: int = 20
    seed: int = 0

    def __post_init__(self):
        _check(self, "eta delta", *_NUMBER)
        _check(self, "m T rho", *_COUNT)
        for key in ("eta", "delta"):
            if not getattr(self, key) > 0.0:
                raise ValueError(f"{key} must be positive")
        if not np.isfinite(self.delta / self.eta):
            raise ValueError(f"eta must leave delta/eta finite, got {self.eta!r} at delta = "
                             f"{self.delta!r}")


@dataclass
class TrajectoryEnsemble:
    """Checkpoint slices of independent trajectories.

    samples has shape (n_traj, n_checkpoints, d); checkpoints are strictly
    increasing step indices, for the chain and the delay SDE alike (the SDE's
    checkpoint c sits at time c * eta).  meta holds what a simulator observed
    besides the samples: the action counts of ``run_algorithm1``, the
    checkpoint times of ``run_sdde``.
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


def simulate(x: np.ndarray, step, noise, checkpoints: Sequence[int], T: int, m: int,
             freeze, per_step: int = 1, unit: str = "step") -> TrajectoryEnsemble:
    """Move the (d, n_traj) state once per item of noise, x = step(x, frozen,
    *words), with frozen = freeze(x), the max-Q table of x (or its moments),
    before every (m * per_step)-th move.  Checkpoint c in [0, T], checked
    before noise is read, records x after c * per_step moves."""
    checkpoints = tuple(int(c) for c in checkpoints)
    if any(c < 0 or c > T for c in checkpoints):
        raise ValueError(f"checkpoints {list(checkpoints)} must lie in [0, T={T}]")
    d, n_traj = x.shape
    ens = TrajectoryEnsemble(checkpoints, np.empty((n_traj, len(checkpoints), d)))
    at = {c * per_step: i for i, c in enumerate(checkpoints)}
    if 0 in at:
        ens.samples[:, at[0]] = x.T
    for k, words in enumerate(noise):
        if k % (m * per_step) == 0:
            frozen = freeze(x)
        x = step(x, frozen, *words)
        if not np.all(np.isfinite(x)):
            bad = int(np.argwhere(~np.isfinite(x).all(axis=0))[0, 0])
            raise SimulationError(f"non-finite value at {unit} {k + 1}, trajectory {bad}")
        if k + 1 in at:
            ens.samples[:, at[k + 1]] = x.T
    return ens


def chain_increment(net: QNetSpec, spec: MdpSpec, theta: np.ndarray,
                    maxq_y: np.ndarray, s, a, s_next, r, W, eta: float,
                    delta: float) -> np.ndarray:
    """Shared update kernel, batched over trajectories, parameter-major.

    theta: (d, N); maxq_y: (N, S) frozen target max-Q table; s, a, s_next: (N,)
    int; r: (N,) rewards; W: (d, N) standard normals.  Returns theta_next (d, N):
    theta + VJP of Q(s, a; theta) with cotangent eta * bracket + sqrt(eta*delta) W.
    """
    Qx, cache = _forward(net, theta, (s[None, :], a[None, :]))
    bracket = r + spec.gamma * maxq_y[np.arange(len(s_next)), s_next] - Qx[0]
    out = _vjp(net, cache, eta * bracket[None, :])
    out += theta
    out += np.sqrt(eta * delta) * W
    return out


def cumulative_tables(spec: MdpSpec, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cumulative q over flattened pairs, (S*A, S) cumulative rows of p)."""
    return (np.cumsum(np.asarray(q, dtype=np.float64).reshape(-1)),
            np.cumsum(spec.p.reshape(-1, spec.n_states), axis=1))


def replay_step(net: QNetSpec, spec: MdpSpec, tables, theta: np.ndarray,
                maxq_y: np.ndarray, u: np.ndarray, z: np.ndarray, eta: float,
                delta: float) -> np.ndarray:
    """One idealized-replay update per row from its noise words.

    theta: (d, N); maxq_y: (N, S) frozen target max-Q table; u: (2, N)
    uniforms for (s, a) and s'; z: (1 + d, N) standard normals, the reward
    noise xi then W.  tables from ``cumulative_tables``.  Returns (d, N).
    """
    q_cum, p_cum = tables
    s, a, sp, k = sample_pairs(q_cum, p_cum, u[0], u[1], spec.n_actions)
    r = spec.R.reshape(-1)[k] + spec.V.reshape(-1)[k] * z[0]
    return chain_increment(net, spec, theta, maxq_y, s, a, sp, r, z[1:], eta, delta)


def run_dqn(net: QNetSpec, spec: MdpSpec, q: np.ndarray, theta0: np.ndarray,
            cfg: AlgoConfig, n_traj: int, checkpoints: Sequence[int],
            stream_path: tuple[int, ...] = SIMULATE_PATH) -> TrajectoryEnsemble:
    """Simulate n_traj independent chains, recording checkpoint slices.

    The target is the max-Q table of theta_{floor(n/m) m}, frozen once per
    window of m steps (at the pre-step index).  Trajectory i draws 2 uniforms
    per step from the stream keyed (cfg.seed, *stream_path, 0, i) and 1 + d
    normals from (cfg.seed, *stream_path, 1, i).  The parameters are held
    parameter-major, (d, n_traj), for the whole run.
    """
    tables = cumulative_tables(spec, q)
    noise = step_noise(cfg.seed, n_traj, cfg.T, ((*stream_path, 0), "uniform", 2),
                       ((*stream_path, 1), "normal", 1 + net.d))
    return simulate(parameter_major(theta0, n_traj, net.d),
                    lambda theta, maxq_y, u, z: replay_step(
                        net, spec, tables, theta, maxq_y, u, z, cfg.eta, cfg.delta),
                    noise, checkpoints, cfg.T, cfg.m, freeze=lambda x: max_q_by_state(net, x.T))


def run_algorithm1(net: QNetSpec, spec: MdpSpec, replay: OnlineBufferReplay,
                   cfg: AlgoConfig, n_traj: int, checkpoints: Sequence[int],
                   theta0: np.ndarray, s0: int = 0) -> TrajectoryEnsemble:
    """Faithful experience-replay loop with an online FIFO buffer.

    Per step: epsilon-greedy action at the current state, environment step,
    buffer store, uniform minibatch of size 1, gradient step with the sampled
    reward against the target max-Q table frozen once per window of m steps,
    injected sqrt(eta*delta) W noise.  The first step stores before sampling,
    so the buffer is never empty.

    Trajectory i draws 4 uniforms per step from the Philox stream keyed
    (cfg.seed, 5, 0, i) -- explore?, random action, s', buffer slot -- and
    1 + d normals from (cfg.seed, 5, 1, i) -- reward noise xi, then W -- and
    a step reads them parameter-major, u (4, N) and z (1 + d, N).  All
    buffers hold min(n + 1, capacity) transitions at step n, so they share
    one ring index and live in (n_traj, min(capacity, T)) arrays.
    """
    d, A = net.d, net.n_actions
    rows = np.arange(n_traj)
    state = np.full(n_traj, s0, dtype=np.intp)
    cap = min(replay.capacity, cfg.T)
    buf_k = np.empty((n_traj, cap), dtype=np.intp)  # pair index s * A + a
    buf_sp = np.empty((n_traj, cap), dtype=np.intp)
    buf_r = np.empty((n_traj, cap))
    action_counts = np.zeros((n_traj, A), dtype=np.int64)
    p_cum = np.cumsum(spec.p.reshape(-1, spec.n_states), axis=1)
    R_flat, V_flat = spec.R.reshape(-1), spec.V.reshape(-1)

    def step(theta, maxq_y, n, u, z):
        nonlocal state
        action = np.minimum((u[1] * A).astype(np.intp), A - 1)
        greedy = u[0] >= replay.epsilon
        if greedy.any():
            heads = np.broadcast_arrays(state[greedy], np.arange(A)[:, None])
            action[greedy] = np.argmax(_forward(net, theta[:, greedy], heads)[0], axis=0)
        action_counts[rows, action] += 1
        k = state * A + action
        state = next_states(p_cum[k], u[2])
        slot = n % cap
        buf_k[:, slot], buf_sp[:, slot] = k, state
        buf_r[:, slot] = R_flat[k] + V_flat[k] * z[0]
        pick = np.minimum((u[3] * min(n + 1, cap)).astype(np.intp), cap - 1)
        bk = buf_k[rows, pick]
        return chain_increment(net, spec, theta, maxq_y, bk // A, bk % A,
                               buf_sp[rows, pick], buf_r[rows, pick], z[1:],
                               cfg.eta, cfg.delta)

    noise = ((n, *words) for n, words in enumerate(step_noise(
        cfg.seed, n_traj, cfg.T, ((*BUFFER_PATH, 0), "uniform", 4),
        ((*BUFFER_PATH, 1), "normal", 1 + d))))
    ens = simulate(parameter_major(theta0, n_traj, d), step, noise, checkpoints, cfg.T, cfg.m,
                   freeze=lambda x: max_q_by_state(net, x.T))
    ens.meta["action_counts"] = action_counts
    return ens
