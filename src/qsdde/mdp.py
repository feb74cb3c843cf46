"""Finite MDPs with Gaussian rewards and the replay sampling model.

States and actions are index sets {0..S-1}, {0..A-1}; any feature embedding
lives in the Q-network.  Replay is modelled two ways: an idealized i.i.d.
distribution q(s, a) over state-action pairs (the i.i.d. idealization), and a
faithful online FIFO buffer driven by an epsilon-greedy policy (used by the
full algorithm loop in ``chain``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np

PROB_TOL = 1e-12


@dataclass(frozen=True)
class MdpSpec:
    """Finite MDP with rewards r(s,a) ~ Normal(R(s,a), V(s,a)^2).

    p    : (S, A, S) transition probabilities p(s'|s,a)
    R    : (S, A) mean rewards
    V    : (S, A) reward standard deviations, nonnegative
    gamma: discount in (0, 1)
    """

    p: np.ndarray
    R: np.ndarray
    V: np.ndarray
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=np.float64))
        object.__setattr__(self, "R", np.asarray(self.R, dtype=np.float64))
        object.__setattr__(self, "V", np.asarray(self.V, dtype=np.float64))

    @property
    def n_states(self) -> int:
        return self.p.shape[0]

    @property
    def n_actions(self) -> int:
        return self.p.shape[1]


@dataclass(frozen=True)
class IdealizedReplay:
    """I.i.d. sampling of (s, a) from a fixed table q over state-action pairs."""

    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=np.float64))


@dataclass(frozen=True)
class OnlineBufferReplay:
    """FIFO experience buffer with epsilon-greedy behaviour policy."""

    capacity: int
    epsilon: float


ReplayModel = Union[IdealizedReplay, OnlineBufferReplay]


@dataclass
class ValidationReport:
    ok: bool
    failures: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "invalid:\n" + "\n".join(f"  - {f}" for f in self.failures)


def validate_mdp(spec: MdpSpec, replay: ReplayModel | None = None) -> ValidationReport:
    """Check every MdpSpec invariant; failures carry the offending indices."""
    fails: list[str] = []
    p, R, V = spec.p, spec.R, spec.V
    if p.ndim != 3 or p.shape[0] != p.shape[2]:
        fails.append(f"p must have shape (S, A, S), got {p.shape}")
        return ValidationReport(False, fails)
    S, A = p.shape[0], p.shape[1]
    if R.shape != (S, A):
        fails.append(f"R must have shape ({S}, {A}), got {R.shape}")
    if V.shape != (S, A):
        fails.append(f"V must have shape ({S}, {A}), got {V.shape}")
    if not np.all(np.isfinite(p)):
        fails.append("p has non-finite entries")
    else:
        neg = np.argwhere(p < 0.0)
        for s, a, sp in neg[:10]:
            fails.append(f"negative transition probability p({sp}|{s},{a}) = {p[s, a, sp]}")
        sums = p.sum(axis=2)
        bad = np.argwhere(np.abs(sums - 1.0) > PROB_TOL)
        for s, a in bad[:10]:
            fails.append(f"row sum {sums[s, a]:.17g} != 1 for p(.|{s},{a})")
    if R.shape == (S, A) and not np.all(np.isfinite(R)):
        fails.append("R has non-finite entries")
    if V.shape == (S, A):
        if not np.all(np.isfinite(V)):
            fails.append("V has non-finite entries")
        else:
            for s, a in np.argwhere(V < 0.0)[:10]:
                fails.append(f"negative reward stddev V({s},{a}) = {V[s, a]}")
    if not (0.0 < spec.gamma < 1.0):
        fails.append(f"gamma must lie in (0,1), got {spec.gamma}")
    if replay is not None:
        fails.extend(validate_replay(replay, S, A).failures)
    return ValidationReport(not fails, fails)


def validate_replay(replay: ReplayModel, n_states: int, n_actions: int) -> ValidationReport:
    fails: list[str] = []
    if isinstance(replay, IdealizedReplay):
        q = replay.q
        if q.shape != (n_states, n_actions):
            fails.append(f"q must have shape ({n_states}, {n_actions}), got {q.shape}")
        elif not np.all(np.isfinite(q)):
            fails.append("q has non-finite entries")
        else:
            for s, a in np.argwhere(q < 0.0)[:10]:
                fails.append(f"negative sampling weight q({s},{a}) = {q[s, a]}")
            total = q.sum()
            if abs(total - 1.0) > PROB_TOL:
                fails.append(f"q sums to {total:.17g} != 1")
    elif isinstance(replay, OnlineBufferReplay):
        if replay.capacity < 1:
            fails.append(f"buffer capacity must be >= 1, got {replay.capacity}")
        if not (0.0 < replay.epsilon < 1.0):
            fails.append(f"epsilon must lie in (0,1), got {replay.epsilon}")
    else:
        fails.append(f"unknown replay model {type(replay).__name__}")
    return ValidationReport(not fails, fails)


def next_states(p_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """s' from (N, S) cumulative weight rows and (N,) uniforms in [0, 1).

    Counts the cumulative weights <= u * total (``searchsorted(side="right")``
    row by row), so a zero-probability state is never returned, not even at
    u = 0.
    """
    sp = (p_rows <= u[:, None] * p_rows[:, -1:]).sum(axis=1)
    return np.minimum(sp, p_rows.shape[1] - 1)


def sample_pairs(q_cum: np.ndarray, p_cum: np.ndarray, u1: np.ndarray,
                 u2: np.ndarray, n_actions: int):
    """Batched (s, a) ~ q, then s' ~ p(.|s,a), from two (N,) uniform vectors.

    q_cum: cumulative q over the flattened pairs k = s * n_actions + a;
    p_cum: (S*A, S) cumulative rows of p.  Returns (s, a, s', k).
    """
    k = np.searchsorted(q_cum, u1 * q_cum[-1], side="right")
    k = np.minimum(k, q_cum.shape[0] - 1)
    sp = next_states(p_cum[k], u2)
    return k // n_actions, k % n_actions, sp, k


def load_mdp(source: str | Path | dict) -> tuple[MdpSpec, ReplayModel]:
    """Load an MDP (and its replay model) from a JSON document or dict.

    Schema: {"states": n, "actions": k, "p": [[[...]]], "R": [[...]],
    "V": [[...]], "gamma": g, "replay": {"mode": "idealized", "q": [[...]]}
    or {"mode": "online_buffer", "capacity": c, "epsilon": e}}.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = source
    missing = [k for k in ("states", "actions", "p", "R", "V", "gamma") if k not in doc]
    if missing:
        raise ValueError(f"MDP document missing keys: {missing}")
    spec = MdpSpec(
        p=np.asarray(doc["p"], dtype=np.float64),
        R=np.asarray(doc["R"], dtype=np.float64),
        V=np.asarray(doc["V"], dtype=np.float64),
        gamma=float(doc["gamma"]),
    )
    if spec.p.shape != (doc["states"], doc["actions"], doc["states"]):
        raise ValueError(
            f"p has shape {spec.p.shape}, expected "
            f"({doc['states']}, {doc['actions']}, {doc['states']})"
        )
    replay_doc = doc.get("replay", None)
    if replay_doc is None:
        replay: ReplayModel = IdealizedReplay(uniform_q(doc["states"], doc["actions"]))
    elif replay_doc.get("mode") == "idealized":
        replay = IdealizedReplay(np.asarray(replay_doc["q"], dtype=np.float64))
    elif replay_doc.get("mode") == "online_buffer":
        replay = OnlineBufferReplay(
            capacity=int(replay_doc["capacity"]), epsilon=float(replay_doc["epsilon"])
        )
    else:
        raise ValueError(f"unknown replay mode {replay_doc.get('mode')!r}")
    return spec, replay


def uniform_q(n_states: int, n_actions: int) -> np.ndarray:
    return np.full((n_states, n_actions), 1.0 / (n_states * n_actions))
