"""Finite MDPs with Gaussian rewards and the replay sampling model.

States and actions are index sets {0..S-1}, {0..A-1}; any feature embedding
lives in the Q-network.  Replay is modelled two ways: an idealized i.i.d.
distribution q(s, a) over state-action pairs (the i.i.d. idealization), and a
faithful online FIFO buffer driven by an epsilon-greedy policy (used by the
full algorithm loop in ``chain``).
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np

PROB_TOL = 1e-12


def _real(v, convert=float):
    """convert(v), refusing a bool or a string: JSON true and "5" are not numbers."""
    if isinstance(v, (bool, str)):
        raise TypeError(v)
    return convert(v)


class RuleError(ValueError):
    def __init__(self, key: str, need: str, given):
        super().__init__(f"{key} must be {need}, got {given!r}")
        self.key, self.need = key, need


def _convert(key: str, given, convert, ok, need: str):
    """convert(given) if that succeeds and passes ok, else a RuleError naming
    the key: the one converter of the mdp section here and of ``config``."""
    try:
        value = convert(given)
    except (TypeError, ValueError):
        value = None
    if value is None or not ok(value):
        raise RuleError(key, need, given)
    return value


def _json_file(path):
    """The JSON document in path; bad JSON is a ValueError naming line and column."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"JSON parse error at line {err.lineno}, column {err.colno}: "
                             f"{err.msg}") from None


def _known(block: dict, keys, prefix: str = "") -> None:
    """A ValueError listing block's keys outside keys, each led by prefix."""
    unknown = sorted(f"{prefix}{k}" for k in set(block) - set(keys))
    if unknown:
        raise ValueError(f"unknown keys {unknown}")


_index = lambda v: _real(v, operator.index)  # noqa: E731
_COUNT = (_index, lambda n: n >= 1, "an integer >= 1")
_NUMBER = (_real, np.isfinite, "a finite number")
_OBJECT = (lambda v: v, lambda v: isinstance(v, dict), "a JSON object")


def _reals(key: str, given) -> np.ndarray:
    """Nested lists of numbers as a float64 array, every entry read by _real;
    a bool, a string or null is a ValueError naming the entry."""
    def entry(v, at):
        return ([entry(x, f"{at}[{i}]") for i, x in enumerate(v)] if isinstance(v, list)
                else _convert(at, v, _real, lambda x: True, "a number"))
    nested = _convert(key, given, lambda v: v, lambda v: isinstance(v, list), "a list")
    return np.asarray(entry(nested, key), dtype=np.float64)


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
    or {"mode": "online_buffer", "capacity": c, "epsilon": e}}; any other key
    is refused.
    """
    doc = _json_file(source) if isinstance(source, (str, Path)) else source
    _convert("the MDP document", doc, *_OBJECT)
    keys = ("states", "actions", "p", "R", "V", "gamma")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ValueError(f"MDP document missing keys: {missing}")
    _known(doc, (*keys, "replay"))
    S, A = (_convert(k, doc[k], *_COUNT) for k in ("states", "actions"))
    spec = MdpSpec(*(_reals(k, doc[k]) for k in ("p", "R", "V")),
                   _convert("gamma", doc["gamma"], *_NUMBER))
    if spec.p.shape != (S, A, S):
        raise ValueError(f"p has shape {spec.p.shape}, expected ({S}, {A}, {S})")
    replay_doc = doc.get("replay", None)
    if replay_doc is None:
        return spec, IdealizedReplay(uniform_q(S, A))
    mode = _convert("replay", replay_doc, *_OBJECT).get("mode")
    if mode == "idealized":
        _known(replay_doc, ("mode", "q"), "replay.")
        replay: ReplayModel = IdealizedReplay(_reals("q", replay_doc.get("q")))
    elif mode == "online_buffer":
        _known(replay_doc, ("mode", "capacity", "epsilon"), "replay.")
        replay = OnlineBufferReplay(
            capacity=_convert("capacity", replay_doc.get("capacity"), *_COUNT),
            epsilon=_convert("epsilon", replay_doc.get("epsilon"), *_NUMBER))
    else:
        raise ValueError(f"unknown replay mode {mode!r}")
    return spec, replay


def uniform_q(n_states: int, n_actions: int) -> np.ndarray:
    return np.full((n_states, n_actions), 1.0 / (n_states * n_actions))
