"""Experiment configuration: JSON loading, defaults, validation.

A config document bundles the MDP, the network architecture, the algorithm
parameters and per-study blocks.  Loading fills defaults, checks every
module-level invariant and aggregates all violations into one error; in
strict-gate mode the step-size admissibility check is enforced at load
time, downgraded to a warning under force.  A study block is checked only
when a command asks for its spec, and every gate of a run reads one
estimate of the regularity constants, made on first use.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .chain import AlgoConfig
from .diagnostics import AssumptionReport, assumption_report
from .mdp import (IdealizedReplay, MdpSpec, ReplayModel, load_mdp, uniform_q,
                  validate_mdp)
from .qnet import QNetSpec, init_theta
from .rng import SNAPSHOT_PATH, THETA0_PATH, spawn_generator

DEFAULTS = {
    "seed": 0,
    "strict_gate": False,
    "net": {"hidden": [8], "bound_C": 10.0, "init": {"dist": "normal", "stddev": 0.5, "seed": 1}},
    "algo": {"eta": 0.05, "delta": 0.5, "m": 5, "T": 40, "rho": 20},
    "n_traj": 256,
}


class ConfigError(ValueError):
    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {e}" for e in errors))


def _real(v, convert=float):
    """convert(v), refusing a bool or a string: JSON true and "5" are not numbers."""
    if isinstance(v, (bool, str)):
        raise TypeError(v)
    return convert(v)


def _steps(values) -> tuple[int, ...]:
    return tuple(sorted({_index(v) for v in values}))


def _convert(key: str, given, convert, ok, need: str):
    """convert(given) if that succeeds and passes ok, else a ValueError naming the key."""
    try:
        value = convert(given)
    except (TypeError, ValueError):
        value = None
    if value is None or not ok(value):
        raise ValueError(f"{key} must be {need}, got {given!r}")
    return value


_index = lambda v: _real(v, operator.index)  # noqa: E731
_COUNT = (_index, lambda n: n >= 1, "an integer >= 1")
_NUMBER = (_real, np.isfinite, "a finite number")


def _checkpoints(T: int):  # the rule on the checkpoints of a horizon of T steps
    return _steps, lambda cs: cs and cs[0] >= 0 and cs[-1] <= T, \
        f"a non-empty list of steps in [0, T={T}]"


@dataclass
class ExperimentConfig:
    mdp: MdpSpec
    replay: ReplayModel
    net: QNetSpec
    theta0: np.ndarray
    algo: AlgoConfig
    strict_gate: bool
    n_traj: int
    checkpoints: tuple[int, ...]
    raw: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    @property
    def q(self) -> np.ndarray:
        if isinstance(self.replay, IdealizedReplay):
            return self.replay.q
        return uniform_q(self.mdp.n_states, self.mdp.n_actions)

    @cached_property
    def assumptions(self) -> AssumptionReport:
        """The run's one estimate of the regularity constants, and the gate on algo."""
        return assumption_report(self.net, self.mdp, self.q, self.algo,
                                 spawn_generator(self.algo.seed, SNAPSHOT_PATH))

    def study(self, spec_cls):
        """The spec of the study block spec_cls.section over the run's defaults;
        a bad block is one ConfigError naming the section and the key."""
        block = self.raw.get(spec_cls.section, {})
        try:
            if not isinstance(block, dict):
                raise ValueError("must be a JSON object")
            unknown = sorted(set(block) - {f.name for f in fields(spec_cls)})
            if unknown:
                raise ValueError(f"unknown keys {unknown}")
            return spec_cls.from_block(block, self)
        except ValueError as err:
            raise ConfigError([f"{spec_cls.section} section: {err}"]) from err


def _merge_defaults(doc: dict) -> dict:
    out = json.loads(json.dumps(doc))  # deep copy, JSON-typed
    for key, val in DEFAULTS.items():
        if key not in out:
            out[key] = json.loads(json.dumps(val))
        elif isinstance(val, dict):
            if not isinstance(out[key], dict):
                raise ConfigError([f"{key} section: must be a JSON object"])
            for k2, v2 in val.items():
                out[key].setdefault(k2, json.loads(json.dumps(v2)))
    return out


def load_config(source: str | Path | dict, seed_override: int | None = None,
                force: bool = False) -> ExperimentConfig:
    """Load and validate a config document, aggregating every violation."""
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(
                [f"JSON parse error at line {err.lineno}, column {err.colno}: {err.msg}"]
            ) from err
    else:
        doc = source
    errors: list[str] = []
    doc = _merge_defaults(doc)
    if seed_override is not None:
        doc["seed"] = seed_override

    if "mdp" not in doc:
        raise ConfigError(["config must contain an 'mdp' section"])

    def read(section: str, block: dict, key: str, *rule):
        try:
            return _convert(key, block[key], *rule)
        except ValueError as err:
            errors.append(f"{section}: {err}")

    try:
        spec, replay = load_mdp(doc["mdp"])
    except (TypeError, ValueError, KeyError) as err:
        raise ConfigError([f"mdp section: {err}"]) from err
    report = validate_mdp(spec, replay)
    errors.extend(report.failures)
    seed = read("top level", doc, "seed", _index, lambda n: n >= 0, "an integer >= 0")
    n_traj = read("top level", doc, "n_traj", *_COUNT)

    net_doc = doc["net"]
    net = None
    try:
        net = QNetSpec(n_states=spec.n_states, n_actions=spec.n_actions,
                       hidden=_convert("hidden", net_doc["hidden"], lambda hs: tuple(
                           map(_index, hs)), bool, "a non-empty list of integers"),
                       bound=_convert("bound_C", net_doc["bound_C"], *_NUMBER))
    except ValueError as err:
        errors.append(f"net section: {err}")

    algo_doc = doc["algo"]
    algo = None
    try:
        algo = AlgoConfig(eta=_convert("eta", algo_doc["eta"], *_NUMBER),
                          delta=_convert("delta", algo_doc["delta"], *_NUMBER),
                          **{k: _convert(k, algo_doc[k], *_COUNT) for k in ("m", "T", "rho")},
                          seed=seed)
        if algo.eta == 0.0:  # admitted by the chain alone; the diffusion arms need eta > 0
            errors.append("algo section: eta must be positive")
    except ValueError as err:
        errors.append(f"algo section: {err}")

    checkpoints = algo and read("top level", {"checkpoints": [0, algo.T], **doc},
                                "checkpoints", *_checkpoints(algo.T))

    theta0 = np.zeros(net.d if net is not None else 0)
    if net is not None:
        init = net_doc["init"]
        if init.get("dist", "normal") != "normal":
            errors.append(f"net.init.dist must be 'normal', got {init.get('dist')!r}")
        if "theta0" in net_doc:
            theta0 = np.asarray(net_doc["theta0"], dtype=np.float64)
            if theta0.shape != (net.d,):
                errors.append(f"net.theta0 must have length d = {net.d}, got {theta0.shape}")
        else:
            theta0 = init_theta(net, spawn_generator(int(init.get("seed", 1)), THETA0_PATH),
                                float(init.get("stddev", 0.5)))

    if errors:
        raise ConfigError(errors)
    cfg = ExperimentConfig(mdp=spec, replay=replay, net=net, theta0=theta0, algo=algo,
                           strict_gate=bool(doc["strict_gate"]), n_traj=n_traj,
                           checkpoints=checkpoints, raw=doc)
    if cfg.strict_gate and not cfg.assumptions.passes:
        rep = cfg.assumptions
        msg = (f"eta = {algo.eta} rejected by the step-size gate "
               f"(eta_max = {rep.gate.eta_max:.6g}, binding constraint: {rep.binding})")
        if not force:
            raise ConfigError([msg])
        cfg.warnings.append(msg + " [forced]")
    return cfg
