"""Experiment configuration: JSON loading, defaults, validation.

A config document bundles the MDP, the network architecture, the algorithm
parameters and per-study blocks.  Loading fills defaults, checks every
module-level invariant and aggregates all violations into one error.  It
does not gate the step size: each command gates the step sizes it runs
(``cli._gate``), reading the run's one estimate of the regularity
constants, made on first use.  A study block is checked only when a command
asks for its spec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .chain import AlgoConfig
from .coeffs import AssumptionEstimates
from .diagnostics import assumption_report
from .mdp import (_COUNT, _NUMBER, _OBJECT, IdealizedReplay, MdpSpec, ReplayModel,
                  _convert, _index, _json_file, _real, load_mdp, uniform_q, validate_mdp)
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


def _steps(values) -> tuple[int, ...]:
    return tuple(sorted({_index(v) for v in values}))


_SEED = (_index, lambda n: n >= 0, "an integer >= 0")


def _checkpoints(T: int):  # the rule on the checkpoints of a horizon of T steps
    return _steps, lambda cs: cs and cs[0] >= 0 and cs[-1] <= T, \
        f"a non-empty list of steps in [0, T={T}]"


def _floats(d: int):  # the rule on a point of R^d
    return lambda xs: np.array([_real(x) for x in xs]), \
        lambda v: v.shape == (d,) and np.isfinite(v).all(), f"a list of d = {d} finite numbers"


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

    @property
    def q(self) -> np.ndarray:
        if isinstance(self.replay, IdealizedReplay):
            return self.replay.q
        return uniform_q(self.mdp.n_states, self.mdp.n_actions)

    @cached_property
    def estimates(self) -> AssumptionEstimates:
        """The run's one estimate of the regularity constants."""
        return assumption_report(self.net, self.mdp, self.q,
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


def load_config(source: str | Path | dict, seed_override: int | None = None) -> ExperimentConfig:
    """Load and validate a config document, aggregating every violation."""
    try:
        doc = _json_file(source) if isinstance(source, (str, Path)) else source
    except ValueError as err:
        raise ConfigError([str(err)]) from err
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
    except (TypeError, ValueError) as err:
        raise ConfigError([f"mdp section: {err}"]) from err
    report = validate_mdp(spec, replay)
    errors.extend(report.failures)
    seed = read("top level", doc, "seed", *_SEED)
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

    theta0 = None
    if net is not None:
        try:
            init = _convert("init", net_doc["init"], *_OBJECT)
            if init.get("dist", "normal") != "normal":
                raise ValueError(f"init.dist must be 'normal', got {init.get('dist')!r}")
            if "theta0" in net_doc:
                theta0 = _convert("theta0", net_doc["theta0"], *_floats(net.d))
            else:
                rng = spawn_generator(_convert("init.seed", init.get("seed", 1), *_SEED),
                                      THETA0_PATH)
                theta0 = init_theta(net, rng, _convert(
                    "init.stddev", init.get("stddev", 0.5), _real,
                    lambda x: np.isfinite(x) and x >= 0.0, "a finite number >= 0"))
        except ValueError as err:
            errors.append(f"net section: {err}")
    strict_gate = read("top level", doc, "strict_gate", lambda v: v,
                       lambda v: isinstance(v, bool), "true or false")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(mdp=spec, replay=replay, net=net, theta0=theta0, algo=algo,
                            strict_gate=strict_gate, n_traj=n_traj,
                            checkpoints=checkpoints, raw=doc)
