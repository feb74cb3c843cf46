"""Experiment configuration: JSON loading, defaults, validation.

A config document bundles the MDP, the network architecture, the algorithm
parameters and per-study blocks.  Loading fills defaults, refuses unknown
keys, checks every module-level invariant and aggregates all violations
into one error.  It does not gate the step size: each command gates the
step sizes it runs (``cli._gate``), reading the run's one estimate of the
regularity constants, made on first use.  A study block is checked only
when a command asks for its spec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .chain import AlgoConfig
from .diagnostics import assumption_report
from .mdp import (_COUNT, _OBJECT, IdealizedReplay, MdpSpec, ReplayModel,
                  RuleError, _convert, _index, _json_file, _known, _real, load_mdp, uniform_q,
                  validate_mdp)
from .qnet import _BOUND, _HIDDEN, QNetSpec, init_theta
from .rng import SNAPSHOT_PATH, THETA0_PATH, spawn_generator

DEFAULTS = {
    "seed": 0,
    "strict_gate": False,
    "net": {"hidden": [8], "bound_C": 10.0, "init": {"dist": "normal", "stddev": 0.5, "seed": 1}},
    "algo": {"eta": 0.05, "delta": 0.5, "m": 5, "T": 40, "rho": 20},
    "n_traj": 256,
}
# every top-level key; a study block's own keys are checked when a command reads it
TOP_LEVEL = (*DEFAULTS, "mdp", "checkpoints", "rate_sweep", "variance_study", "moment_suite")


class ConfigError(ValueError):
    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {e}" for e in errors))


def _steps(values) -> tuple[int, ...]:
    return tuple(sorted({_index(v) for v in values}))


_SEED = (_index, lambda n: n >= 0, "an integer >= 0")
_PAIR_COUNT = (_index, lambda n: n >= 2, "an integer >= 2")  # a variance or a W1 floor needs 2


def _checkpoints(T: int, last: int = 0):  # the rule on steps in [0, T], the last >= last
    return _steps, lambda cs: cs and cs[0] >= 0 and last <= cs[-1] <= T, \
        f"a non-empty list of steps in [0, T={T}]" + (", not all 0" if last else "")


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
    def estimates(self) -> dict:
        """The run's one estimate of the regularity constants, the document of
        ``estimate_constants``."""
        return assumption_report(self.net, self.mdp, self.q,
                                 spawn_generator(self.algo.seed, SNAPSHOT_PATH))

    def study(self, spec_cls):
        """The spec of the study block spec_cls.section over the run's defaults;
        a bad block is one ConfigError naming the section and the key, and for
        a value the block left to the run, that it is inherited and as written."""
        block = self.raw.get(spec_cls.section, {})
        try:
            if not isinstance(block, dict):
                raise ValueError("must be a JSON object")
            _known(block, [f.name for f in fields(spec_cls)])
            return spec_cls.from_block(block, self)
        except ValueError as err:
            msg = str(err)
            # a value the block left to the run: the algo values meet every block's
            # rules, so it is the top-level n_traj or checkpoints (written or default)
            if isinstance(err, RuleError) and err.key not in block:
                msg = (f"{err.key} inherited from top-level {err.key} must be {err.need}, "
                       f"got {self.raw.get(err.key, self.checkpoints)!r}")
            raise ConfigError([f"{spec_cls.section} section: {msg}"]) from err


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
    errors.extend(f"mdp section: {f}" for f in validate_mdp(spec, replay))
    try:
        _known(doc, TOP_LEVEL)
    except ValueError as err:
        errors.append(f"top level: {err}")
    seed = read("top level", doc, "seed", *_SEED)
    n_traj = read("top level", doc, "n_traj", *_COUNT)

    net_doc = doc["net"]
    net = None
    try:
        _known(net_doc, (*DEFAULTS["net"], "theta0"))
        net = QNetSpec(n_states=spec.n_states, n_actions=spec.n_actions,
                       hidden=_convert("hidden", net_doc["hidden"], *_HIDDEN),
                       bound=_convert("bound_C", net_doc["bound_C"], *_BOUND))
    except ValueError as err:
        errors.append(f"net section: {err}")

    algo_doc = doc["algo"]
    algo = None
    try:
        _known(algo_doc, DEFAULTS["algo"])
        algo = AlgoConfig(**algo_doc, seed=seed)
    except ValueError as err:
        errors.append(f"algo section: {err}")

    checkpoints = algo and read("top level", {"checkpoints": [0, algo.T], **doc},
                                "checkpoints", *_checkpoints(algo.T))

    theta0 = None
    if net is not None:
        try:
            init = _convert("init", net_doc["init"], *_OBJECT)
            _known(init, DEFAULTS["net"]["init"], "init.")
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
