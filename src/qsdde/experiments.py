"""Headline studies: the W1 rate sweep, moment-bound suites, and the
delay-vs-no-delay variance comparison.

Conventions shared by all studies: the chain and the delay diffusion never
share noise streams (two-sample W1 compares laws, so the ensembles must be
independent); the physical horizon T*eta is held fixed across a sweep by
scaling the step count; every study is reproducible from (config, master
seed) alone.  A study takes the run's ``AlgoConfig`` plus the spec of its
config block, derives each arm's config with ``dataclasses.replace``, and
returns the JSON document that the CLI writes: a dict, its rows dicts too.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .chain import AlgoConfig, run_dqn
from .config import _COUNT, _PAIR_COUNT, _checkpoints, _real, _steps
from .diagnostics import _loglog_fit
from .mdp import MdpSpec, _check
from .qnet import QNetSpec
from .rng import CHAIN_ARM, SDDE_ARM, W1_ARM, spawn_generator
from .sdde import run_sdde
from .wasserstein import w1_assignment_subsampled, w1_sliced


@dataclass(frozen=True)
class RateSweepSpec:
    """The ``rate_sweep`` block: the step grid and the W1 estimators' sizes."""

    section: ClassVar[str] = "rate_sweep"
    eta_grid: tuple[float, ...] = (0.1, 0.05, 0.025, 0.0125)
    n_traj: int = 4096
    n_proj: int = 64
    assignment_cap: int = 512
    tracked_coords: int = 4

    def __post_init__(self):
        _check(self, "eta_grid", lambda g: tuple(sorted(set(map(_real, g)), reverse=True)),
               lambda g: g and all(e > 0.0 for e in g), "a non-empty list of positive steps")
        _check(self, "n_traj", *_PAIR_COUNT)
        _check(self, "n_proj assignment_cap tracked_coords", *_COUNT)

    @classmethod
    def from_block(cls, block: dict, run) -> RateSweepSpec:
        spec = cls(**block)
        spec.arms(run.algo)  # every eta must give at least one step
        return spec

    def arms(self, algo: AlgoConfig) -> list[AlgoConfig]:
        """algo at each eta, largest first, with T scaled to keep T * eta fixed."""
        small = self.eta_grid[-1]
        if not np.isfinite(algo.T * algo.eta / small):
            raise ValueError(f"eta_grid entry {small} gives T = {algo.T} * {algo.eta} / "
                             f"{small}, not a finite number of steps")
        Ts = [int(round(algo.T * algo.eta / eta)) for eta in self.eta_grid]
        if min(Ts) < 1:
            raise ValueError(f"eta_grid entry {self.eta_grid[0]} gives T = round({algo.T} "
                             f"* {algo.eta} / {self.eta_grid[0]}) = 0 steps")
        return [replace(algo, eta=eta, T=T) for eta, T in zip(self.eta_grid, Ts)]


@dataclass(frozen=True)
class VarianceStudySpec:
    """The ``variance_study`` block.  A key it leaves out takes the run's
    value: m_values (1, algo.m), and the top-level n_traj and checkpoints."""

    section: ClassVar[str] = "variance_study"
    m_values: tuple[int, ...]
    n_traj: int
    checkpoints: tuple[int, ...]

    def __post_init__(self):
        _check(self, "m_values", _steps, lambda ms: 1 in ms and ms[0] >= 1,
               "a list of target periods >= 1 that includes the undelayed m = 1")
        _check(self, "n_traj", *_PAIR_COUNT)
        _check(self, "checkpoints", _steps, lambda cs: cs and cs[0] >= 0 and cs[-1] > 0,
               "a non-empty list of steps >= 0, not all 0")

    @classmethod
    def from_block(cls, block: dict, run) -> VarianceStudySpec:
        spec = cls(**{"m_values": (1, run.algo.m), "n_traj": run.n_traj,
                      "checkpoints": run.checkpoints, **block})
        _check(spec, "checkpoints", *_checkpoints(run.algo.T))
        return spec


@dataclass(frozen=True)
class MomentSuiteSpec:
    """The ``moment_suite`` block, which may pin its own (gentler) regime.  A
    key it leaves out takes the run's value: eta, delta, m, T and rho from
    algo, and the top-level n_traj and checkpoints."""

    section: ClassVar[str] = "moment_suite"
    eta: float
    delta: float
    m: int
    T: int
    rho: int
    n_traj: int
    checkpoints: tuple[int, ...]
    ic_scales: tuple[float, ...] = (0.0, 1.0, 5.0)

    def __post_init__(self):
        _check(self, "eta delta", _real, lambda x: x > 0.0, "positive")
        _check(self, "m T rho n_traj", *_COUNT)
        _check(self, "checkpoints", *_checkpoints(self.T, 1))
        _check(self, "ic_scales", lambda ss: tuple(dict.fromkeys(map(_real, ss))),
               lambda ss: ss and all(np.isfinite(1.0 + 2.0 * s * s * s * s) for s in ss),
               "a non-empty list of finite numbers s with a finite envelope 1 + 2 s^4")
        AlgoConfig(self.eta, self.delta, self.m, self.T, self.rho)  # refused before the manifest

    @classmethod
    def from_block(cls, block: dict, run) -> MomentSuiteSpec:
        a = run.algo
        return cls(**{"eta": a.eta, "delta": a.delta, "m": a.m, "T": a.T, "rho": a.rho,
                      "n_traj": run.n_traj, "checkpoints": run.checkpoints, **block})


def w1_bound_shape(eta: np.ndarray, delta: float) -> np.ndarray:
    """The upper-bound shape sqrt(eta delta)(1 + |ln eta| + delta/eta^(1/4))."""
    eta = np.asarray(eta, dtype=np.float64)
    return np.sqrt(eta * delta) * (1.0 + np.abs(np.log(eta)) + delta / eta ** 0.25)


def _tracked_indices(d: int, k: int) -> tuple[int, ...]:
    idx = np.unique(np.round(np.linspace(0, d - 1, min(k, d))).astype(int))
    return tuple(int(i) for i in idx)


def _run_arms(net: QNetSpec, spec: MdpSpec, q: np.ndarray, n_traj: int, arms,
              threads: int = 1) -> list:
    """(chain, diffusion) ensembles of every arm, in arm order.

    arms[i] = (x0, cfg, checkpoints), cfg an AlgoConfig: arm i runs
    ``run_dqn`` on the streams (CHAIN_ARM, i) and ``run_sdde`` on
    (SDDE_ARM, i), both from x0 with the same cfg, the diffusion at cfg.rho
    substeps per step.  Arms share no stream, so threads > 1 runs them
    concurrently with identical results.
    """
    def run(i):
        x0, cfg, checkpoints = arms[i]
        chain = run_dqn(net, spec, q, x0, cfg, n_traj, checkpoints,
                        stream_path=(CHAIN_ARM, i))
        diff = run_sdde(net, spec, q, x0, cfg, n_traj, checkpoints,
                        stream_path=(SDDE_ARM, i))
        return chain, diff

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, range(len(arms))))
    return [run(i) for i in range(len(arms))]


def rate_sweep(net: QNetSpec, spec: MdpSpec, q: np.ndarray, theta0: np.ndarray,
               algo: AlgoConfig, sweep: RateSweepSpec, threads: int = 1) -> dict:
    """W1 scaling study: W1(L(theta_T), L(X_{T eta})) across a step grid.

    Arm i runs ``sweep.arms(algo)[i]``, all at the horizon T*eta of algo; the
    final-checkpoint laws are compared with independent noise.  The slope is
    fitted on the sliced estimates over the full grid; rows whose estimate
    sits below twice the split-half baseline are flagged unreliable.
    """
    cfgs = sweep.arms(algo)
    tracked_idx = _tracked_indices(net.d, sweep.tracked_coords)
    arms = _run_arms(net, spec, q, sweep.n_traj, [(theta0, c, [0, c.T]) for c in cfgs],
                     threads)

    rows = []
    for i, (c, (chain, diff)) in enumerate(zip(cfgs, arms)):
        th, xs = chain.at(c.T), diff.at(c.T)
        # sliced W1 on the full clouds, then exact assignment W1 on
        # subsamples, from one generator per cloud pair
        rng = spawn_generator(algo.seed, (W1_ARM, i))
        sliced = w1_sliced(th, xs, sweep.n_proj, rng)
        assign = w1_assignment_subsampled(th, xs, sweep.assignment_cap, rng)
        th, xs = th[:, tracked_idx], xs[:, tracked_idx]
        rng = spawn_generator(algo.seed, (W1_ARM, i, 1))
        sl_tr = w1_sliced(th, xs, sweep.n_proj, rng)
        as_tr = w1_assignment_subsampled(th, xs, sweep.assignment_cap, rng)
        rows.append({
            "eta": c.eta, "delta": c.delta, "T": c.T, "m": c.m, "n_traj": sweep.n_traj,
            "w1_sliced": sliced.value, "sliced_stderr": sliced.stderr,
            "sliced_baseline": sliced.baseline,
            "w1_assignment": assign.value, "assignment_baseline": assign.baseline,
            "w1_sliced_tracked": sl_tr.value, "w1_assignment_tracked": as_tr.value,
            "reliable": sliced.reliable()})

    ets = np.array([r["eta"] for r in rows])
    vals = np.array([r["w1_sliced"] for r in rows])
    slope, se = _loglog_fit(ets, np.maximum(vals, 1e-300))
    ci = (slope - 1.96 * se, slope + 1.96 * se)
    rel = np.array([r["reliable"] for r in rows])
    slope_rel = None
    if rel.sum() >= 2:
        slope_rel = _loglog_fit(ets[rel], np.maximum(vals[rel], 1e-300))[0]
    bshape = w1_bound_shape(ets, algo.delta)
    if rel.any():
        c_fit = float((vals[rel] * bshape[rel]).sum() / (bshape[rel] ** 2).sum())
        c_env = float((vals[rel] / bshape[rel]).max())
    else:
        c_fit = c_env = float("nan")
    return {
        "rows": rows, "slope": slope, "slope_stderr": se, "slope_ci95": ci,
        "slope_reliable": slope_rel, "bound_c_fit": c_fit, "bound_c_envelope": c_env,
        "reliable_below_envelope": bool(rel.any() and
                                        np.all(vals[rel] <= c_env * bshape[rel] + 1e-12)),
        "tracked_coords": tracked_idx,
        "meta": {"T0": algo.T, "eta0": algo.eta, "rho": algo.rho,
                 "n_proj": sweep.n_proj, "assignment_cap": sweep.assignment_cap,
                 "seed": algo.seed}}


def variance_study(net: QNetSpec, spec: MdpSpec, q: np.ndarray, theta0: np.ndarray,
                   algo: AlgoConfig, study: VarianceStudySpec,
                   project: np.ndarray | None = None,
                   threads: int = 1) -> dict:
    """Delayed (m > 1) vs undelayed (m = 1) fluctuation comparison.

    Arm i runs algo with the study's i-th target period m.  Reports the trace
    of the empirical parameter covariance for the chain and the diffusion at
    each checkpoint, per m, plus the ratio of late-horizon traces against the
    m = 1 arm.  When ``project`` is given, the variance of the projection
    onto that direction is reported too (the scalar observable of the
    closed-form oracle case).  The ordering on the full model is reported,
    not asserted.
    """
    u = None
    if project is not None:
        u = np.asarray(project, dtype=np.float64)
        u = u / np.linalg.norm(u)

    arms = _run_arms(net, spec, q, study.n_traj,
                     [(theta0, replace(algo, m=m), study.checkpoints)
                      for m in study.m_values], threads)

    rows, late = [], {}
    for m, (chain, diff) in zip(study.m_values, arms):
        for c in study.checkpoints:
            th, xs = chain.at(c), diff.at(c)
            rows.append({
                "m": m, "checkpoint": c, "time": c * algo.eta,
                "trace_cov_theta": float(th.var(axis=0).sum()),
                "trace_cov_X": float(xs.var(axis=0).sum()),
                "proj_var_theta": float((th @ u).var()) if u is not None else None,
                "proj_var_X": float((xs @ u).var()) if u is not None else None})
        r = rows[-1]  # the late horizon: the last checkpoint
        late[m] = ((r["proj_var_theta"], r["proj_var_X"]) if u is not None
                   else (r["trace_cov_theta"], r["trace_cov_X"]))
    ratios_theta = {m: late[m][0] / late[1][0] for m in study.m_values}
    ratios_X = {m: late[m][1] / late[1][1] for m in study.m_values}
    return {
        "rows": rows, "ratios_theta": ratios_theta, "ratios_X": ratios_X,
        "meta": {"eta": algo.eta, "delta": algo.delta, "T": algo.T, "n_traj": study.n_traj,
                 "rho": algo.rho, "seed": algo.seed, "projected": u is not None}}


def moment_suite(net: QNetSpec, spec: MdpSpec, q: np.ndarray, algo: AlgoConfig,
                 suite: MomentSuiteSpec) -> dict:
    """Moment-bound suite over initial conditions scale * e1, one per
    ``ic_scales`` entry.

    Every arm runs algo in the suite's own regime (its eta, delta, m, T and
    rho) from a deterministic start x = scale * e1.  Each checkpoint's
    E|theta|^4 is divided by the envelope 1 + 2|x|^4 and E|X|^2 by
    1 + 2|x|^2 + delta; an arm's ratio is their mean over checkpoints.  The
    suite reports how stable the ratios are across initial conditions
    (target: within 3x) and the worst checkpoint against envelope times mean
    ratio (target: below 10x).  E|X - x|^2 is fitted through the origin on
    the within-window growth shape t(t + eta + delta).
    """
    cfg = replace(algo, eta=suite.eta, delta=suite.delta, m=suite.m, T=suite.T,
                  rho=suite.rho)
    x0s = [np.r_[scale, np.zeros(net.d - 1)] for scale in suite.ic_scales]
    arms = _run_arms(net, spec, q, suite.n_traj,
                     [(x0, cfg, suite.checkpoints) for x0 in x0s])
    times = np.array([c * cfg.eta for c in suite.checkpoints])
    shape = times * (times + cfg.eta + cfg.delta)
    moved = shape > 0
    theta_fourth, theta_env, x_second, x_env, x_disp = {}, {}, {}, {}, {}
    for scale, x0, (chain, diff) in zip(suite.ic_scales, x0s, arms):
        x2 = float(x0 @ x0)
        theta_fourth[scale] = ((chain.samples ** 2).sum(axis=2) ** 2).mean(axis=0)
        theta_env[scale] = 1.0 + 2.0 * x2 ** 2
        x_second[scale] = (diff.samples ** 2).sum(axis=2).mean(axis=0)
        x_env[scale] = 1.0 + 2.0 * x2 + cfg.delta
        disp = ((diff.samples - x0) ** 2).sum(axis=2).mean(axis=0)
        x_disp[scale] = (float((disp[moved] * shape[moved]).sum() / (shape[moved] ** 2).sum())
                         if moved.any() else 0.0)
    theta_ratio = {s: float(np.mean(v / theta_env[s])) for s, v in theta_fourth.items()}
    x_ratio = {s: float(np.mean(v / x_env[s])) for s, v in x_second.items()}
    fit_t = float(np.mean(list(theta_ratio.values())))
    fit_x = float(np.mean(list(x_ratio.values())))
    return {
        "ic_scales": suite.ic_scales,
        "theta_fourth": {s: v.tolist() for s, v in theta_fourth.items()},
        "theta_ratios": theta_ratio,
        "x_second": {s: v.tolist() for s, v in x_second.items()},
        "x_ratios": x_ratio, "x_disp_fits": x_disp,
        "stability_theta": max(theta_ratio.values()) / min(theta_ratio.values()),
        "stability_X": max(x_ratio.values()) / min(x_ratio.values()),
        "max_over_fit_theta": max(float(v.max()) / (theta_env[s] * fit_t)
                                  for s, v in theta_fourth.items()),
        "max_over_fit_X": max(float(v.max()) / (x_env[s] * fit_x)
                              for s, v in x_second.items()),
        "checkpoints": suite.checkpoints,
        "meta": {"eta": cfg.eta, "delta": cfg.delta, "m": cfg.m, "T": cfg.T,
                 "n_traj": suite.n_traj, "rho": cfg.rho, "seed": cfg.seed}}
