"""Headline studies: the W1 rate sweep, moment-bound suites, and the
delay-vs-no-delay variance comparison.

Conventions shared by all studies: the chain and the delay diffusion never
share noise streams (two-sample W1 compares laws, so the ensembles must be
independent); the physical horizon T*eta is held fixed across a sweep by
scaling the step count; every study is reproducible from (config, master
seed) alone.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .chain import AlgoConfig, moment_check_theta, run_dqn
from .coeffs import estimate_constants, step_size_gate
from .mdp import MdpSpec
from .qnet import QNetSpec
from .rng import spawn_generator
from .sdde import moment_check_X, run_sdde
from .wasserstein import W1Estimate, w1_assignment_subsampled, w1_sliced

_CHAIN_ARM, _SDDE_ARM, _GATE_ARM, _W1_ARM = 0, 1, 2, 3


class GateError(RuntimeError):
    """The step-size gate rejected a requested eta (run with force to bypass)."""


def w1_bound_shape(eta: np.ndarray, delta: float) -> np.ndarray:
    """The upper-bound shape sqrt(eta delta)(1 + |ln eta| + delta/eta^(1/4))."""
    eta = np.asarray(eta, dtype=np.float64)
    return np.sqrt(eta * delta) * (1.0 + np.abs(np.log(eta)) + delta / eta ** 0.25)


@dataclass
class RateSweepRow:
    eta: float
    delta: float
    T: int
    m: int
    n_traj: int
    w1_sliced: float
    sliced_stderr: float
    sliced_baseline: float
    w1_assignment: float
    assignment_baseline: float
    w1_sliced_tracked: float
    w1_assignment_tracked: float
    reliable: bool

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class RateSweepResult:
    rows: list[RateSweepRow]
    slope: float
    slope_stderr: float
    slope_ci95: tuple[float, float]
    slope_reliable: float | None
    bound_c_fit: float
    bound_c_envelope: float
    reliable_below_envelope: bool
    tracked_coords: tuple[int, ...]
    meta: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"rows": [r.as_dict() for r in self.rows], "slope": self.slope,
                "slope_stderr": self.slope_stderr, "slope_ci95": list(self.slope_ci95),
                "slope_reliable": self.slope_reliable, "bound_c_fit": self.bound_c_fit,
                "bound_c_envelope": self.bound_c_envelope,
                "reliable_below_envelope": self.reliable_below_envelope,
                "tracked_coords": list(self.tracked_coords), "meta": self.meta}


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """OLS slope and its standard error in log-log coordinates."""
    if len(x) < 2:
        return float("nan"), float("nan")
    lx, ly = np.log(x), np.log(y)
    n = len(lx)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    if n > 2:
        sxx = ((lx - lx.mean()) ** 2).sum()
        se = float(np.sqrt((resid ** 2).sum() / (n - 2) / sxx))
    else:
        se = float("nan")
    return float(slope), se


def check_gate(net: QNetSpec, spec: MdpSpec, q: np.ndarray, etas, delta: float,
               seed: int, n_pairs: int = 200, radius: float = 5.0,
               force: bool = False) -> dict:
    """Estimate constants once and gate every requested eta."""
    rng = spawn_generator(seed, (_GATE_ARM,))
    est = estimate_constants(net, spec, q, n_pairs, radius, rng)
    gate = step_size_gate(est, delta)
    failures = [float(e) for e in etas if not gate.passes(float(e))]
    if failures and not force:
        raise GateError(
            f"step-size gate rejects eta in {failures}: eta_max = {gate.eta_max:.6g} "
            f"(binding: {gate.binding(max(failures))}); pass force=True to override")
    return {"estimates": est.as_dict(), "eta_max": gate.eta_max,
            "rejected": failures, "forced": bool(failures)}


def _tracked_indices(d: int, k: int) -> tuple[int, ...]:
    idx = np.unique(np.round(np.linspace(0, d - 1, min(k, d))).astype(int))
    return tuple(int(i) for i in idx)


def two_sample_w1(a: np.ndarray, b: np.ndarray, n_proj: int, cap: int,
                  rng: np.random.Generator) -> tuple[W1Estimate, W1Estimate]:
    """Sliced W1 on the full clouds plus exact assignment W1 on subsamples."""
    sliced = w1_sliced(a, b, n_proj, rng)
    return sliced, w1_assignment_subsampled(a, b, cap, rng)


def _run_arms(net: QNetSpec, spec: MdpSpec, q: np.ndarray, n_traj: int, arms,
              threads: int = 1) -> list:
    """(chain, diffusion) ensembles of every arm, in arm order.

    arms[i] = (x0, cfg, checkpoints), cfg an AlgoConfig: arm i runs
    ``run_dqn`` on the streams (_CHAIN_ARM, i) and ``run_sdde`` on
    (_SDDE_ARM, i), both from x0 with the same cfg, the diffusion at cfg.rho
    substeps per step.  Arms share no stream, so threads > 1 runs them
    concurrently with identical results.
    """
    def run(i):
        x0, cfg, checkpoints = arms[i]
        chain = run_dqn(net, spec, q, x0, cfg, n_traj, checkpoints,
                        stream_path=(_CHAIN_ARM, i))
        diff = run_sdde(net, spec, q, x0, cfg, n_traj, checkpoints,
                        stream_path=(_SDDE_ARM, i))
        return chain, diff

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, range(len(arms))))
    return [run(i) for i in range(len(arms))]


def rate_sweep(net: QNetSpec, spec: MdpSpec, q: np.ndarray, theta0: np.ndarray,
               eta_grid, delta: float, m: int, T0: int, eta0: float,
               n_traj: int, seed: int, rho: int = 20, n_proj: int = 64,
               assignment_cap: int = 512, tracked: int = 4,
               force: bool = False, threads: int = 1) -> RateSweepResult:
    """W1 scaling study: W1(L(theta_T), L(X_{T eta})) across a step grid.

    T is scaled as round(T0 * eta0 / eta) so the horizon T*eta is fixed; the
    final-checkpoint laws are compared with independent noise.  The slope is
    fitted on the sliced estimates over the full grid; rows whose estimate
    sits below twice the split-half baseline are flagged unreliable.
    """
    etas = sorted((float(e) for e in eta_grid), reverse=True)
    if not etas:
        raise ValueError("eta_grid must contain at least one step size")
    gate_info = check_gate(net, spec, q, etas, delta, seed, force=force)
    tracked_idx = _tracked_indices(net.d, tracked)
    cfgs = [AlgoConfig(eta=eta, delta=delta, m=m, T=int(round(T0 * eta0 / eta)),
                       rho=rho, seed=seed) for eta in etas]
    arms = _run_arms(net, spec, q, n_traj, [(theta0, c, [0, c.T]) for c in cfgs], threads)

    rows = []
    for i, (c, (chain, diff)) in enumerate(zip(cfgs, arms)):
        th, xs = chain.at(c.T), diff.at(c.T)
        w1_rng = spawn_generator(seed, (_W1_ARM, i))
        sliced, assign = two_sample_w1(th, xs, n_proj, assignment_cap, w1_rng)
        tr_rng = spawn_generator(seed, (_W1_ARM, i, 1))
        sl_tr, as_tr = two_sample_w1(th[:, tracked_idx], xs[:, tracked_idx],
                                     n_proj, assignment_cap, tr_rng)
        rows.append(RateSweepRow(
            eta=c.eta, delta=delta, T=c.T, m=m, n_traj=n_traj,
            w1_sliced=sliced.value, sliced_stderr=sliced.stderr,
            sliced_baseline=sliced.baseline,
            w1_assignment=assign.value, assignment_baseline=assign.baseline,
            w1_sliced_tracked=sl_tr.value, w1_assignment_tracked=as_tr.value,
            reliable=sliced.reliable()))

    ets = np.array([r.eta for r in rows])
    vals = np.array([r.w1_sliced for r in rows])
    slope, se = _loglog_fit(ets, np.maximum(vals, 1e-300))
    ci = (slope - 1.96 * se, slope + 1.96 * se)
    rel = np.array([r.reliable for r in rows])
    slope_rel = None
    if rel.sum() >= 2:
        slope_rel = _loglog_fit(ets[rel], np.maximum(vals[rel], 1e-300))[0]
    bshape = w1_bound_shape(ets, delta)
    if rel.any():
        c_fit = float((vals[rel] * bshape[rel]).sum() / (bshape[rel] ** 2).sum())
        c_env = float((vals[rel] / bshape[rel]).max())
    else:
        c_fit = c_env = float("nan")
    return RateSweepResult(
        rows=rows, slope=slope, slope_stderr=se, slope_ci95=ci,
        slope_reliable=slope_rel, bound_c_fit=c_fit, bound_c_envelope=c_env,
        reliable_below_envelope=bool(rel.any() and
                                     np.all(vals[rel] <= c_env * bshape[rel] + 1e-12)),
        tracked_coords=tracked_idx,
        meta={"gate": gate_info, "T0": T0, "eta0": eta0, "rho": rho,
              "n_proj": n_proj, "assignment_cap": assignment_cap, "seed": seed})


@dataclass
class VarianceStudyRow:
    m: int
    checkpoint: int
    time: float
    trace_cov_theta: float
    trace_cov_X: float
    proj_var_theta: float | None
    proj_var_X: float | None

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class VarianceStudyResult:
    rows: list[VarianceStudyRow]
    ratios_theta: dict[int, float]
    ratios_X: dict[int, float]
    meta: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"rows": [r.as_dict() for r in self.rows],
                "ratios_theta": {str(k): v for k, v in self.ratios_theta.items()},
                "ratios_X": {str(k): v for k, v in self.ratios_X.items()},
                "meta": self.meta}


def variance_study(net: QNetSpec, spec: MdpSpec, q: np.ndarray, theta0: np.ndarray,
                   m_values, eta: float, delta: float, T: int, n_traj: int,
                   seed: int, checkpoints, rho: int = 20,
                   project: np.ndarray | None = None,
                   threads: int = 1) -> VarianceStudyResult:
    """Delayed (m > 1) vs undelayed (m = 1) fluctuation comparison.

    Reports the trace of the empirical parameter covariance for the chain and
    the diffusion at each checkpoint, per target period m, plus the ratio of
    late-horizon traces against the m = 1 arm.  When ``project`` is given,
    the variance of the projection onto that direction is reported too (the
    scalar observable of the closed-form oracle case).  The ordering on the
    full model is reported, not asserted.
    """
    m_values = sorted({int(m) for m in m_values})
    if 1 not in m_values:
        raise ValueError("m_values must include the undelayed arm m = 1")
    checkpoints = sorted({int(c) for c in checkpoints})
    u = None
    if project is not None:
        u = np.asarray(project, dtype=np.float64)
        u = u / np.linalg.norm(u)

    arms = _run_arms(net, spec, q, n_traj,
                     [(theta0, AlgoConfig(eta=eta, delta=delta, m=m, T=T, rho=rho,
                                          seed=seed), checkpoints)
                      for m in m_values], threads)

    rows = []
    late_theta, late_X = {}, {}
    for m, (chain, diff) in zip(m_values, arms):
        for c in checkpoints:
            th, xs = chain.at(c), diff.at(c)
            row = VarianceStudyRow(
                m=m, checkpoint=c, time=c * eta,
                trace_cov_theta=float(th.var(axis=0).sum()),
                trace_cov_X=float(xs.var(axis=0).sum()),
                proj_var_theta=float((th @ u).var()) if u is not None else None,
                proj_var_X=float((xs @ u).var()) if u is not None else None)
            rows.append(row)
        c_late = checkpoints[-1]
        th, xs = chain.at(c_late), diff.at(c_late)
        if u is not None:
            late_theta[m] = float((th @ u).var())
            late_X[m] = float((xs @ u).var())
        else:
            late_theta[m] = float(th.var(axis=0).sum())
            late_X[m] = float(xs.var(axis=0).sum())
    ratios_theta = {m: late_theta[m] / late_theta[1] for m in m_values}
    ratios_X = {m: late_X[m] / late_X[1] for m in m_values}
    return VarianceStudyResult(
        rows=rows, ratios_theta=ratios_theta, ratios_X=ratios_X,
        meta={"eta": eta, "delta": delta, "T": T, "n_traj": n_traj, "rho": rho,
              "seed": seed, "projected": u is not None})


@dataclass
class MomentSuiteResult:
    ic_scales: tuple[float, ...]
    theta_fourth: dict[float, list[float]]
    theta_ratios: dict[float, float]
    x_second: dict[float, list[float]]
    x_ratios: dict[float, float]
    x_disp_fits: dict[float, float]
    stability_theta: float
    stability_X: float
    max_over_fit_theta: float
    max_over_fit_X: float
    checkpoints: tuple[int, ...]
    meta: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"ic_scales": list(self.ic_scales),
                "theta_fourth": {str(k): v for k, v in self.theta_fourth.items()},
                "theta_ratios": {str(k): v for k, v in self.theta_ratios.items()},
                "x_second": {str(k): v for k, v in self.x_second.items()},
                "x_ratios": {str(k): v for k, v in self.x_ratios.items()},
                "x_disp_fits": {str(k): v for k, v in self.x_disp_fits.items()},
                "stability_theta": self.stability_theta,
                "stability_X": self.stability_X,
                "max_over_fit_theta": self.max_over_fit_theta,
                "max_over_fit_X": self.max_over_fit_X,
                "checkpoints": list(self.checkpoints), "meta": self.meta}


def moment_suite(net: QNetSpec, spec: MdpSpec, q: np.ndarray, eta: float,
                 delta: float, m: int, T: int, n_traj: int, seed: int,
                 checkpoints, rho: int = 20,
                 ic_scales=(0.0, 1.0, 5.0)) -> MomentSuiteResult:
    """Moment-bound suite over initial conditions x in {0, e1, 5 e1}.

    For each initial condition the chain's fourth moments and the diffusion's
    second moments are reduced to envelope ratios; the suite reports how
    stable the fitted constants are across initial conditions (target: within
    3x) and the worst checkpoint-to-fit ratio (target: below 10x the fit).
    """
    checkpoints = sorted({int(c) for c in checkpoints})
    cfg = AlgoConfig(eta=eta, delta=delta, m=m, T=T, rho=rho, seed=seed)
    x0s = [np.r_[scale, np.zeros(net.d - 1)] for scale in ic_scales]
    arms = _run_arms(net, spec, q, n_traj, [(x0, cfg, checkpoints) for x0 in x0s])
    theta_fourth, theta_ratio = {}, {}
    x_second, x_ratio, x_disp = {}, {}, {}
    for scale, x0, (chain, diff) in zip(ic_scales, x0s, arms):
        rep_t = moment_check_theta(chain)
        rep_x = moment_check_X(diff, x0)
        theta_fourth[scale] = rep_t.fourth_moments.tolist()
        theta_ratio[scale] = float(np.mean(rep_t.fourth_moments / rep_t.envelope))
        x_second[scale] = rep_x.second_moments.tolist()
        x_ratio[scale] = float(np.mean(rep_x.second_moments / rep_x.envelope))
        x_disp[scale] = rep_x.c_disp_fit
    stab_t = max(theta_ratio.values()) / min(theta_ratio.values())
    stab_x = max(x_ratio.values()) / min(x_ratio.values())
    fit_t = float(np.mean(list(theta_ratio.values())))
    fit_x = float(np.mean(list(x_ratio.values())))
    max_t = max(max(v) / ((1.0 + 2.0 * s ** 4) * fit_t)
                for s, v in theta_fourth.items())
    max_x = max(max(v) / ((1.0 + 2.0 * s ** 2 + delta) * fit_x)
                for s, v in x_second.items())
    return MomentSuiteResult(
        ic_scales=tuple(float(s) for s in ic_scales),
        theta_fourth=theta_fourth, theta_ratios=theta_ratio,
        x_second=x_second, x_ratios=x_ratio, x_disp_fits=x_disp,
        stability_theta=float(stab_t), stability_X=float(stab_x),
        max_over_fit_theta=float(max_t), max_over_fit_X=float(max_x),
        checkpoints=tuple(checkpoints),
        meta={"eta": eta, "delta": delta, "m": m, "T": T, "n_traj": n_traj,
              "rho": rho, "seed": seed})
