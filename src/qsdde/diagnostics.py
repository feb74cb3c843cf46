"""Generator operators and the operator-comparison diagnostic.

The one-step generator of the chain is estimated by Monte Carlo,

    A_theta f(x) = E[ f(one noisy update from x, frozen target) ] - f(x),

while the diffusion generator is evaluated exactly from the enumerated
coefficients,

    A_X f(x) = 1/2 <eta Sigma(x,y) + eta beta_bar(x) + delta I, Hess f(x)>_HS
               - <b(x,y), grad f(x)>.

One chain step spans time eta of the diffusion, so the comparable pointwise
quantity is |eta * A_X f(x) - A_theta f(x)|: a higher-order remainder that
must shrink superlinearly as eta decreases.  A full operator comparison
would integrate this gap along the rescaled diffusion over one step; the
pointwise value is the leading (s = 0) term, and reports label it as such.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coeffs import (AssumptionEstimates, GateResult, estimate_constants,
                     sigma_matrix, step_size_gate)
from .chain import AlgoConfig, cumulative_tables, replay_step
from .mdp import MdpSpec
from .qnet import QNetSpec


@dataclass(frozen=True)
class Quadratic:
    """f(x) = x^T A x + b^T x + c with closed-form derivatives."""

    A: np.ndarray
    b: np.ndarray
    c: float = 0.0

    def __post_init__(self):
        A = 0.5 * (np.asarray(self.A, dtype=np.float64)
                   + np.asarray(self.A, dtype=np.float64).T)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))

    def value(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        return ((x @ self.A) * x).sum(axis=1) + x @ self.b + self.c

    def grad(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * self.A @ x + self.b

    def hess(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * self.A


@dataclass
class McValue:
    estimate: float
    stderr: float
    n_mc: int


def generator_theta(f, net: QNetSpec, spec: MdpSpec, q: np.ndarray, x: np.ndarray,
                    target: np.ndarray, cfg: AlgoConfig, n_mc: int,
                    rng: np.random.Generator, batch: int = 65536) -> McValue:
    """Monte Carlo E[f(theta_1)] - f(x) for one chain step with frozen target."""
    if n_mc < 1000:
        raise ValueError("n_mc must be >= 1e3")
    d = net.d
    tables = cumulative_tables(spec, q)
    fx = float(f.value(x[None, :])[0])
    total, total2, done = 0.0, 0.0, 0
    while done < n_mc:
        nb = min(batch, n_mc - done)
        u = rng.uniform(size=(nb, 2))
        xi = rng.standard_normal(nb)
        W = rng.standard_normal((nb, d))
        theta1 = replay_step(net, spec, tables, np.broadcast_to(x[:, None], (d, nb)),
                             np.broadcast_to(target[:, None], (d, nb)), u,
                             np.column_stack([xi, W]), cfg.eta, cfg.delta)
        vals = f.value(theta1.T) - fx
        total += vals.sum()
        total2 += (vals ** 2).sum()
        done += nb
    mean = total / n_mc
    var = max(total2 / n_mc - mean ** 2, 0.0)
    return McValue(estimate=float(mean), stderr=float(np.sqrt(var / n_mc)), n_mc=n_mc)


def generator_X(f, net: QNetSpec, spec: MdpSpec, q: np.ndarray, x: np.ndarray,
                target: np.ndarray, eta: float, delta: float) -> float:
    """Exact diffusion generator from the enumerated coefficients."""
    cs = sigma_matrix(net, spec, q, x, target, eta, delta)
    grad = f.grad(x)
    hess = f.hess(x)
    mat = eta * cs.Sigma + eta * cs.beta_bar + delta * np.eye(net.d)
    return float(0.5 * np.sum(mat * hess) - grad @ cs.b)


@dataclass
class GapReport:
    """Pointwise generator gap over a grid of step sizes at one probe point."""

    etas: tuple[float, ...]
    gaps: tuple[float, ...]
    stderrs: tuple[float, ...]
    theta_values: tuple[float, ...]
    x_values: tuple[float, ...]
    fitted_order: float | None
    note: str = ("pointwise surrogate at s=0 for the time-integrated operator "
                 "comparison; captures the leading term only")

    def as_dict(self) -> dict:
        return {"etas": list(self.etas), "gaps": list(self.gaps),
                "stderrs": list(self.stderrs),
                "theta_generator": list(self.theta_values),
                "x_generator_times_eta": list(self.x_values),
                "fitted_order": self.fitted_order, "note": self.note}


def generator_gap(f, net: QNetSpec, spec: MdpSpec, q: np.ndarray, x: np.ndarray,
                  target: np.ndarray, cfg: AlgoConfig, n_mc: int,
                  rng: np.random.Generator,
                  etas: tuple[float, ...] | None = None) -> GapReport:
    """|eta * A_X f - A_theta f| at each eta, plus the fitted log-log order."""
    if etas is None:
        etas = (cfg.eta,)
    gaps, ses, tvals, xvals = [], [], [], []
    for eta in etas:
        step_cfg = AlgoConfig(eta=eta, delta=cfg.delta, m=cfg.m, T=cfg.T,
                              seed=cfg.seed)
        mc = generator_theta(f, net, spec, q, x, target, step_cfg, n_mc, rng)
        gx = eta * generator_X(f, net, spec, q, x, target, eta, cfg.delta)
        gaps.append(abs(gx - mc.estimate))
        ses.append(mc.stderr)
        tvals.append(mc.estimate)
        xvals.append(gx)
    order = None
    if len(etas) >= 2 and all(g > 0 for g in gaps):
        slope, _ = np.polyfit(np.log(etas), np.log(gaps), 1)
        order = float(slope)
    return GapReport(etas=tuple(etas), gaps=tuple(gaps), stderrs=tuple(ses),
                     theta_values=tuple(tvals), x_values=tuple(xvals),
                     fitted_order=order)


@dataclass
class AssumptionReport:
    """Estimated regularity constants plus the step-size gate verdict."""

    estimates: AssumptionEstimates
    gate: GateResult
    eta: float
    delta: float
    passes: bool
    binding: str | None
    warnings: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"estimates": self.estimates.as_dict(),
                "gate": {"eta_max": self.gate.eta_max,
                         "constraints": {k: (v if np.isfinite(v) else "inf")
                                         for k, v in self.gate.constraints.items()},
                         "safety": self.gate.safety},
                "eta": self.eta, "delta": self.delta, "passes": self.passes,
                "binding_constraint": self.binding, "warnings": self.warnings}

    def __str__(self) -> str:
        e = self.estimates
        lines = [
            "assumption report",
            f"  L_hat        = {e.L_hat:.6g}",
            f"  K_hat        = {e.K_hat:.6g}",
            f"  beta_max_hat = {e.beta_max_hat:.6g}",
            f"  |b(0,0)|     = {e.b00_norm:.6g}",
            f"  gate: eta <= {self.gate.eta_max:.6g} (safety x{self.gate.safety:g}), "
            f"delta <= 1: {'yes' if self.gate.delta_ok else 'NO'}",
            f"  eta = {self.eta:.6g}, delta = {self.delta:.6g} -> "
            + ("PASS" if self.passes else f"FAIL (binding: {self.binding})"),
        ]
        lines.extend(f"  warning: {w}" for w in self.warnings)
        return "\n".join(lines)


def assumption_report(net: QNetSpec, spec: MdpSpec, q: np.ndarray, cfg: AlgoConfig,
                      rng: np.random.Generator, n_pairs: int = 200,
                      radius: float = 5.0) -> AssumptionReport:
    """Estimate regularity constants and evaluate the step-size gate for cfg."""
    est = estimate_constants(net, spec, q, n_pairs, radius, rng)
    gate = step_size_gate(est, cfg.delta)
    passes = gate.passes(cfg.eta)
    warnings = []
    if cfg.delta > 1.0:
        warnings.append(f"delta = {cfg.delta} exceeds 1")
    return AssumptionReport(estimates=est, gate=gate, eta=cfg.eta, delta=cfg.delta,
                            passes=passes, binding=gate.binding(cfg.eta),
                            warnings=warnings)
