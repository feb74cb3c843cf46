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

from dataclasses import dataclass, replace

import numpy as np

from .coeffs import AssumptionEstimates, estimate_constants, sigma_matrix
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


def _loglog_fit(x, y) -> tuple[float, float]:
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


@dataclass
class GapReport:
    """Pointwise generator gap over a grid of step sizes at one probe point."""

    etas: tuple[float, ...]
    gaps: tuple[float, ...]
    stderrs: tuple[float, ...]
    theta_generator: tuple[float, ...]
    x_generator_times_eta: tuple[float, ...]
    fitted_order: float | None
    note: str = ("pointwise surrogate at s=0 for the time-integrated operator "
                 "comparison; captures the leading term only")


def generator_gap(f, net: QNetSpec, spec: MdpSpec, q: np.ndarray, x: np.ndarray,
                  target: np.ndarray, cfg: AlgoConfig, n_mc: int,
                  rng: np.random.Generator,
                  etas: tuple[float, ...] | None = None) -> GapReport:
    """|eta * A_X f - A_theta f| at each eta, plus the fitted log-log order."""
    if etas is None:
        etas = (cfg.eta,)
    gaps, ses, tvals, xvals = [], [], [], []
    for eta in etas:
        mc = generator_theta(f, net, spec, q, x, target, replace(cfg, eta=eta), n_mc, rng)
        gx = eta * generator_X(f, net, spec, q, x, target, eta, cfg.delta)
        gaps.append(abs(gx - mc.estimate))
        ses.append(mc.stderr)
        tvals.append(mc.estimate)
        xvals.append(gx)
    order = (_loglog_fit(etas, gaps)[0] if len(etas) >= 2 and all(g > 0 for g in gaps)
             else None)
    return GapReport(etas=tuple(etas), gaps=tuple(gaps), stderrs=tuple(ses),
                     theta_generator=tuple(tvals), x_generator_times_eta=tuple(xvals),
                     fitted_order=order)


def assumption_report(net: QNetSpec, spec: MdpSpec, q: np.ndarray,
                      rng: np.random.Generator) -> AssumptionEstimates:
    """Regularity constants from 200 probe pairs in radius 5: the estimate that
    every step-size gate of a run reads."""
    return estimate_constants(net, spec, q, n_pairs=200, radius=5.0, rng=rng)
