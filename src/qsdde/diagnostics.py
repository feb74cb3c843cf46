"""Generator operators and the operator-comparison diagnostic.

The one-step generator of the chain, A_theta f(x) = E[f(one noisy update
from x, frozen target)] - f(x), and the diffusion generator

    A_X f(x) = 1/2 <eta Sigma(x,y) + eta beta_bar(x) + delta I, Hess f(x)>_HS
               - <b(x,y), grad f(x)>,

both follow from the enumerated coefficients.  One chain step spans time eta
of the diffusion, so the comparable pointwise quantity is
|eta * A_X f(x) - A_theta f(x)|.  For quadratic f (``Quadratic``) the
step's mean x - eta b and covariance eta^2 (Sigma + beta_bar) + eta delta I
give it exactly:

    A_theta f(x) - eta * A_X f(x) = eta^2 b^T A b.

A full operator comparison would integrate this gap along the rescaled
diffusion over one step; the pointwise value is the leading (s = 0) term,
and reports label it as such.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import estimate_constants, exact_drift_b, sigma_matrix
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


def generator_X(f, net: QNetSpec, spec: MdpSpec, q: np.ndarray, x: np.ndarray,
                target: np.ndarray, eta: float, delta: float) -> float:
    """Exact diffusion generator from the enumerated coefficients."""
    doc = sigma_matrix(net, spec, q, x, target, eta, delta)
    grad = f.grad(x)
    hess = f.hess(x)
    mat = eta * doc["Sigma"] + eta * doc["beta_bar"] + delta * np.eye(net.d)
    return float(0.5 * np.sum(mat * hess) - grad @ doc["b"])


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


def _square(eta: float) -> float:
    """eta ** 2, or inf where the square overflows (a float power raises there)."""
    try:
        return eta ** 2
    except OverflowError:
        return np.inf


def generator_gap(f, net: QNetSpec, spec: MdpSpec, q: np.ndarray, x: np.ndarray,
                  target: np.ndarray, delta: float, etas: tuple[float, ...]) -> dict:
    """|eta * A_X f - A_theta f| = eta^2 |b^T A b| for quadratic f at each eta,
    plus the fitted log-log order: one probe point's report.  A reading that
    overflows is inf, and the order is fitted only when every gap is finite
    and positive."""
    etas = tuple(etas)
    b = exact_drift_b(net, spec, q, x, target)
    rems = [_square(eta) * float(b @ f.A @ b) for eta in etas]
    xvals = [eta * generator_X(f, net, spec, q, x, target, eta, delta) for eta in etas]
    gaps = tuple(abs(r) for r in rems)
    order = (_loglog_fit(etas, gaps)[0]
             if len(etas) >= 2 and all(0.0 < g < np.inf for g in gaps) else None)
    return {"etas": etas, "gaps": gaps,
            "theta_generator": tuple(gx + r for gx, r in zip(xvals, rems)),
            "x_generator_times_eta": tuple(xvals), "fitted_order": order,
            "note": ("pointwise surrogate at s=0 for the time-integrated operator "
                     "comparison; captures the leading term only")}


def assumption_report(net: QNetSpec, spec: MdpSpec, q: np.ndarray,
                      rng: np.random.Generator) -> dict:
    """Regularity constants from 200 probe pairs in radius 5: the estimate that
    every step-size gate of a run reads."""
    return estimate_constants(net, spec, q, n_pairs=200, radius=5.0, rng=rng)
