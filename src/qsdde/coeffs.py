"""Exact drift and diffusion coefficients of the parameter dynamics.

On an enumerable MDP with idealized replay, every coefficient is an exact
finite sum over state-action heads k = (s, a):

  bbar(s,a; y)  next-state value  sum_{s'} p(s'|s,a) max_a' Q(s', a'; y)
  b(x, y)       drift             -sum_k q_k E_{s'}[c_k] grad Q_k(x)
  Sigma(x, y)   sampling cov      E[b_n b_n^T] - b b^T
  beta_bar(x)   reward-noise cov  sum_k q_k V_k^2 g_k g_k^T
  sigma(x, y)   diffusion         [Sigma + beta_bar + (delta/eta) I]^{1/2}

with the per-sample Bellman residual c_k(s') = R_k + gamma*maxQ(s'; y) - Q_k(x).
Because every per-sample drift is a scalar multiple of one of the K head
gradients G = (grad Q_k(x))_k, Sigma + beta_bar = G^T M G with a K x K core M
that has the closed-form factor F F^T = M.  ``noise_cotangent`` applies F in
O(K) per trajectory, so the simulator needs G only through one
vector-Jacobian product per step.  ``sigma_matrix`` builds the dense matrices
and the symmetric root for inspection and for the reconstruction checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import MdpSpec
from .qnet import QNetSpec, _sum, max_q_by_state, pair_heads, q_values_batch

EIG_HARD_FLOOR = -1e-10  # below this a negative eigenvalue is a bug, not noise
GATE_SAFETY = 2.0  # the step-size gate inflates the estimated L and K by this factor
_TINY = 1e-300


class CoefficientError(RuntimeError):
    """Signals a broken covariance computation (structurally negative modes)."""


def delay_moments(spec: MdpSpec, maxq_y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mu1, mu2), each (K, N): the p-weighted first and second moments over s'
    of the delay table maxq_y (N, S) of max_a Q(s, a; y_n)."""
    p_flat, n = spec.p.reshape(-1, spec.n_states), len(maxq_y)  # (K, S)
    # BLAS rounds a matrix-vector product unlike the matrix product of a wider batch
    m = maxq_y.T if n > 1 else np.repeat(maxq_y.T, 2, axis=1)
    return (p_flat @ m)[:, :n], (p_flat @ m ** 2)[:, :n]


def residual_moments(spec: MdpSpec, Qx: np.ndarray, mu1: np.ndarray,
                     mu2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Ec, Ec2), each (K, N), of the residual R_k + gamma*maxQ(s') - Q_k(x)
    from head values Qx (K, N) and the delay moments of ``delay_moments``."""
    base = spec.R.reshape(-1, 1) - Qx
    Ec = base + spec.gamma * mu1
    Ec2 = base ** 2  # + 2 gamma base mu1 + gamma^2 mu2, in place
    base *= 2.0 * spec.gamma
    base *= mu1
    Ec2 += base
    Ec2 += spec.gamma ** 2 * mu2
    return Ec, Ec2


def head_stats(net: QNetSpec, spec: MdpSpec, thetas_x: np.ndarray, maxq_y: np.ndarray):
    """(Qx, g, Ec, Ec2), the per-head quantities every coefficient reads, at a
    batch of points x given max-Q values at y: head values Qx (N, K), head
    gradients g (N, K, d), and the first and second moments Ec, Ec2 (N, K) of
    the Bellman residual over s'.

    thetas_x: (N, d); maxq_y: (N, S) table of max_a Q(s, a; y_n).
    """
    Qx, g = q_values_batch(net, thetas_x, pair_heads(net), with_grad=True)
    Ec, Ec2 = residual_moments(spec, Qx.T, *delay_moments(spec, maxq_y))
    return Qx, g, Ec.T, Ec2.T


def noise_cotangent(q: np.ndarray, Ec: np.ndarray, Ec2: np.ndarray,
                    V2: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """F xi, (K, N), for the closed-form factor F F^T = M of the core.

    q and V2 are (K, 1) columns of the sampling weights and the reward-noise
    variances V^2; Ec, Ec2, xi are head-major (K, N).  Sigma + beta_bar =
    G^T M G with M = diag(q*(Ec2 + V^2)) - v v^T, v = q*Ec, which is PSD by
    the weighted Cauchy-Schwarz inequality.  With D = diag(q*(Ec2 + V^2)) and
    u = D^{-1/2} v, |u| <= 1, the factor D^{1/2}(I - s uhat uhat^T) with
    s = 1 - sqrt(1 - |u|^2) applies as

        F xi = D^{1/2} (xi - u (u . xi) / (1 + sqrt(1 - |u|^2))),

    O(K) per column and free of the cancellation in s.  D^{1/2} u stands for
    v, and u is pulled back onto the unit ball when rounding puts it outside,
    so F xi is exactly 0 where M = 0: a single head with one reachable next
    state and no reward noise.  G^T F xi with xi ~ N(0, I_K) then has
    covariance Sigma + beta_bar.
    """
    D = Ec2 + V2
    D *= q
    Dh = np.sqrt(np.maximum(D, 0.0))
    u = np.where(D > _TINY, q * Ec / np.maximum(Dh, _TINY), 0.0)
    nu2 = _sum(u * u, 0)  # in head order, whatever the batch
    u /= np.sqrt(np.maximum(nu2, 1.0))  # rounding can put u just outside the unit ball
    u *= _sum(u * xi, 0) / (1.0 + np.sqrt(1.0 - np.minimum(nu2, 1.0)))
    np.subtract(xi, u, out=u)
    u *= Dh
    return u


def drift_from_stats(q: np.ndarray, Ec: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Exact drift b = -sum_k q_k Ec_k g_k for each batch point, shape (N, d)."""
    w = np.reshape(q, -1) * Ec  # (N, K)
    return -(w[:, None, :] @ g)[:, 0, :]


def exact_drift_b(net: QNetSpec, spec: MdpSpec, q: np.ndarray, x: np.ndarray,
                  y: np.ndarray) -> np.ndarray:
    """Exact drift b(x, y) by enumeration over the replay support."""
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    _, g, Ec, _ = head_stats(net, spec, x, max_q_by_state(net, y))
    b = drift_from_stats(q, Ec, g)
    return b[0] if b.shape[0] == 1 else b


@dataclass
class CoefficientSet:
    """Dense coefficients at one point pair, with their defining identities."""

    b: np.ndarray
    Sigma: np.ndarray
    beta_bar: np.ndarray
    sigma: np.ndarray
    eta: float
    delta: float

    @property
    def target(self) -> np.ndarray:
        """The matrix sigma must square to: Sigma + beta_bar + (delta/eta) I."""
        d = self.b.shape[0]
        return self.Sigma + self.beta_bar + (self.delta / self.eta) * np.eye(d)


def spd_sqrt(mat: np.ndarray, hard_floor: float = EIG_HARD_FLOOR) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in [hard_floor, 0) are treated as rounding noise and clipped
    to 0; anything below hard_floor raises (a genuinely indefinite input
    signals a broken covariance computation upstream).
    """
    sym = 0.5 * (mat + mat.T)
    w, v = np.linalg.eigh(sym)
    if w.min() < hard_floor:
        raise CoefficientError(
            f"matrix has eigenvalue {w.min():.6e} below the {hard_floor} floor")
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return 0.5 * (root + root.T)


def sigma_matrix(net: QNetSpec, spec: MdpSpec, q: np.ndarray, x: np.ndarray,
                 y: np.ndarray, eta: float, delta: float) -> CoefficientSet:
    """Dense (b, Sigma, beta_bar, sigma) at (x, y) by exact enumeration."""
    if not (eta > 0.0 and delta > 0.0):
        raise ValueError("eta and delta must be positive")
    _, g, Ec, Ec2 = head_stats(net, spec, x[None, :], max_q_by_state(net, y[None, :]))
    q_flat = np.reshape(q, -1)
    b = drift_from_stats(q_flat, Ec, g)[0]
    g = g[0]  # (K, d)
    second = (g * (q_flat * Ec2[0])[:, None]).T @ g
    Sigma = second - np.outer(b, b)
    Sigma = 0.5 * (Sigma + Sigma.T)
    V2 = spec.V.reshape(-1) ** 2
    beta = (g * (q_flat * V2)[:, None]).T @ g
    beta = 0.5 * (beta + beta.T)
    S = Sigma + beta + (delta / eta) * np.eye(net.d)
    sig = spd_sqrt(S, hard_floor=delta / eta + EIG_HARD_FLOOR)
    return CoefficientSet(b=b, Sigma=Sigma, beta_bar=beta, sigma=sig, eta=eta, delta=delta)


def lowrank_ghat(stats, q: np.ndarray, V_flat: np.ndarray) -> np.ndarray:
    """Dense factor G^T F, (N, d, K), with Ghat Ghat^T = Sigma + beta_bar, from
    the ``head_stats`` tuple and the sampling weights q.  Nothing in the package
    calls it (``run_sdde`` applies F xi through one vector-Jacobian product);
    it is kept because ``perfbench/tracer.py`` looks it up by name."""
    _, g, Ec, Ec2 = stats
    n, K, _ = g.shape
    F = np.stack([noise_cotangent(np.reshape(q, (-1, 1)), Ec.T, Ec2.T, V_flat[:, None] ** 2,
                                  np.broadcast_to(e[:, None], (K, n))).T
                  for e in np.eye(K)], axis=2)
    return g.transpose(0, 2, 1) @ F


@dataclass
class AssumptionEstimates:
    """Empirical stand-ins for the drift/diffusion regularity constants."""

    L_hat: float
    K_hat: float
    beta_max_hat: float
    b00_norm: float
    n_pairs: int
    radius: float


def estimate_constants(net: QNetSpec, spec: MdpSpec, q: np.ndarray, n_pairs: int,
                       radius: float, rng: np.random.Generator) -> AssumptionEstimates:
    """Probe-based estimates of the Lipschitz and growth constants.

    L_hat is the max drift difference ratio over sampled point pairs; K_hat
    bounds the per-sample drift growth sup |b_n(x,y)| / (1 + |x-y|) with the
    sup over reachable transitions taken exactly; beta_max_hat is the largest
    Hilbert-Schmidt norm of beta_bar over probed x.
    """
    if n_pairs < 100:
        raise ValueError("n_pairs must be >= 100")
    d = net.d
    V_flat = spec.V.reshape(-1)
    q_flat = np.asarray(q, dtype=np.float64).reshape(-1)
    p_flat = spec.p.reshape(-1, spec.n_states)
    reachable = p_flat > 0.0

    def batch(nx, ny):
        maxq_y = max_q_by_state(net, ny)
        Qx, g, Ec, _ = head_stats(net, spec, nx, maxq_y)
        b = drift_from_stats(q_flat, Ec, g)
        # exact sup over transitions of |c| per head (residual is monotone in maxQ)
        hi = np.where(reachable[None, :, :], maxq_y[:, None, :], -np.inf).max(axis=2)
        lo = np.where(reachable[None, :, :], maxq_y[:, None, :], np.inf).min(axis=2)
        base = spec.R.reshape(-1)[None, :] - Qx
        supc = np.maximum(np.abs(base + spec.gamma * hi), np.abs(base + spec.gamma * lo))
        gnorm = np.linalg.norm(g, axis=2)
        sup_bn = np.where(q_flat[None, :] > 0.0, supc * gnorm, 0.0).max(axis=1)
        w = q_flat * V_flat ** 2
        gg = np.einsum("nkd,nld->nkl", g, g)
        beta_fro = np.sqrt(np.einsum("k,l,nkl->n", w, w, gg ** 2))
        return b, sup_bn, beta_fro

    # pair index leads so a larger n_pairs extends the probe set
    pts = radius * rng.uniform(-1.0, 1.0, (n_pairs, 4, d))
    x1, y1, x2, y2 = pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3]
    b1, sup1, fro1 = batch(x1, y1)
    b2, sup2, fro2 = batch(x2, y2)
    denom = np.linalg.norm(x1 - x2, axis=1) + np.linalg.norm(y1 - y2, axis=1)
    ok = denom > 1e-12
    L_hat = float((np.linalg.norm(b1 - b2, axis=1)[ok] / denom[ok]).max(initial=0.0))
    growth1 = np.maximum(sup1, np.linalg.norm(b1, axis=1)) / (1.0 + np.linalg.norm(x1 - y1, axis=1))
    growth2 = np.maximum(sup2, np.linalg.norm(b2, axis=1)) / (1.0 + np.linalg.norm(x2 - y2, axis=1))
    K_hat = float(max(growth1.max(initial=0.0), growth2.max(initial=0.0)))
    beta_max_hat = float(max(fro1.max(initial=0.0), fro2.max(initial=0.0)))
    b00 = exact_drift_b(net, spec, q, np.zeros(d), np.zeros(d))
    return AssumptionEstimates(L_hat=L_hat, K_hat=K_hat, beta_max_hat=beta_max_hat,
                               b00_norm=float(np.linalg.norm(b00)),
                               n_pairs=n_pairs, radius=radius)


def step_size_gate(est: AssumptionEstimates, delta: float, etas=()) -> dict:
    """The gate's verdict on etas: eta <= min(delta, 1/(64 L), L/(8 K^2)) with
    GATE_SAFETY-inflated constants, and 0 < delta <= 1.

    Returns etas, delta, eta_max, constraints, the rejected etas, and binding:
    None when none is rejected, "delta" when delta is outside (0, 1], else the
    tightest constraint the largest rejected eta breaks.
    """
    L = GATE_SAFETY * est.L_hat
    K = GATE_SAFETY * est.K_hat
    constraints = {
        "delta": delta,
        "lipschitz_1_over_64L": np.inf if L == 0.0 else 1.0 / (64.0 * L),
        "growth_L_over_8K2": np.inf if K == 0.0 else est.L_hat / (8.0 * K * K),
    }
    eta_max = float(min(constraints.values()))
    delta_ok = 0.0 < delta <= 1.0
    rejected = [eta for eta in etas if not (delta_ok and eta <= eta_max)]
    binding = None
    if rejected:
        broken = [k for k, v in constraints.items() if max(rejected) > v]
        binding = min(broken, key=constraints.get, default=None) if delta_ok else "delta"
    return {"etas": list(etas), "delta": delta, "eta_max": eta_max,
            "constraints": constraints, "binding": binding, "rejected": rejected}
