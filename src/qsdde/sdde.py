"""Euler-Maruyama integration of the approximating delay diffusion.

    dX_t = -b(X_t, X_{floor(t/(m eta)) m eta}) dt
           + sqrt(eta) * sigma(X_t, X_{floor(t/(m eta)) m eta}) dB_t

The delay argument is piecewise constant: it is snapshotted exactly at
multiples of m*eta (X_0 before the first boundary), matching the chain's
frozen target.  Time is tracked as an integer count of substeps (rho per
chain step of length eta) so grid tests never see floating-point drift.

Coefficients are recomputed at every substep.  ``run_sdde`` computes the
drift as a vector-Jacobian product of the Q-net's parameter-major kernel
with cotangent h*q*Ec.  In place of the dense symmetric root sigma it draws
the same Gaussian law as sqrt(delta/eta) z + G^T F xi, with z ~ N(0, I_d),
xi ~ N(0, I_K) and F from ``noise_cotangent``, and folds G^T F xi into the
drift's reverse pass, so each substep costs one forward pass and one VJP.
It holds its state as (d, n_traj) for the whole run, and forms the
p-weighted moments of the delay max-Q table once per delay segment, since
they change only when the delay argument does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import TrajectoryEnsemble, parameter_major
from .coeffs import delay_moments, noise_cotangent, residual_moments
from .mdp import MdpSpec
from .qnet import QNetSpec, _forward, _vjp, max_q_by_state, pair_heads
from .rng import TrajectoryStreams, block_size


class SddeError(RuntimeError):
    pass


@dataclass(frozen=True)
class SddeConfig:
    """Horizon T*eta with rho internal Euler substeps per unit eta.

    The delay argument refreshes every m chain steps; seed keys the
    per-trajectory noise streams.
    """

    eta: float
    delta: float
    m: int
    T: int
    rho: int = 20
    seed: int = 0

    def __post_init__(self):
        if not (self.eta > 0.0):
            raise ValueError("eta must be positive")
        if not (self.delta > 0.0):
            raise ValueError("delta must be positive")
        if self.m < 1 or self.T < 1 or self.rho < 1:
            raise ValueError("m, T and rho must all be >= 1")


def run_sdde(net: QNetSpec, spec: MdpSpec, q: np.ndarray, x0: np.ndarray,
             cfg: SddeConfig, n_traj: int, checkpoint_steps: Sequence[int],
             stream_path: tuple[int, ...] = (0,)) -> TrajectoryEnsemble:
    """Integrate n_traj trajectories; checkpoints are integer multiples of eta.

    The internal step is h = eta/rho; the delay argument is the stored value
    of X at the most recent multiple of m*eta.  Checkpoint step j records X
    at time j*eta, aligned with chain step j.  Each substep draws z (d) and
    xi (K), in that order, from the trajectory's stream and moves
    x -> x + sqrt(eta*h) sqrt(delta/eta) z + VJP(x; h*q*Ec + sqrt(eta*h) F xi),
    whose increment has the exact law -b h + sqrt(eta*h) sigma Z.  The state
    is held parameter-major, (d, n_traj), and the p-weighted moments of the
    delay max-Q table are formed once per delay segment.
    """
    checkpoints = tuple(int(c) for c in checkpoint_steps)
    if any(c < 0 or c > cfg.T for c in checkpoints):
        raise ValueError("checkpoint steps must lie in [0, T]")
    d = net.d
    K = spec.n_states * spec.n_actions
    h = cfg.eta / cfg.rho
    amp = np.sqrt(cfg.eta * h)
    z_amp = amp * np.sqrt(cfg.delta / cfg.eta)
    q_flat = np.asarray(q, dtype=np.float64).reshape(-1)
    hq = h * q_flat[:, None]
    V_flat = spec.V.reshape(-1)
    x = parameter_major(x0, n_traj, d)
    streams = TrajectoryStreams(cfg.seed, stream_path, n_traj)
    enc = net.encode_all_pairs()
    heads = pair_heads(net)
    out = np.empty((n_traj, len(checkpoints), d))
    ck_pos = {c: i for i, c in enumerate(checkpoints)}
    if 0 in ck_pos:
        out[:, ck_pos[0], :] = x.T
    seg = cfg.m * cfg.rho  # substeps per delay segment
    z_block = mu = None
    per_step = d + K
    noise = np.empty((per_step, n_traj))  # this substep's z, then xi
    n_sub = cfg.T * cfg.rho
    blk = block_size(n_traj, per_step)
    for u in range(n_sub):
        if u % seg == 0:
            mu = delay_moments(spec, max_q_by_state(net, x.T, enc))
        j = u % blk
        if j == 0:
            nb = min(blk, n_sub - u)
            z_block = streams.normal_block(nb * per_step).reshape(n_traj, nb, per_step)
        for i0 in range(0, n_traj, 512):  # in chunks, so the strided reads stay in cache
            np.copyto(noise[:, i0:i0 + 512], z_block[i0:i0 + 512, j].T)
        Qx, cache = _forward(net, x, heads)
        Ec, Ec2 = residual_moments(spec, Qx, *mu)
        cot = hq * Ec + amp * noise_cotangent(q_flat, Ec, Ec2, V_flat, noise[d:])
        step = _vjp(net, cache, cot)  # before x moves: the cache holds views of x
        noise[:d] *= z_amp
        x += noise[:d]
        x += step
        if not np.all(np.isfinite(x)):
            bad = int(np.argwhere(~np.isfinite(x).all(axis=0))[0, 0])
            raise SddeError(f"non-finite state at substep {u + 1}, trajectory {bad}")
        if (u + 1) % cfg.rho == 0 and (u + 1) // cfg.rho in ck_pos:
            out[:, ck_pos[(u + 1) // cfg.rho], :] = x.T
    meta = {"kind": "sdde", "cfg": cfg, "theta0": np.asarray(x0).copy(),
            "stream_path": stream_path, "n_traj": n_traj,
            "checkpoint_times": [c * cfg.eta for c in checkpoints]}
    return TrajectoryEnsemble(checkpoints=checkpoints, samples=out, meta=meta)


@dataclass
class XMomentReport:
    """Second-moment and displacement growth along the delay diffusion."""

    checkpoints: tuple[int, ...]
    times: np.ndarray
    second_moments: np.ndarray
    displacements: np.ndarray
    envelope: float
    c_second_fit: float
    c_disp_fit: float
    all_finite: bool

    def as_dict(self) -> dict:
        return {"checkpoints": list(self.checkpoints), "times": self.times.tolist(),
                "second_moments": self.second_moments.tolist(),
                "displacements": self.displacements.tolist(),
                "envelope": self.envelope, "c_second_fit": self.c_second_fit,
                "c_disp_fit": self.c_disp_fit, "all_finite": self.all_finite}


def moment_check_X(ensemble: TrajectoryEnsemble, x0: np.ndarray) -> XMomentReport:
    """E|X_t|^2 and E|X_t - x|^2 at checkpoints, with fitted constants.

    The displacement is regressed through the origin against t(t + eta + delta)
    per the within-window growth shape; the second moment is enveloped by
    (1 + |x|^2 + E|theta_0|^2 + delta).
    """
    cfg = ensemble.meta["cfg"]
    x0 = np.asarray(x0, dtype=np.float64)
    times = np.array([c * cfg.eta for c in ensemble.checkpoints])
    sq = (ensemble.samples ** 2).sum(axis=2)
    second = sq.mean(axis=0)
    x2d = np.atleast_2d(x0)
    disp = ((ensemble.samples - x2d[:, None, :]) ** 2).sum(axis=2).mean(axis=0)
    x2 = float((x2d ** 2).sum(axis=1).mean())
    envelope = 1.0 + 2.0 * x2 + cfg.delta  # deterministic start: E|theta_0|^2 = |x|^2
    shape = times * (times + cfg.eta + cfg.delta)
    mask = shape > 0
    c_disp = float((disp[mask] * shape[mask]).sum() / (shape[mask] ** 2).sum()) if mask.any() else 0.0
    return XMomentReport(
        checkpoints=ensemble.checkpoints, times=times, second_moments=second,
        displacements=disp, envelope=envelope,
        c_second_fit=float(second.max() / envelope),
        c_disp_fit=c_disp,
        all_finite=bool(np.all(np.isfinite(second)) and np.all(np.isfinite(disp))),
    )
