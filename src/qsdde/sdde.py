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

from typing import Sequence

import numpy as np

from .chain import AlgoConfig, TrajectoryEnsemble, parameter_major
from .coeffs import delay_moments, noise_cotangent, residual_moments
from .mdp import MdpSpec
from .qnet import QNetSpec, _forward, _vjp, max_q_by_state, pair_heads
from .rng import SIMULATE_PATH, TrajectoryStreams, block_size


class SddeError(RuntimeError):
    pass


def run_sdde(net: QNetSpec, spec: MdpSpec, q: np.ndarray, x0: np.ndarray,
             cfg: AlgoConfig, n_traj: int, checkpoint_steps: Sequence[int],
             stream_path: tuple[int, ...] = SIMULATE_PATH) -> TrajectoryEnsemble:
    """Integrate n_traj trajectories; checkpoints are integer multiples of eta.

    cfg is the chain's AlgoConfig, which must have eta > 0.  The internal
    step is h = eta/rho; the delay argument is the stored value of X at the
    most recent multiple of m*eta.  Checkpoint step j records X at time
    j*eta, aligned with chain step j.  Each substep draws z (d) and
    xi (K), in that order, from the trajectory's stream and moves
    x -> x + sqrt(eta*h) sqrt(delta/eta) z + VJP(x; h*q*Ec + sqrt(eta*h) F xi),
    whose increment has the exact law -b h + sqrt(eta*h) sigma Z.  The state
    is held parameter-major, (d, n_traj), and the p-weighted moments of the
    delay max-Q table are formed once per delay segment.
    """
    if not (cfg.eta > 0.0):
        raise ValueError("eta must be positive")
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
    heads = tuple(pair_heads(net).T)  # (s, a), each (K,)
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
            mu = delay_moments(spec, max_q_by_state(net, x.T))
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
    return TrajectoryEnsemble(checkpoints=checkpoints, samples=out,
                              meta={"checkpoint_times": [c * cfg.eta for c in checkpoints]})
