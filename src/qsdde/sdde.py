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
It holds its state as (d, n_traj) and runs under the chain's loop,
``chain.simulate``, which freezes the delay argument on the target schedule
as the p-weighted moments of its max-Q table.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .chain import AlgoConfig, TrajectoryEnsemble, parameter_major, simulate
from .coeffs import delay_moments, noise_cotangent, residual_moments
from .mdp import MdpSpec
from .qnet import QNetSpec, _forward, _vjp, max_q_by_state
from .rng import SIMULATE_PATH, step_noise


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
    whose increment has the exact law -b h + sqrt(eta*h) sigma Z.
    """
    if not (cfg.eta > 0.0):
        raise ValueError("eta must be positive")
    d, K = net.d, spec.n_states * spec.n_actions
    h = cfg.eta / cfg.rho
    amp = np.sqrt(cfg.eta * h)
    z_amp = amp * np.sqrt(cfg.delta / cfg.eta)
    q_col = np.asarray(q, dtype=np.float64).reshape(-1, 1)
    hq = h * q_col
    V2 = spec.V.reshape(-1, 1) ** 2
    noise = np.empty((d + K, n_traj))  # this substep's z, then xi

    def substep(x, mu, words):
        for i0 in range(0, n_traj, 512):  # in chunks, so the strided reads stay in cache
            np.copyto(noise[:, i0:i0 + 512], words[i0:i0 + 512].T)
        Qx, cache = _forward(net, x, None)  # every pair, in pair_heads order
        Ec, Ec2 = residual_moments(spec, Qx, *mu)
        cot = hq * Ec + amp * noise_cotangent(q_col, Ec, Ec2, V2, noise[d:])
        step = _vjp(net, cache, cot)  # before x moves: the cache holds views of x
        noise[:d] *= z_amp
        x += noise[:d]
        x += step
        return x

    ens = simulate(parameter_major(x0, n_traj, d), substep,
                   step_noise(cfg.seed, n_traj, cfg.T * cfg.rho, (stream_path, "normal", d + K)),
                   checkpoint_steps, cfg.T, cfg.m, per_step=cfg.rho, unit="substep",
                   freeze=lambda x: delay_moments(spec, max_q_by_state(net, x.T)))
    ens.meta["checkpoint_times"] = [c * cfg.eta for c in ens.checkpoints]
    return ens
