"""Dense reference implementations for the equivalence tests.

``dense_forward``/``dense_vjp`` are the trajectory-major batched-matmul Q-net
over one-hot inputs (N, K, input_dim): every layer, the first included, is
a dense matmul, so they share no code with the parameter-major kernel in
``qsdde.qnet``.  ``dense_jacobian`` stacks K unit-cotangent passes into the
(N, K, d) head Jacobian.
"""

from __future__ import annotations

import numpy as np

from qsdde.coeffs import bellman_moments, noise_cotangent
from qsdde.mdp import MdpSpec
from qsdde.qnet import QNetSpec, _SAT


def _unpack(spec: QNetSpec, thetas: np.ndarray):
    """Views of a (N, d) parameter batch as per-layer (N, out, in) / (N, out)."""
    weights, biases = [], []
    off = 0
    n = thetas.shape[0]
    for (o, i) in spec.layer_shapes:
        weights.append(thetas[:, off:off + o * i].reshape(n, o, i))
        off += o * i
        biases.append(thetas[:, off:off + o].reshape(n, o))
        off += o
    return weights, biases


def dense_forward(spec: QNetSpec, thetas: np.ndarray, x: np.ndarray):
    """thetas (N, d), x (N, K, input_dim) -> (q (N, K), cache)."""
    weights, biases = _unpack(spec, thetas)
    acts = [x]
    h = x
    for l in range(len(weights) - 1):
        z = h @ weights[l].transpose(0, 2, 1) + biases[l][:, None, :]
        h = 1.0 / (1.0 + np.exp(-z))
        acts.append(h)
    z_out = (h @ weights[-1].transpose(0, 2, 1))[..., 0] + biases[-1]
    t = np.tanh(0.5 * z_out)
    q = spec.bound * np.clip(t, -_SAT, _SAT)
    return q, (weights, acts, t)


def dense_vjp(spec: QNetSpec, cache, cot: np.ndarray) -> np.ndarray:
    """sum_k cot[n, k] grad_theta Q_k(theta_n), (N, d), for cot (N, K)."""
    weights, acts, t = cache
    n = cot.shape[0]
    out = np.empty((n, spec.d))
    dz = cot * (0.5 * spec.bound * (1.0 - t * t))  # (N, K)
    off = spec.d
    o, i = spec.layer_shapes[-1]
    off -= o
    out[:, off] = dz.sum(axis=1)
    off -= o * i
    out[:, off:off + i] = (dz[:, None, :] @ acts[-1])[:, 0, :]
    dh = dz[..., None] * weights[-1][:, None, 0, :]  # (N, K, in)
    for l in range(len(weights) - 2, -1, -1):
        o, i = spec.layer_shapes[l]
        h = acts[l + 1]
        dz = dh * h * (1.0 - h)  # (N, K, o)
        off -= o
        out[:, off:off + o] = np.einsum("nko->no", dz)
        off -= o * i
        out[:, off:off + o * i] = (dz.transpose(0, 2, 1) @ acts[l]).reshape(n, o * i)
        if l > 0:
            dh = dz @ weights[l]
    return out


def dense_jacobian(spec: QNetSpec, thetas: np.ndarray, x: np.ndarray):
    """(q (N, K), G (N, K, d)) with G[n, k] = grad_theta Q_k(theta_n)."""
    q, cache = dense_forward(spec, thetas, x)
    unit = np.eye(q.shape[1])
    g = np.stack([dense_vjp(spec, cache, np.broadcast_to(e, q.shape)) for e in unit],
                 axis=1)
    return q, g


def pair_inputs(spec: QNetSpec, n: int) -> np.ndarray:
    """The (S*A, input_dim) pair encodings broadcast to n trajectories."""
    enc = spec.encode_all_pairs()
    return np.broadcast_to(enc, (n, *enc.shape))


def dense_max_q(spec: QNetSpec, thetas: np.ndarray) -> np.ndarray:
    """(N, S) table of max_a Q(s, a; theta_n) through the dense forward pass."""
    q, _ = dense_forward(spec, thetas, pair_inputs(spec, thetas.shape[0]))
    return q.reshape(thetas.shape[0], -1, spec.n_actions).max(axis=2)


def noise_matrix(net: QNetSpec, spec: MdpSpec, q: np.ndarray, x: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
    """(N, d, K) columns of run_sdde's noise map xi -> VJP(x; F xi) at e_1..e_K.

    x, y: (N, d) points and delay points.  A A^T must equal Sigma + beta_bar.
    """
    n, K = x.shape[0], net.n_states * net.n_actions
    Qx, cache = dense_forward(net, x, pair_inputs(net, n))
    Ec, Ec2 = bellman_moments(spec, Qx, dense_max_q(net, y))
    q_flat = np.asarray(q, dtype=np.float64).reshape(-1)
    cols = [dense_vjp(net, cache, noise_cotangent(
        q_flat, Ec.T, Ec2.T, spec.V.reshape(-1), np.broadcast_to(e[:, None], (K, n))).T)
        for e in np.eye(K)]
    return np.stack(cols, axis=2)
