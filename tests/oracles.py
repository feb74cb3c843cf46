"""Dense reference implementations for the equivalence tests.

``dense_forward``/``dense_vjp`` are the trajectory-major batched-matmul Q-net
over one-hot inputs (N, K, input_dim): every layer, the first included, is
a dense matmul, so they share no code with the parameter-major kernel in
``qsdde.qnet``.  ``dense_jacobian`` stacks K unit-cotangent passes into the
(N, K, d) head Jacobian.  The single-point references below (``q_value``,
``q_grad``, ``max_q``, ``qbar``, ``sample_drift_bn``) are built on them;
``fd_grad`` differences the kernel's own values.
"""

from __future__ import annotations

import numpy as np

from qsdde.coeffs import bellman_moments, noise_cotangent
from qsdde.mdp import MdpSpec
from qsdde.qnet import QNetSpec, _SAT, q_values_batch


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


def one_hot(spec: QNetSpec, s: int, a: int) -> np.ndarray:
    """The (input_dim,) encoding of the pair (s, a)."""
    x = np.zeros(spec.input_dim)
    x[s] = x[spec.n_states + a] = 1.0
    return x


def q_value(spec: QNetSpec, theta: np.ndarray, s: int, a: int) -> float:
    return float(dense_forward(spec, theta[None, :], one_hot(spec, s, a)[None, None])[0][0, 0])


def q_grad(spec: QNetSpec, theta: np.ndarray, s: int, a: int) -> np.ndarray:
    return dense_jacobian(spec, theta[None, :], one_hot(spec, s, a)[None, None])[1][0, 0]


def max_q(spec: QNetSpec, theta: np.ndarray, s: int) -> tuple[float, int]:
    """(max_a Q(s, a; theta), argmax action); ties break to the lowest index."""
    vals = [q_value(spec, theta, s, a) for a in range(spec.n_actions)]
    a_star = int(np.argmax(vals))
    return vals[a_star], a_star


def fd_grad(spec: QNetSpec, theta: np.ndarray, s: int, a: int,
            step: float = 1e-5) -> np.ndarray:
    """Central differences of the kernel's values Q(s, a; theta +- step e_i)."""
    d = spec.d
    pert = np.repeat(theta[None, :], 2 * d, axis=0)
    idx = np.arange(d)
    pert[idx, idx] += step
    pert[d + idx, idx] -= step
    q = q_values_batch(spec, pert, one_hot(spec, s, a)[None, :])[:, 0]
    return (q[:d] - q[d:]) / (2.0 * step)


def qbar(net: QNetSpec, spec: MdpSpec, y: np.ndarray, s: int, a: int) -> float:
    """Expected next-state max Q value under p(.|s,a) at target parameters y."""
    return float(sum(spec.p[s, a, sp] * max_q(net, y, sp)[0]
                     for sp in range(spec.n_states) if spec.p[s, a, sp] > 0.0))


def sample_drift_bn(net: QNetSpec, spec: MdpSpec, x: np.ndarray, y: np.ndarray,
                    t: tuple) -> np.ndarray:
    """Per-sample drift of the transition t = (s, a, r, s'); uses the mean
    reward R(s,a), never the sampled r:
    -[R(s,a) + gamma*max_a' Q(s',a';y) - Q(s,a;x)] * grad Q(s,a;x)."""
    s, a, _, sp = t
    bracket = spec.R[s, a] + spec.gamma * max_q(net, y, sp)[0] - q_value(net, x, s, a)
    return -bracket * q_grad(net, x, s, a)


def enumerate_support(spec: MdpSpec, q: np.ndarray) -> list[tuple[int, int, int, float]]:
    """All (s, a, s', weight) with weight = q(s,a) p(s'|s,a) > 0."""
    q = np.asarray(q, dtype=np.float64)
    return [(s, a, sp, float(q[s, a] * spec.p[s, a, sp]))
            for s in range(spec.n_states) for a in range(spec.n_actions)
            if q[s, a] != 0.0
            for sp in range(spec.n_states) if q[s, a] * spec.p[s, a, sp] > 0.0]


class GaussianBump:
    """f(x) = exp(-|x - center|^2 / (2 width^2)), with its gradient and Hessian."""

    def __init__(self, center: np.ndarray, width: float):
        self.center, self.width = np.asarray(center, dtype=np.float64), width

    def value(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        return np.exp(-((x - self.center) ** 2).sum(axis=1) / (2.0 * self.width ** 2))

    def grad(self, x: np.ndarray) -> np.ndarray:
        return -float(self.value(x)[0]) * (x - self.center) / self.width ** 2

    def hess(self, x: np.ndarray) -> np.ndarray:
        u = (x - self.center) / self.width ** 2
        return float(self.value(x)[0]) * (np.outer(u, u) - np.eye(len(x)) / self.width ** 2)
