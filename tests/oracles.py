"""Dense reference implementations for the equivalence tests.

``dense_forward``/``dense_vjp`` are the trajectory-major batched-matmul Q-net
over one-hot inputs (N, K, input_dim): every layer, the first included, is
a dense matmul, so they share no code with the parameter-major kernel in
``qsdde.qnet``.  ``dense_jacobian`` stacks K unit-cotangent passes into the
(N, K, d) head Jacobian, and ``bellman_moments`` sums the residual's moments
over s' directly.  The single-point references below (``q_value``,
``q_grad``, ``max_q``, ``qbar``, ``sample_drift_bn``) are built on them;
``fd_grad`` differences the kernel's own values.  ``coefficient_failures``
lists the defining identities a ``sigma_matrix`` document violates.
``generator_theta`` estimates the chain's one-step generator by Monte Carlo
over ``replay_step`` draws, for any f: the reference for the closed form
``qsdde.diagnostics.generator_gap`` reads for quadratic f.

``loop_forward``/``loop_vjp`` are the parameter-major kernel written with
every sum an explicit loop of elementwise updates in index order, the form
the kernel had before its sums became reductions: it must match them bit
for bit, at every batch size.
"""

from __future__ import annotations

import numpy as np

from qsdde.chain import AlgoConfig, cumulative_tables, replay_step
from qsdde.coeffs import EIG_HARD_FLOOR, noise_cotangent
from qsdde.mdp import MdpSpec
from qsdde.qnet import QNetSpec, _SAT, max_q_by_state, q_values_batch


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


def _param_major(spec: QNetSpec, thetas: np.ndarray):
    """Views of a (d, N) parameter batch as per-layer (out, in, N) / (out, N)."""
    layers, off, n = [], 0, thetas.shape[1]
    for (o, i) in spec.layer_shapes:
        layers.append((thetas[off:off + o * i].reshape(o, i, n),
                       thetas[off + o * i:off + o * i + o]))
        off += o * i + o
    return layers


def loop_forward(spec: QNetSpec, thetas: np.ndarray, s: np.ndarray, a: np.ndarray):
    """thetas (d, N), heads s, a (K, N) -> (q (K, N), cache), every sum a loop."""
    (w1, b1), *rest = _param_major(spec, thetas)
    traj = np.arange(thetas.shape[1])
    z = w1[:, s, traj] + w1[:, spec.n_states + a, traj]
    z += b1[:, None, :]
    acts = [1.0 / (1.0 + np.exp(-z))]  # (out, K, N)
    for l, (w, b) in enumerate(rest):
        h = acts[-1]
        z = w[:, 0, None, :] * h[0]
        for i in range(1, len(h)):
            z += w[:, i, None, :] * h[i]
        z += b[:, None, :]
        acts.append(1.0 / (1.0 + np.exp(-z)) if l < len(rest) - 1 else z)
    t = np.tanh(0.5 * acts.pop()[0])
    return spec.bound * np.clip(t, -_SAT, _SAT), (acts, t)


def loop_vjp(spec: QNetSpec, thetas: np.ndarray, s: np.ndarray, a: np.ndarray, cache,
             cot: np.ndarray) -> np.ndarray:
    """sum_k cot[k, n] grad_theta Q_k(theta_n), (d, N), from loop_forward's
    cache; each first-layer column adds its heads' terms from 0."""
    acts, t = cache
    K, n = cot.shape
    layers = _param_major(spec, thetas)
    out = np.zeros((spec.d, n))
    dz = (1.0 - t * t) * (0.5 * spec.bound) * cot
    dz = dz[None]
    for l in range(len(layers) - 1, -1, -1):
        gw, gb = _param_major(spec, out)[l]
        gb[:] = dz[:, 0]
        for k in range(1, K):
            gb += dz[:, k]
        if l == 0:
            traj = np.arange(n)
            for k in range(K):
                gw[:, s[k], traj] += dz[:, k]
                gw[:, spec.n_states + a[k], traj] += dz[:, k]
            return out
        w, h = layers[l][0], acts[l - 1]
        gw[:] = dz[:, None, 0] * h[None, :, 0]
        for k in range(1, K):
            gw += dz[:, None, k] * h[None, :, k]
        dh = w[0, :, None, :] * dz[0]
        for j in range(1, len(dz)):
            dh += w[j, :, None, :] * dz[j]
        dh *= h
        dh -= dh * h
        dz = dh


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
    """The (S*A, input_dim) one-hot pair encodings, pair k = (k // A, k % A),
    broadcast to n trajectories."""
    A = spec.n_actions
    enc = np.stack([one_hot(spec, k // A, k % A)
                    for k in range(spec.n_states * A)])
    return np.broadcast_to(enc, (n, *enc.shape))


def bellman_moments(spec: MdpSpec, Qx: np.ndarray,
                    maxq_y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Ec, Ec2), each (N, K): p-weighted sums over s' of the residual
    R_k + gamma*maxQ(s') - Q_k(x) and of its square, from head values Qx
    (N, K) and the table maxq_y (N, S) of max_a Q(s, a; y_n)."""
    c = (spec.R.reshape(-1)[None, :, None] + spec.gamma * maxq_y[:, None, :]
         - Qx[:, :, None])  # (N, K, S)
    p = spec.p.reshape(-1, spec.n_states)[None]
    return (p * c).sum(axis=2), (p * c * c).sum(axis=2)


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
    q_col = np.asarray(q, dtype=np.float64).reshape(-1, 1)
    cols = [dense_vjp(net, cache, noise_cotangent(
        q_col, Ec.T, Ec2.T, spec.V.reshape(-1, 1) ** 2, np.broadcast_to(e[:, None], (K, n))).T)
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
    q = q_values_batch(spec, pert, np.array([[s, a]]))[:, 0]
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


def generator_theta(f, net: QNetSpec, spec: MdpSpec, q: np.ndarray, x: np.ndarray,
                    target: np.ndarray, cfg: AlgoConfig, n_mc: int,
                    rng: np.random.Generator, batch: int = 65536) -> tuple[float, float]:
    """Monte Carlo E[f(theta_1)] - f(x) for one chain step against the frozen
    max-Q table of target, and its standard error."""
    if n_mc < 1000:
        raise ValueError("n_mc must be >= 1e3")
    d = net.d
    tables = cumulative_tables(spec, q)
    maxq_y = max_q_by_state(net, target[None, :])
    fx = float(f.value(x[None, :])[0])
    total, total2, done = 0.0, 0.0, 0
    while done < n_mc:
        nb = min(batch, n_mc - done)
        u = rng.uniform(size=(nb, 2))
        xi = rng.standard_normal(nb)
        W = rng.standard_normal((nb, d))
        theta1 = replay_step(net, spec, tables, np.broadcast_to(x[:, None], (d, nb)),
                             np.broadcast_to(maxq_y, (nb, spec.n_states)), u.T,
                             np.column_stack([xi, W]).T, cfg.eta, cfg.delta)
        vals = f.value(theta1.T) - fx
        total += vals.sum()
        total2 += (vals ** 2).sum()
        done += nb
    mean = total / n_mc
    var = max(total2 / n_mc - mean ** 2, 0.0)
    return float(mean), float(np.sqrt(var / n_mc))


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


def coefficient_failures(cs: dict, sym_tol: float = 1e-12,
                         recon_tol: float = 1e-10) -> list[str]:
    """The invariants of the ``sigma_matrix`` document cs that fail (empty when
    all hold): symmetric PSD Sigma and beta_bar, sigma sigma^T = Sigma +
    beta_bar + (delta/eta) I, lambda_min >= delta/eta."""
    fails = []
    for name in ("Sigma", "beta_bar"):
        m = cs[name]
        if np.abs(m - m.T).max() > sym_tol:
            fails.append(f"{name} asymmetric beyond {sym_tol}")
        w = np.linalg.eigvalsh(0.5 * (m + m.T))
        if w.min() < EIG_HARD_FLOOR:
            fails.append(f"{name} eigenvalue {w.min():.3e} below {EIG_HARD_FLOOR}")
    target = cs["Sigma"] + cs["beta_bar"] + (cs["delta"] / cs["eta"]) * np.eye(len(cs["b"]))
    err = np.linalg.norm(cs["sigma"] @ cs["sigma"].T - target) / np.linalg.norm(target)
    if err > recon_tol:
        fails.append(f"sigma*sigma^T reconstruction error {err:.3e} > {recon_tol}")
    w2 = np.linalg.eigvalsh(cs["sigma"] @ cs["sigma"].T)
    if w2.min() < cs["delta"] / cs["eta"] + EIG_HARD_FLOOR:
        fails.append(f"lambda_min(sigma^2) = {w2.min():.6e} below delta/eta - 1e-10")
    return fails
