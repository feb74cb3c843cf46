"""Smooth, globally bounded action-value networks Q(s, a; theta).

The input is the concatenated one-hot encoding of (s, a), every hidden unit
is a logistic sigmoid, and the output is squashed through
``bound * (2*sigmoid(z) - 1)``, so |Q| < bound everywhere and Q is smooth to
all orders in theta.  Gradients are analytic reverse-mode accumulation
written here (no external autodiff), vectorised over a batch of parameter
vectors so each trajectory in an ensemble can carry its own theta.  The one
reverse pass is ``_vjp``: given an (N, K) cotangent over the K heads it
returns sum_k cot_k grad Q_k in O(d) per trajectory.  Dense per-head
gradients, where a caller needs them, are K passes with unit cotangents.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# keeps |Q| strictly below the bound even where tanh saturates to 1.0 in float
_SAT = 1.0 - 2.0 ** -53


class DimensionError(ValueError):
    pass


@dataclass(frozen=True)
class QNetSpec:
    """Architecture of the Q-network.

    n_states, n_actions: sizes of the one-hot input blocks
    hidden             : widths of the sigmoid hidden layers (all >= 1)
    bound              : output bound C > 0
    """

    n_states: int
    n_actions: int
    hidden: tuple[int, ...]
    bound: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.n_states < 1 or self.n_actions < 1:
            raise ValueError("need at least one state and one action")
        if len(self.hidden) == 0 or any(h < 1 for h in self.hidden):
            raise ValueError("hidden sizes must be a nonempty list of positive ints")
        if not (self.bound > 0.0 and np.isfinite(self.bound)):
            raise ValueError("bound must be a positive finite real")

    @property
    def input_dim(self) -> int:
        return self.n_states + self.n_actions

    @cached_property
    def layer_shapes(self) -> tuple[tuple[int, int], ...]:
        """(out, in) shapes of all weight matrices, output layer last."""
        dims = [self.input_dim, *self.hidden, 1]
        return tuple((dims[i + 1], dims[i]) for i in range(len(dims) - 1))

    @cached_property
    def d(self) -> int:
        return sum(o * i + o for (o, i) in self.layer_shapes)

    def encode(self, s: int, a: int) -> np.ndarray:
        x = np.zeros(self.input_dim)
        x[s] = 1.0
        x[self.n_states + a] = 1.0
        return x

    def encode_all_pairs(self) -> np.ndarray:
        """(S*A, input_dim) one-hot encodings, pair k = (k // A, k % A)."""
        S, A = self.n_states, self.n_actions
        out = np.zeros((S * A, self.input_dim))
        for s in range(S):
            for a in range(A):
                out[s * A + a, s] = 1.0
                out[s * A + a, S + a] = 1.0
        return out


def init_theta(spec: QNetSpec, rng: np.random.Generator, stddev: float = 0.5) -> np.ndarray:
    return stddev * rng.standard_normal(spec.d)


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


def _forward(spec: QNetSpec, thetas: np.ndarray, x: np.ndarray):
    """Batched forward pass.

    thetas: (N, d); x: (N, K, input_dim) inputs (K heads per trajectory).
    Returns (q (N, K), cache) with cache holding the activations for _vjp.
    """
    weights, biases = _unpack(spec, thetas)
    acts = [x]
    h = x
    for l in range(len(weights) - 1):
        z = h @ weights[l].transpose(0, 2, 1) + biases[l][:, None, :]
        h = 1.0 / (1.0 + np.exp(-z))
        acts.append(h)
    z_out = (h @ weights[-1].transpose(0, 2, 1))[..., 0] + biases[-1]
    t = np.tanh(0.5 * z_out)
    # clip only the value, so |Q| < bound even where tanh saturates in float;
    # the derivative keeps the raw tanh (exactly 0 at float saturation)
    q = spec.bound * np.clip(t, -_SAT, _SAT)
    return q, (weights, acts, t)


def _vjp(spec: QNetSpec, cache, cot: np.ndarray) -> np.ndarray:
    """Vector-Jacobian product sum_k cot[n, k] grad_theta Q_k(theta_n), (N, d).

    One reverse pass over the activations cached by _forward; cot is (N, K).
    Each layer's weight gradient contracts the K heads in one matmul, so
    no per-head gradient is ever formed.
    """
    weights, acts, t = cache
    n = cot.shape[0]
    out = np.empty((n, spec.d))
    # d/dz [bound * tanh(z/2)] = bound/2 * (1 - tanh(z/2)^2)
    dz = cot * (0.5 * spec.bound * (1.0 - t * t))  # (N, K)
    off = spec.d
    # output layer
    o, i = spec.layer_shapes[-1]
    off -= o
    out[:, off] = dz.sum(axis=1)
    off -= o * i
    out[:, off:off + i] = (dz[:, None, :] @ acts[-1])[:, 0, :]
    dh = dz[..., None] * weights[-1][:, None, 0, :]  # (N, K, in)
    # hidden layers, last to first
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


def q_values_batch(spec: QNetSpec, thetas: np.ndarray, x: np.ndarray,
                   with_grad: bool = False):
    """Values (N, K) and optionally gradients (N, K, d) for batched inputs.

    x may be (K, input_dim) shared heads or (N, K, input_dim) per-trajectory.
    The dense gradient is K reverse passes with unit cotangents.
    """
    thetas = np.atleast_2d(thetas)
    n = thetas.shape[0]
    if x.ndim == 2:
        x = np.broadcast_to(x, (n, *x.shape))
    q, cache = _forward(spec, thetas, x)
    if not with_grad:
        return q
    unit = np.eye(q.shape[1])
    return q, np.stack([_vjp(spec, cache, np.broadcast_to(e, q.shape)) for e in unit],
                       axis=1)


def q_value(spec: QNetSpec, theta: np.ndarray, s: int, a: int) -> float:
    """Q(s, a; theta); strictly inside (-bound, bound)."""
    _check_theta(spec, theta)
    q = q_values_batch(spec, theta[None, :], spec.encode(s, a)[None, :])
    return float(q[0, 0])


def q_grad(spec: QNetSpec, theta: np.ndarray, s: int, a: int) -> np.ndarray:
    """Exact analytic gradient of q_value with respect to theta."""
    _check_theta(spec, theta)
    _, g = q_values_batch(spec, theta[None, :], spec.encode(s, a)[None, :], with_grad=True)
    return g[0, 0]


def max_q(spec: QNetSpec, theta: np.ndarray, s: int) -> tuple[float, int]:
    """(max_a Q(s, a; theta), argmax action); ties break to the lowest index.

    Scans actions through the same path as q_value so the two agree bitwise.
    """
    _check_theta(spec, theta)
    vals = [q_value(spec, theta, s, a) for a in range(spec.n_actions)]
    a_star = int(np.argmax(vals))
    return vals[a_star], a_star


def max_q_by_state(spec: QNetSpec, thetas: np.ndarray, pair_encodings: np.ndarray) -> np.ndarray:
    """(N, S) table of max_a Q(s, a; theta_n) from the (S*A, in) encodings."""
    q = q_values_batch(spec, thetas, pair_encodings)  # (N, S*A)
    return q.reshape(thetas.shape[0], -1, spec.n_actions).max(axis=2)


def _check_theta(spec: QNetSpec, theta: np.ndarray) -> None:
    theta = np.asarray(theta)
    if theta.shape != (spec.d,):
        raise DimensionError(f"theta must have shape ({spec.d},), got {theta.shape}")


def fd_grad(spec: QNetSpec, theta: np.ndarray, s: int, a: int, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient, the oracle for grad_check."""
    d = spec.d
    x = spec.encode(s, a)[None, :]
    pert = np.repeat(theta[None, :], 2 * d, axis=0)
    idx = np.arange(d)
    pert[idx, idx] += step
    pert[d + idx, idx] -= step
    q = q_values_batch(spec, pert, x)[:, 0]
    return (q[:d] - q[d:]) / (2.0 * step)


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_point: dict
    n_points: int
    threshold: float

    @property
    def ok(self) -> bool:
        return self.max_rel_err < self.threshold

    def __str__(self) -> str:
        head = f"grad check over {self.n_points} points: max relative error {self.max_rel_err:.3e}"
        if self.ok:
            return head + f" (< {self.threshold:.0e})"
        return head + f" EXCEEDS {self.threshold:.0e} at {self.worst_point}"


def grad_check(spec: QNetSpec, n_points: int, rng: np.random.Generator,
               stddev: float = 1.0, step: float = 1e-5,
               threshold: float = 1e-6) -> GradCheckReport:
    """Worst-case analytic-vs-central-difference relative gradient error.

    Relative error is vector-level per probe: ||fd - analytic|| / ||analytic||.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    worst = {"rel_err": -1.0}
    for j in range(n_points):
        theta = stddev * rng.standard_normal(spec.d)
        s = int(rng.integers(spec.n_states))
        a = int(rng.integers(spec.n_actions))
        g = q_grad(spec, theta, s, a)
        g_fd = fd_grad(spec, theta, s, a, step)
        rel = float(np.linalg.norm(g_fd - g) / max(np.linalg.norm(g), 1e-12))
        if rel > worst["rel_err"]:
            worst = {"rel_err": rel, "point": j, "s": s, "a": a,
                     "theta_norm": float(np.linalg.norm(theta))}
    return GradCheckReport(worst["rel_err"], worst, n_points, threshold)
