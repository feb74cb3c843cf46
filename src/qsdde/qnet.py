"""Smooth, globally bounded action-value networks Q(s, a; theta).

The input is the concatenated one-hot encoding of (s, a), every hidden unit
is a logistic sigmoid, and the output is squashed through
``bound * (2*sigmoid(z) - 1)``, so |Q| < bound everywhere and Q is smooth to
all orders in theta.  Gradients are analytic reverse-mode accumulation
written here (no external autodiff).

The one implementation is a kernel over parameter-major batches: thetas is
(d, N), one column per trajectory, and heads are (s, a) index pairs, so the
one-hot input is never formed.  The first layer is the column gather
W1[:, s] + W1[:, S + a] + b1 and its weight gradient a scatter-add into
those two columns; deeper layers are elementwise products summed over the
layer input, vectorised along N.  ``_forward`` returns the (K, N) head
values and a cache, ``_vjp`` turns a (K, N) cotangent into
sum_k cot_k grad Q_k, (d, N), in one reverse pass.  ``q_values_batch`` keeps
the trajectory-major interface, (N, d) parameters and integer (s, a) rows,
(K, 2) shared or (N, K, 2) per trajectory; its dense per-head gradients are
K passes with unit cotangents."""

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


def init_theta(spec: QNetSpec, rng: np.random.Generator, stddev: float = 0.5) -> np.ndarray:
    return stddev * rng.standard_normal(spec.d)


def pair_heads(spec: QNetSpec) -> np.ndarray:
    """(S*A, 2) integer (s, a) rows of all heads, pair k = (k // A, k % A)."""
    k = np.arange(spec.n_states * spec.n_actions)
    return np.stack([k // spec.n_actions, k % spec.n_actions], axis=1)


def _layers(spec: QNetSpec, thetas: np.ndarray):
    """Views of a (d, N) parameter batch as per-layer ((out, in, N), (out, N))."""
    layers, off = [], 0
    n = thetas.shape[1]
    for (o, i) in spec.layer_shapes:
        w = thetas[off:off + o * i].reshape(o, i, n)
        off += o * i
        layers.append((w, thetas[off:off + o]))
        off += o
    return layers


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), computed in place in z."""
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.reciprocal(z, out=z)


def _forward(spec: QNetSpec, thetas: np.ndarray, heads):
    """Forward pass over parameter-major thetas (d, N), trajectories last.

    heads: (s, a) integer arrays, both (K,) shared by every trajectory or
    both (K, N) per trajectory.  The one-hot first layer is the column
    gather W1[:, s] + W1[:, S + a] + b1.  Returns (q (K, N), cache for _vjp).
    """
    layers = _layers(spec, thetas)
    s, a = heads
    w1, b1 = layers[0]
    if s.ndim == 1:
        z = w1[:, s]
        z += w1[:, spec.n_states + a]
    else:  # column c of trajectory j sits at c*N + j of the flattened layer
        n = thetas.shape[1]
        flat, traj = w1.reshape(w1.shape[0], -1), np.arange(n)
        z = np.take(flat, s * n + traj, axis=1)
        z += np.take(flat, (spec.n_states + a) * n + traj, axis=1)
    z += b1[:, None, :]
    acts = [_sigmoid(z)]  # (out, K, N) per hidden layer
    for w, b in layers[1:]:
        h = acts[-1]
        z = w[:, 0, None, :] * h[0]
        for i in range(1, h.shape[0]):
            z += w[:, i, None, :] * h[i]
        z += b[:, None, :]
        acts.append(z)
        if len(acts) <= len(spec.hidden):
            _sigmoid(z)
    t = np.tanh(0.5 * acts.pop()[0])  # (K, N)
    # clip only the value, so |Q| < bound even where tanh saturates in float;
    # the derivative keeps the raw tanh (exactly 0 at float saturation)
    q = spec.bound * np.clip(t, -_SAT, _SAT)
    return q, (layers, heads, acts, t)


def _vjp(spec: QNetSpec, cache, cot: np.ndarray) -> np.ndarray:
    """Vector-Jacobian product sum_k cot[k, n] grad_theta Q_k(theta_n), (d, N).

    One reverse pass over the activations cached by _forward; cot is (K, N).
    Each weight gradient contracts the K heads, so no per-head gradient is
    formed; the first layer's is a scatter-add of its pre-activation
    gradient into the two columns s and S + a of each head.  Every sum over
    heads or units is an explicit loop of elementwise updates, so a
    trajectory's result does not depend on how many share the batch.
    """
    layers, (s, a), acts, t = cache
    K, n = cot.shape
    out = np.empty((spec.d, n))
    # d/dz [bound * tanh(z/2)] = bound/2 * (1 - tanh(z/2)^2)
    dz = 1.0 - t * t
    dz *= 0.5 * spec.bound
    dz *= cot
    dz = dz[None]  # (1, K, N)
    off = spec.d
    for l in range(len(layers) - 1, -1, -1):
        (o, i), (w, _) = spec.layer_shapes[l], layers[l]
        off -= o
        gb = out[off:off + o]
        gb[:] = dz[:, 0]
        for k in range(1, K):
            gb += dz[:, k]
        off -= o * i
        gw = out[off:off + o * i].reshape(o, i, n)
        if l == 0:
            S = spec.n_states
            if s.ndim == 1:  # shared heads: each adds into its two columns
                gw[:] = 0.0
                for k in range(K):
                    gw[:, s[k]] += dz[:, k]
                    gw[:, S + a[k]] += dz[:, k]
            else:  # per-trajectory heads: through their (in, K, N) 0/1 incidence
                c = np.arange(i)[:, None, None]
                hit = (c == s) | (c == S + a)
                np.multiply(dz[:, None, 0], hit[:, 0], out=gw)
                for k in range(1, K):
                    gw += dz[:, None, k] * hit[:, k]
            break
        h = acts[l - 1]
        gw[:] = dz[:, None, 0] * h[None, :, 0]
        for k in range(1, K):
            gw += dz[:, None, k] * h[None, :, k]
        dh = w[0, :, None, :] * dz[0]  # (in, K, N), then through the sigmoid
        for j in range(1, o):
            dh += w[j, :, None, :] * dz[j]
        dh *= h
        dh -= dh * h
        dz = dh
    return out


def q_values_batch(spec: QNetSpec, thetas: np.ndarray, heads: np.ndarray,
                   with_grad: bool = False):
    """Values (N, K) and optionally gradients (N, K, d) for batched heads.

    thetas: (N, d).  heads holds integer (s, a) rows, (K, 2) shared by every
    trajectory or (N, K, 2) per trajectory.  The dense gradient is K reverse
    passes with unit cotangents.
    """
    thetas = np.atleast_2d(thetas)
    if thetas.shape[1] != spec.d:
        raise DimensionError(f"thetas must have {spec.d} columns, got {thetas.shape}")
    heads = np.asarray(heads)
    if heads.ndim not in (2, 3) or heads.shape[-1] != 2 \
            or heads.shape[:-2] not in ((), thetas.shape[:1]):
        raise DimensionError(f"heads must be (K, 2) or ({thetas.shape[0]}, K, 2), "
                             f"got {heads.shape}")
    s, a = heads[..., 0].T, heads[..., 1].T
    if not (np.issubdtype(heads.dtype, np.integer) and np.all(s >= 0)
            and np.all(s < spec.n_states) and np.all(a >= 0) and np.all(a < spec.n_actions)):
        raise ValueError("heads must be integer (s, a) pairs with 0 <= s < S, 0 <= a < A")
    q, cache = _forward(spec, np.ascontiguousarray(thetas.T), (s, a))
    if not with_grad:
        return q.T
    K, n = q.shape
    g = np.empty((n, K, spec.d))
    cot = np.zeros((K, n))
    for k in range(K):
        cot[k] = 1.0
        g[:, k] = _vjp(spec, cache, cot).T
        cot[k] = 0.0
    return q.T, g


def max_q_by_state(spec: QNetSpec, thetas: np.ndarray) -> np.ndarray:
    """(N, S) table of max_a Q(s, a; theta_n) over thetas (N, d)."""
    q = q_values_batch(spec, thetas, pair_heads(spec))  # (N, S*A)
    return q.reshape(thetas.shape[0], -1, spec.n_actions).max(axis=2)
