"""Smooth, globally bounded action-value networks Q(s, a; theta).

The input is the concatenated one-hot encoding of (s, a), every hidden unit
is a logistic sigmoid, and the output is squashed through
``bound * (2*sigmoid(z) - 1)``, so |Q| < bound everywhere and Q is smooth to
all orders in theta.  Gradients are analytic reverse-mode accumulation
written here (no external autodiff).

The one implementation is a kernel over parameter-major batches: thetas is
(d, N), one column per trajectory, and heads are every (s, a) pair or listed
(s, a) index pairs, so the one-hot input is never formed.  The first layer
is W1[:, s] + W1[:, S + a] + b1: an outer sum over every pair, a column
gather for listed heads.  Every other sum is one broadcast product and one
``_sum``, which adds the terms in index order whatever the batch size, so a
trajectory's result does not depend on how many share the batch.
``_forward`` returns the (K, N) head values and a cache, ``_vjp`` turns a
(K, N) cotangent into sum_k cot_k grad Q_k, (d, N), in one reverse pass.
``q_values_batch`` keeps the trajectory-major interface, (N, d) parameters
and integer (s, a) rows, (K, 2) shared or (N, K, 2) per trajectory; its
dense per-head gradients are K passes with unit cotangents."""

from __future__ import annotations

import math
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
    layers, off, n = [], 0, thetas.shape[1]
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


def _sum(p: np.ndarray, axis: int, out=None, initial: float = -0.0) -> np.ndarray:
    """initial + p[0] + p[1] + ... along axis, added in index order: np.add.reduce
    keeps that order only while a longer axis follows the summed one, else (one
    trajectory, say) it adds pairwise from 8 terms on, so there the sum is the
    last partial sum of np.add.accumulate.  initial -0.0 keeps the first term."""
    if math.prod(p.shape[axis + 1:]) > 1:
        return np.add.reduce(p, axis, out=out, initial=initial)
    return np.add(np.add.accumulate(p, axis).take(-1, axis), initial, out=out)


def _forward(spec: QNetSpec, thetas: np.ndarray, heads):
    """Forward pass over parameter-major thetas (d, N), trajectories last.

    heads: None for every pair in ``pair_heads`` order, k = s*A + a, or (s, a)
    integer arrays, both (K,) shared by every trajectory or both (K, N) per
    trajectory.  Returns (q (K, N), cache for _vjp).
    """
    layers = _layers(spec, thetas)
    S, n = spec.n_states, thetas.shape[1]
    w1, b1 = layers[0]
    if heads is None:
        z = (w1[:, :S, None] + w1[:, None, S:]).reshape(len(w1), -1, n)
    else:  # column c of trajectory j sits at c*N + j of the flattened layer
        flat, traj = w1.reshape(len(w1), -1), np.arange(n)
        s, a = (np.reshape(c, (len(c), -1)) * n + traj for c in (heads[0], S + heads[1]))
        z = flat.take(s, axis=1)
        z += flat.take(a, axis=1)
    z += b1[:, None, :]
    acts = [_sigmoid(z)]  # (out, K, N) per hidden layer
    for w, b in layers[1:]:
        z = _sum(w[:, :, None, :] * acts[-1], 1)  # over the layer input
        z += b[:, None, :]
        acts.append(z)
        if len(acts) <= len(spec.hidden):
            _sigmoid(z)
    t = np.tanh(0.5 * acts.pop()[0])  # (K, N)
    # clip only the value, so |Q| < bound even where tanh saturates in float;
    # the derivative keeps the raw tanh (exactly 0 at float saturation)
    q = spec.bound * np.minimum(np.maximum(t, -_SAT), _SAT)
    return q, (layers, heads, acts, t)


def _vjp(spec: QNetSpec, cache, cot: np.ndarray) -> np.ndarray:
    """Vector-Jacobian product sum_k cot[k, n] grad_theta Q_k(theta_n), (d, N).

    One reverse pass over the activations cached by _forward; cot is (K, N).
    Each weight gradient contracts the K heads, so no per-head gradient is
    formed.  In the first layer each head's pre-activation gradient goes to
    its columns s and S + a: for every pair, column s sums over a and column
    S + a over s; for listed heads, through their 0/1 incidence."""
    layers, heads, acts, t = cache
    out = np.empty((spec.d, cot.shape[1]))
    # d/dz [bound * tanh(z/2)] = bound/2 * (1 - tanh(z/2)^2)
    dz = 1.0 - t * t
    dz *= 0.5 * spec.bound
    dz *= cot
    dz = dz[None]  # (1, K, N)
    for l, (gw, gb) in reversed(list(enumerate(_layers(spec, out)))):
        _sum(dz, 1, gb)
        if l > 0:
            h, w = acts[l - 1], layers[l][0]
            _sum(dz[:, None] * h, 2, gw)
            dz = _sum(w[:, :, None, :] * dz[:, None], 0)  # (in, K, N), then through the sigmoid
            dz *= h
            dz -= dz * h
        elif heads is None:  # dz as (out, S, A, N)
            dz = dz.reshape(len(dz), spec.n_states, -1, dz.shape[-1])
            _sum(dz, 2, gw[:, :spec.n_states], 0.0)  # from +0, a scatter into zeros
            _sum(dz, 1, gw[:, spec.n_states:], 0.0)
        else:
            s, a = (np.reshape(c, (len(c), -1)) for c in heads)
            col = np.arange(gw.shape[1])[:, None, None]
            _sum(dz[:, None] * ((col == s) | (col == spec.n_states + a)), 2, gw, 0.0)
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
    return q.T, np.stack([_vjp(spec, cache, np.broadcast_to(e[:, None], (K, n))).T
                          for e in np.eye(K)], axis=1)


def max_q_by_state(spec: QNetSpec, thetas: np.ndarray) -> np.ndarray:
    """(N, S) table of max_a Q(s, a; theta_n) over thetas (N, d)."""
    q = _forward(spec, np.ascontiguousarray(np.atleast_2d(thetas).T), None)[0]
    return q.reshape(spec.n_states, spec.n_actions, -1).max(axis=1).T
