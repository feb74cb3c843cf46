"""Empirical Wasserstein-1 distances between trajectory ensembles.

Three estimators:

  w1_exact_1d    exact in one dimension (sorted coupling)
  w1_assignment  exact for d-dimensional empirical measures up to a size cap,
                 via a shortest-augmenting-path assignment solve
  w1_sliced      average of exact 1-D distances over random projection
                 directions, rescaled by the sphere mean |<u, e>| so that
                 translation-family distances are estimated without the
                 1/sqrt(d) projection shrinkage

Every estimate carries a split-half self-distance baseline: empirical W1 is
biased upward at finite sample size, and readings below twice the baseline
are dominated by that bias floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ASSIGNMENT_CAP = 512
BOOTSTRAP_REPEATS = 16


@dataclass
class W1Estimate:
    value: float
    method: str  # "exact_1d" | "assignment" | "sliced"
    stderr: float
    n_a: int
    n_b: int
    baseline: float
    meta: dict = field(default_factory=dict)

    def reliable(self) -> bool:
        """False when the reading sits inside the finite-sample bias floor."""
        return self.value >= 2.0 * self.baseline

    def as_dict(self) -> dict:
        return {"value": self.value, "method": self.method, "stderr": self.stderr,
                "n_a": self.n_a, "n_b": self.n_b, "baseline": self.baseline,
                "reliable": self.reliable(), **{f"meta_{k}": v for k, v in self.meta.items()}}


def projection_scale(d: int) -> float:
    """1 / E|<u, e>| for u uniform on the unit sphere in R^d (1 when d = 1)."""
    return math.sqrt(math.pi) * math.exp(math.lgamma((d + 1) / 2.0) - math.lgamma(d / 2.0))


def _sorted_coupling(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(np.sort(a) - np.sort(b)).mean())


def _match_counts(a: np.ndarray, b: np.ndarray, rng: np.random.Generator | None,
                  compute) -> tuple:
    """Run `compute` on equal-count samples, bootstrapping the larger set down.

    Returns (value, spread stderr over repeats, meta); value and stderr are
    taken along axis 0 of the repeats, so `compute` may return an array.
    """
    n = min(len(a), len(b))
    if len(a) == len(b):
        return compute(a, b), 0.0, {}
    if rng is None:
        rng = np.random.default_rng(0)
    vals = []
    for _ in range(BOOTSTRAP_REPEATS):
        aa = a if len(a) == n else a[rng.integers(0, len(a), n)]
        bb = b if len(b) == n else b[rng.integers(0, len(b), n)]
        vals.append(compute(aa, bb))
    return np.mean(vals, axis=0), np.std(vals, axis=0) / math.sqrt(len(vals)), \
        {"resampled_to": n, "repeats": BOOTSTRAP_REPEATS}


def w1_exact_1d(a: np.ndarray, b: np.ndarray,
                rng: np.random.Generator | None = None) -> W1Estimate:
    """Exact empirical W1 of two 1-D samples: mean |sorted(a) - sorted(b)|."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("empty sample")
    value, stderr, meta = _match_counts(a, b, rng, _sorted_coupling)
    half = len(a) // 2
    baseline = _sorted_coupling(a[0:2 * half:2], a[1:2 * half:2]) if half >= 1 else 0.0
    return W1Estimate(value=value, method="exact_1d", stderr=stderr,
                      n_a=len(a), n_b=len(b), baseline=baseline, meta=meta)


def _cost_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(n_a, n_b) Euclidean distances, summed one coordinate at a time."""
    cost, diff = np.zeros((len(A), len(B))), np.empty((len(A), len(B)))
    for j in range(A.shape[1]):
        cost += np.square(np.subtract(A[:, j, None], B[None, :, j], out=diff), out=diff)
    return np.sqrt(cost, out=cost)


def _assignment_cost(A: np.ndarray, B: np.ndarray) -> float:
    # scipy.optimize takes about 0.5 s to import; load it at the first solve only
    from scipy.optimize import linear_sum_assignment
    cost = _cost_matrix(A, B)
    return float(cost[linear_sum_assignment(cost)].mean())


def w1_assignment(A: np.ndarray, B: np.ndarray, cap: int = ASSIGNMENT_CAP,
                  rng: np.random.Generator | None = None) -> W1Estimate:
    """Exact empirical W1 via minimum-cost perfect matching (Euclidean cost)."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if A.shape[0] == 0 or B.shape[0] == 0:
        raise ValueError("empty sample")
    if max(A.shape[0], B.shape[0]) > cap:
        raise ValueError(f"sample count {max(A.shape[0], B.shape[0])} exceeds the "
                         f"assignment cap {cap}")
    value, stderr, meta = _match_counts(A, B, rng, _assignment_cost)
    half = A.shape[0] // 2
    baseline = _assignment_cost(A[0:2 * half:2], A[1:2 * half:2]) if half >= 1 else 0.0
    return W1Estimate(value=value, method="assignment", stderr=stderr,
                      n_a=A.shape[0], n_b=B.shape[0], baseline=baseline, meta=meta)


def w1_assignment_subsampled(A: np.ndarray, B: np.ndarray, cap: int,
                             rng: np.random.Generator) -> W1Estimate:
    """w1_assignment on min(len(A), len(B), cap) points of each cloud, drawn
    without replacement from rng, A's indices first."""
    n = min(len(A), len(B), cap)
    ia = rng.choice(len(A), n, replace=False)
    ib = rng.choice(len(B), n, replace=False)
    return w1_assignment(A[ia], B[ib], cap=cap)


def w1_sliced(A: np.ndarray, B: np.ndarray, n_proj: int,
              rng: np.random.Generator) -> W1Estimate:
    """Sliced W1: projection-mean of exact 1-D distances, sphere-rescaled.

    stderr comes from the spread over projection directions; the baseline is
    the sliced self-distance of A split in half, under the same directions.
    Unequal counts are bootstrapped from rng after the directions are drawn.
    """
    if n_proj < 1:
        raise ValueError("n_proj must be >= 1")
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if A.shape[0] == 0 or B.shape[0] == 0:
        raise ValueError("empty sample")
    d = A.shape[1]
    dirs = rng.standard_normal((n_proj, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    scale = projection_scale(d)

    def per_direction(X, Y):
        px = np.sort(X @ dirs.T, axis=0)  # (n, n_proj)
        py = np.sort(Y @ dirs.T, axis=0)
        return np.abs(px - py).mean(axis=0)

    per_dir, _, meta = _match_counts(A, B, rng, per_direction)
    value = scale * float(per_dir.mean())
    stderr = scale * float(per_dir.std() / math.sqrt(n_proj))
    half = A.shape[0] // 2
    if half >= 1:
        baseline = scale * float(per_direction(A[0:2 * half:2], A[1:2 * half:2]).mean())
    else:
        baseline = 0.0
    return W1Estimate(value=value, method="sliced", stderr=stderr,
                      n_a=A.shape[0], n_b=B.shape[0], baseline=baseline, meta=meta)
