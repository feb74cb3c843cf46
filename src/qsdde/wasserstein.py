"""Empirical Wasserstein-1 distances between trajectory ensembles.

Two estimators:

  w1_assignment  exact for d-dimensional empirical measures of equal count
                 up to a size cap, via a shortest-augmenting-path assignment
                 solve
  w1_sliced      average of exact 1-D distances (sorted couplings) over
                 random projection directions, rescaled by the sphere mean
                 |<u, e>| so that translation-family distances are estimated
                 without the 1/sqrt(d) projection shrinkage; exact when d = 1

Every estimate carries a split-half self-distance baseline on the smaller
cloud (A on equal counts): empirical W1 is biased upward at finite sample
size, and readings below twice the baseline, or with no baseline (NaN, one
point), are dominated by that bias floor.  Only w1_sliced takes unequal
sample counts: it bootstraps them down from the caller's generator.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from dataclasses import asdict, dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import numpy as np

ASSIGNMENT_CAP = 512
BOOTSTRAP_REPEATS = 16


@dataclass
class W1Estimate:
    value: float
    method: str  # "assignment" | "sliced"
    stderr: float
    n_a: int
    n_b: int
    baseline: float
    meta: dict = field(default_factory=dict)

    def reliable(self) -> bool:
        """False inside the finite-sample bias floor, or with no floor (NaN)."""
        return self.value >= 2.0 * self.baseline

    def as_dict(self) -> dict:
        fields = asdict(self)
        meta = fields.pop("meta")
        return {**fields, "reliable": self.reliable(), **{f"meta_{k}": v for k, v in meta.items()}}


def projection_scale(d: int) -> float:
    """1 / E|<u, e>| for u uniform on the unit sphere in R^d (1 when d = 1)."""
    return math.sqrt(math.pi) * math.exp(math.lgamma((d + 1) / 2.0) - math.lgamma(d / 2.0))


def _cost_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(n_a, n_b) Euclidean distances, summed one coordinate at a time."""
    cost, diff = np.zeros((len(A), len(B))), np.empty((len(A), len(B)))
    for j in range(A.shape[1]):
        cost += np.square(np.subtract(A[:, j, None], B[None, :, j], out=diff), out=diff)
    return np.sqrt(cost, out=cost)


_LSAP_LOCK = threading.Lock()


@functools.cache
def _linear_sum_assignment():
    """scipy's compiled linear_sum_assignment (Crouse's shortest augmenting
    path), loaded from its extension file once per process.

    The extension's init enters it in sys.modules under its full name even
    though scipy.optimize is not loaded, so that entry is put back as it was.
    """
    import scipy
    where = Path(scipy.__file__).parent / "optimize"
    path = next((p for p in (where / f"_lsap{s}" for s in EXTENSION_SUFFIXES) if p.is_file()),
                None)
    if path is None:
        raise ImportError(f"scipy {scipy.__version__}: no _lsap extension in {where}")
    name = "scipy.optimize._lsap"
    with _LSAP_LOCK:
        prior = sys.modules.get(name)
        try:
            spec = spec_from_file_location(name, path)
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
        finally:
            if prior is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = prior
    return module.linear_sum_assignment


def _assignment_cost(A: np.ndarray, B: np.ndarray) -> float:
    # the solver alone, not scipy.optimize: that import would add about 320
    # scipy modules, 41 MB resident and 0.5 s for this one compiled function
    cost = _cost_matrix(A, B)
    return float(cost[_linear_sum_assignment()(cost)].mean())


def w1_assignment(A: np.ndarray, B: np.ndarray, cap: int = ASSIGNMENT_CAP) -> W1Estimate:
    """Exact empirical W1 of two equal-count clouds via minimum-cost perfect
    matching (Euclidean cost)."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if A.shape[0] == 0 or B.shape[0] == 0:
        raise ValueError("empty sample")
    if max(A.shape[0], B.shape[0]) > cap:
        raise ValueError(f"sample count {max(A.shape[0], B.shape[0])} exceeds the "
                         f"assignment cap {cap}")
    if A.shape[0] != B.shape[0]:
        raise ValueError(f"sample counts {A.shape[0]} and {B.shape[0]} differ: "
                         "w1_assignment_subsampled draws equal counts")
    value, half = _assignment_cost(A, B), A.shape[0] // 2
    baseline = _assignment_cost(A[0:2 * half:2], A[1:2 * half:2]) if half else float("nan")
    return W1Estimate(value=value, method="assignment", stderr=0.0,
                      n_a=A.shape[0], n_b=B.shape[0], baseline=baseline)


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
    the sliced self-distance, under the same directions, of the smaller cloud
    (A on equal counts) split in half.  Unequal counts are bootstrapped from
    rng after the directions are drawn.
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

    n = min(A.shape[0], B.shape[0])
    if A.shape[0] == B.shape[0]:
        per_dir, meta = per_direction(A, B), {}
    else:
        def draw(X):  # the larger cloud's indices, A's before B's
            return X if X.shape[0] == n else X[rng.integers(0, X.shape[0], n)]
        per_dir = np.mean([per_direction(draw(A), draw(B))
                           for _ in range(BOOTSTRAP_REPEATS)], axis=0)
        meta = {"resampled_to": n, "repeats": BOOTSTRAP_REPEATS}
    value = scale * float(per_dir.mean())
    stderr = scale * float(per_dir.std() / math.sqrt(n_proj))
    S = min(A, B, key=len)  # the size the reading is taken at; A on equal counts
    half = S.shape[0] // 2
    baseline = (scale * float(per_direction(S[0:2 * half:2], S[1:2 * half:2]).mean())
                if half else float("nan"))
    return W1Estimate(value=value, method="sliced", stderr=stderr,
                      n_a=A.shape[0], n_b=B.shape[0], baseline=baseline, meta=meta)
