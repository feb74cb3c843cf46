"""Per-trajectory random streams for ensembles.

Every trajectory owns a counter-based Philox stream keyed by
``SeedSequence(master seed, spawn_key=(*path, trajectory index))``.  A
trajectory's draws are a pure function of its own key and its position in
its own stream, so ensembles are reproducible and order-independent under
parallel execution: trajectory i sees the same noise whether the ensemble
holds 10 or 10000 trajectories, and adding arms to an experiment never
perturbs existing ones.

Draws are served in blocks (one generator call per trajectory per block) to
amortise per-call overhead; block size only affects speed, never values.
"""

from __future__ import annotations

import numpy as np


def spawn_generator(master_seed: int, path: tuple[int, ...]) -> np.random.Generator:
    """A single Philox generator keyed by (master seed, *path)."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=master_seed, spawn_key=path)))


class TrajectoryStreams:
    """A batch of independent per-trajectory Philox streams."""

    def __init__(self, master_seed: int, path: tuple[int, ...], n: int):
        self.n = n
        self._gens = [
            np.random.Generator(np.random.Philox(
                np.random.SeedSequence(entropy=master_seed, spawn_key=(*path, i))))
            for i in range(n)
        ]

    def normal_block(self, count: int) -> np.ndarray:
        """(n, count) standard normals, advancing every stream by count."""
        out = np.empty((self.n, count))
        for i, g in enumerate(self._gens):
            g.standard_normal(out=out[i])
        return out

    def uniform_block(self, count: int) -> np.ndarray:
        """(n, count) uniforms in [0, 1), advancing every stream by count."""
        out = np.empty((self.n, count))
        for i, g in enumerate(self._gens):
            g.random(out=out[i])
        return out


def step_noise(master_seed: int, path: tuple[int, ...], n: int, T: int,
               n_uniform: int, n_normal: int):
    """Yield T per-step pairs (u (n, n_uniform), z (n, n_normal)).

    Uniforms come from the streams keyed (*path, 0, i), normals from
    (*path, 1, i), step-major, so blocking never changes which word feeds
    which step.
    """
    streams_u = TrajectoryStreams(master_seed, (*path, 0), n)
    streams_z = TrajectoryStreams(master_seed, (*path, 1), n)
    blk = block_size(n, n_uniform + n_normal)
    for start in range(0, T, blk):
        nb = min(blk, T - start)
        u = streams_u.uniform_block(n_uniform * nb).reshape(n, nb, n_uniform)
        z = streams_z.normal_block(n_normal * nb).reshape(n, nb, n_normal)
        for j in range(nb):
            yield u[:, j], z[:, j]


def block_size(n_traj: int, per_step: int, cap: int = 64,
               budget: int = 16_000_000) -> int:
    """Steps of noise to pre-draw per block, bounded by a memory budget."""
    return int(max(1, min(cap, budget // max(1, n_traj * per_step))))
