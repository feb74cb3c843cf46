"""Per-trajectory random streams for ensembles.

Every trajectory owns a counter-based Philox stream keyed by
``SeedSequence(master seed, spawn_key=(*path, trajectory index))``.  A
trajectory's draws are a pure function of its own key and its position in
its own stream, so ensembles are reproducible and order-independent under
parallel execution: trajectory i sees the same noise whether the ensemble
holds 10 or 10000 trajectories, and adding arms to an experiment never
perturbs existing ones.

``TrajectoryStreams`` derives all n Philox keys in one vectorised pass
(``stream_keys``): numpy's ``SeedSequence(master seed, spawn_key=path)``
mixes the words every trajectory shares, and the package hashes only the
final index word, for all n trajectories at once.  Each key equals
``SeedSequence(...).generate_state(2, np.uint64)`` bit for bit and reaches
``Philox`` through ``_PhiloxKey``, so the streams and their draws are
exactly those of the per-trajectory ``SeedSequence`` construction, at a
fraction of its cost.

Draws are served in blocks (one generator call per trajectory per block) to
amortise per-call overhead.  ``step_noise`` keeps one block resident per
stream family and refills it in place, at most 64 steps and ``BLOCK_WORDS``
(20 MB) over all families, and hands every step fresh parameter-major words;
the block size changes no value, only speed and memory.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4

# Every stream path, named once.  Keys are (master seed, *path, ...) unless noted; i is
# a study arm, j a trajectory.  No two consumers of one run share a key.
SIMULATE_PATH = (0,)  # simulate-dqn (0, 0|1, j), simulate-sdde (0, j)
CHAIN_ARM, SDDE_ARM, W1_ARM = 0, 1, 3  # arm i: (0, i, 0|1, j), (1, i, j), (3, i[, 1])
W1_SLICED_PATH, W1_ASSIGNMENT_PATH = (3, 0), (3, 1)  # estimate-w1, under its --seed
BUFFER_PATH = (5,)  # run_algorithm1 (5, 0|1, j)
THETA0_PATH, SNAPSHOT_PATH = (8, 0), (9, 1)  # under net.init.seed; assumption report

# Words of noise resident per step_noise call, over all its stream families: 20 MB.
# Halving it again cost wall time under variance_study's two arm threads, which
# take the interpreter lock at every per-trajectory generator call.
BLOCK_WORDS = 2_500_000


def _n_words(v) -> int:
    """How many uint32 words numpy's SeedSequence reads from the integer v."""
    return max(1, (int(v).bit_length() + 31) // 32)


def _hashmix(value, hc: int):
    """SeedSequence's hashmix on a uint64 array of words; returns (value, next hc)."""
    value = value ^ hc
    hc = (hc * _MULT_A) & _MASK32
    value = (value * hc) & _MASK32
    return value ^ (value >> 16), hc


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ (r >> 16)


def stream_keys(master_seed: int, path: tuple[int, ...], n: int) -> np.ndarray:
    """(n, 2) uint64 Philox keys; row i is
    ``SeedSequence(master_seed, spawn_key=(*path, i)).generate_state(2, np.uint64)``.

    numpy mixes the words every i shares: the pool of
    ``SeedSequence(master_seed, spawn_key=path)`` holds the seed's words
    (zero-padded to the pool size, since the spawn key is never empty) and
    the path's, after one hashmix per pool entry per word.  Only the index i,
    one word for every i < 2**32, is hashed here, into all n pools at once.
    """
    if not 0 <= n <= 2 ** 32:
        raise ValueError(f"stream count must lie in [0, 2**32], got {n}")
    pool = np.random.SeedSequence(master_seed, spawn_key=path).pool.tolist()
    shared = max(_POOL, _n_words(master_seed)) + sum(map(_n_words, path))
    hc = _INIT_A * pow(_MULT_A, _POOL * shared, 2 ** 32) & _MASK32
    index = np.arange(n, dtype=np.uint64)
    for i_dst in range(_POOL):
        v, hc = _hashmix(index, hc)
        pool[i_dst] = _mix(pool[i_dst], v)
    # generate_state(2, uint64): four uint32 words, paired little-endian
    hc = _INIT_B
    words = []
    for v in pool:
        v = v ^ hc
        hc = (hc * _MULT_B) & _MASK32
        v = (v * hc) & _MASK32
        words.append(v ^ (v >> 16))
    return np.stack([words[0] | (words[1] << np.uint64(32)),
                     words[2] | (words[3] << np.uint64(32))], axis=1)


class _PhiloxKey(ISeedSequence):
    """A precomputed key handed to ``Philox`` in place of its SeedSequence.

    Philox asks its seed sequence for exactly one state, ``(2, uint64)``;
    any other request means the bit generator changed and is refused.
    """

    __slots__ = ("_key",)

    def __init__(self, key: np.ndarray):
        self._key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a Philox key serves only (2, uint64), not ({n_words}, {dtype})")
        return self._key


def spawn_generator(master_seed: int, path: tuple[int, ...]) -> np.random.Generator:
    """A single Philox generator keyed by (master seed, *path)."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=master_seed, spawn_key=path)))


class TrajectoryStreams:
    """A batch of independent per-trajectory Philox streams."""

    def __init__(self, master_seed: int, path: tuple[int, ...], n: int):
        self.n = n
        self._gens = [np.random.Generator(np.random.Philox(_PhiloxKey(k)))
                      for k in stream_keys(master_seed, path, n)]

    def normal_block(self, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """(n, count) standard normals, advancing every stream by count; into out if given."""
        out = self._block(count, out)
        for i, g in enumerate(self._gens):
            g.standard_normal(out=out[i])
        return out

    def uniform_block(self, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """(n, count) uniforms in [0, 1), advancing every stream by count; into out if given."""
        out = self._block(count, out)
        for i, g in enumerate(self._gens):
            g.random(out=out[i])
        return out

    def _block(self, count: int, out: np.ndarray | None) -> np.ndarray:
        """out, checked to be (n, count), or a new (n, count) array."""
        if out is None:
            return np.empty((self.n, count))
        if out.shape != (self.n, count):
            raise ValueError(f"out must have shape {(self.n, count)}, got {out.shape}")
        return out


def step_noise(master_seed: int, n: int, T: int, *draws):
    """Yield T per-step tuples of words, one (count, n) array per draw (path,
    "uniform" | "normal", count) from the streams keyed (*path, i).

    Each stream family fills one (n, blk * count) block in place, blk steps at
    a time, trajectory by trajectory and step-major, so blocking never changes
    which word feeds which step.  Every yielded array is a fresh C-contiguous
    copy that the caller may write into; only one block per family is ever
    resident.
    """
    fills = [(getattr(TrajectoryStreams(master_seed, path, n), f"{kind}_block"), count)
             for path, kind, count in draws]
    blk = block_size(n, sum(count for _, count in fills))
    bufs = [np.empty((n, min(blk, T) * count)) for _, count in fills]
    for start in range(0, T, blk):
        nb = min(blk, T - start)
        blocks = [fill(count * nb, out=buf[:, :count * nb]).reshape(n, nb, count)
                  for (fill, count), buf in zip(fills, bufs)]
        for j in range(nb):
            yield tuple(_transposed(b[:, j]) for b in blocks)


def _transposed(words: np.ndarray) -> np.ndarray:
    """A C-contiguous (count, n) copy of (n, count) words, in 512-trajectory
    chunks so that the strided reads stay in cache."""
    n, count = words.shape
    out = np.empty((count, n))
    for i0 in range(0, n, 512):
        np.copyto(out[:, i0:i0 + 512], words[i0:i0 + 512].T)
    return out


def block_size(n_traj: int, per_step: int) -> int:
    """Steps of noise per block: at most 64 and ``BLOCK_WORDS`` words (20 MB), unless
    one step alone is larger.  ``step_noise`` keeps one block per stream family
    resident, n_traj * blk * per_step * 8 bytes over all families; the size
    sets the generator calls per trajectory and the memory, never a value."""
    return max(1, min(64, BLOCK_WORDS // max(1, n_traj * per_step)))
