from __future__ import annotations

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qsdde.rng import (TrajectoryStreams, _PhiloxKey, block_size, spawn_generator, step_noise,
                       stream_keys)


def test_streams_reproducible():
    a = TrajectoryStreams(123, (0,), 8).normal_block(32)
    b = TrajectoryStreams(123, (0,), 8).normal_block(32)
    assert np.array_equal(a, b)


def test_streams_order_independent():
    big = TrajectoryStreams(99, (2, 1), 16).normal_block(40)
    small = TrajectoryStreams(99, (2, 1), 5).normal_block(40)
    assert np.array_equal(big[:5], small)


def test_streams_blocking_invariant():
    s1 = TrajectoryStreams(5, (0,), 4)
    parts = np.concatenate([s1.normal_block(7), s1.normal_block(13)], axis=1)
    s2 = TrajectoryStreams(5, (0,), 4)
    assert np.array_equal(parts, s2.normal_block(20))


def test_distinct_paths_and_seeds_differ():
    base = TrajectoryStreams(7, (0,), 4).normal_block(16)
    other_path = TrajectoryStreams(7, (1,), 4).normal_block(16)
    other_seed = TrajectoryStreams(8, (0,), 4).normal_block(16)
    assert not np.allclose(base, other_path)
    assert not np.allclose(base, other_seed)


def test_uniforms_in_unit_interval():
    u = TrajectoryStreams(3, (0,), 6).uniform_block(1000)
    assert u.min() >= 0.0 and u.max() < 1.0
    # crude uniformity: mean within 5 standard errors of 1/2
    assert abs(u.mean() - 0.5) < 5.0 / np.sqrt(12 * u.size)


def test_spawn_generator_deterministic():
    g1 = spawn_generator(11, (4, 2))
    g2 = spawn_generator(11, (4, 2))
    assert np.array_equal(g1.standard_normal(9), g2.standard_normal(9))


def test_block_size_bounds():
    assert block_size(1, 1) == 64
    assert block_size(10 ** 9, 35) == 1
    assert 1 <= block_size(4096, 35) <= 64


@pytest.mark.parametrize("n", [1, 128, 2048, 4096, 16384])
@pytest.mark.parametrize("per_step", [5, 32, 35])
def test_block_size_caps_a_block_at_20_mb(n, per_step):
    blk = block_size(n, per_step)
    assert 1 <= blk <= 64
    assert n * blk * per_step * 8 <= 20e6 or blk == 1


def test_block_size_keeps_the_study_blocks():
    # the SDDE arms of variance_study (2048 trajectories) and rate_sweep (128) draw
    # d + K = 35 words per substep.  34-step blocks at 2048 trajectories cut
    # variance_study's peak memory from 145 to 103-110 MB with no wall time lost
    # (CHANGES.md, the pair table of the 20 MB budget); 17-step blocks cost 4-11%
    # of its wall time, because its two arm threads wait on each other for the
    # interpreter lock at every per-trajectory generator call, and halving the
    # block doubles those calls.
    assert block_size(2048, 35) == 34
    assert block_size(128, 35) == 64


def test_step_noise_words_are_the_streams_step_by_step():
    # three full 64-step blocks and a partial one, one uniform and one normal family
    n, T = 5, 3 * 64 + 7
    assert block_size(n, 2 + 3) == 64
    u_ref = TrajectoryStreams(41, (0, 0), n).uniform_block(2 * T).reshape(n, T, 2)
    z_ref = TrajectoryStreams(41, (0, 1), n).normal_block(3 * T).reshape(n, T, 3)
    steps = list(step_noise(41, n, T, ((0, 0), "uniform", 2), ((0, 1), "normal", 3)))
    assert len(steps) == T
    for j, (u, z) in enumerate(steps):
        assert np.array_equal(u, u_ref[:, j].T) and np.array_equal(z, z_ref[:, j].T)
    with pytest.raises(ValueError, match="out must have shape"):
        TrajectoryStreams(41, (0,), n).normal_block(3, out=np.empty((n, 4)))


def test_step_noise_hands_out_fresh_words():
    # run_sdde scales its words in place: no step may see another step's writes,
    # across a block boundary too
    n, T = 600, 70
    ref = TrajectoryStreams(5, (1,), n).normal_block(4 * T).reshape(n, T, 4)
    for j, (z,) in enumerate(step_noise(5, n, T, ((1,), "normal", 4))):
        assert z.flags.c_contiguous and z.flags.owndata and z.shape == (4, n)
        assert np.array_equal(z, ref[:, j].T)
        z[:] = np.nan


@pytest.mark.parametrize("n, blk", [(256, 64), (2048, 19)])  # the 64-step limit, then the cap
def test_step_noise_keeps_one_block_resident(n, blk):
    count = 64
    assert block_size(n, count) == blk
    block_bytes = n * blk * count * 8
    tracemalloc.start()
    try:
        for _ in step_noise(9, n, 3 * blk + 5, ((0,), "normal", count)):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * block_bytes


@pytest.mark.parametrize("seed", [0, 2024, 2 ** 32 + 5, 2 ** 64 - 1, 2 ** 96 + 7, 2 ** 128,
                                  2 ** 200 + 3, np.uint64(2 ** 63 + 1), np.int32(7)])
def test_stream_keys_equal_seed_sequence(seed):
    # seeds of one to seven words (longer than the pool too), numpy integers, paths
    # of length 0-3 with entries of up to three words, first and last index
    n = 70
    for path in ((), (3,), (1, 2 ** 32 + 9), (5, 1, 0), (2 ** 70,), (np.int64(4), np.uint8(2))):
        keys = stream_keys(seed, path, n)
        assert keys.shape == (n, 2) and keys.dtype == np.uint64
        for i in (0, 1, n - 1):
            want = np.random.SeedSequence(seed, spawn_key=(*path, i)).generate_state(
                2, np.uint64)
            assert np.array_equal(keys[i], want)
        empty = stream_keys(seed, path, 0)
        assert empty.shape == (0, 2) and empty.dtype == np.uint64


def test_stream_draws_equal_spawned_generators():
    for seed, path in ((2024, (0,)), (2 ** 64 - 1, (5, 1)), (7, ())):
        n = 40
        streams = TrajectoryStreams(seed, path, n)
        z, u = streams.normal_block(9), streams.uniform_block(4)
        for i in (0, 1, n - 1):
            g = spawn_generator(seed, (*path, i))
            assert np.array_equal(z[i], g.standard_normal(9))
            assert np.array_equal(u[i], g.random(4))


def test_philox_key_serves_only_its_key():
    key = stream_keys(1, (0,), 1)[0]
    shim = _PhiloxKey(key)
    assert shim.generate_state(2, np.uint64) is key
    for args in ((2,), (4, np.uint32), (2, np.uint32), (1, np.uint64), (4, np.uint64)):
        with pytest.raises(ValueError):
            shim.generate_state(*args)


def test_stream_keys_reject_negative_entries():
    with pytest.raises(ValueError):
        stream_keys(-1, (0,), 2)
    with pytest.raises(ValueError):
        stream_keys(1, (0, -2), 2)


def test_only_rng_builds_or_seeds_numpy_generators():
    # every random stream of the package is keyed in qsdde.rng; a generator built
    # elsewhere is a hidden seed
    banned = {"default_rng", "RandomState", "SeedSequence", "Generator", "Philox", "PCG64",
              "SFC64", "MT19937"}
    found = []
    for path in sorted(Path(__file__).resolve().parent.parent.glob("src/qsdde/*.py")):
        if path.name == "rng.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = ast.unparse(node.func)
            if name.split(".")[-1] in banned or name.endswith("random.seed"):
                found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []
