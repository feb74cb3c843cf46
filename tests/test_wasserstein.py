from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdde.manifest import json_text
from qsdde.wasserstein import (_cost_matrix, _linear_sum_assignment, projection_scale,
                               w1_assignment, w1_sliced)


def brute_force_w1(A: np.ndarray, B: np.ndarray) -> float:
    """Minimum over all n! matchings of the mean Euclidean matched distance."""
    n = len(A)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = np.mean([np.linalg.norm(A[i] - B[perm[i]]) for i in range(n)])
        best = min(best, cost)
    return best


def sliced_1d(a, b):
    """w1_sliced on two 1-D samples: every direction is +-1, so it is the
    exact sorted coupling up to projection_scale(1), which is 1 to rounding."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return w1_sliced(a.reshape(-1, 1), b.reshape(-1, 1), 4, np.random.default_rng(0))


def test_sliced_1d_identical_samples():
    a = np.array([0.3, -1.0, 2.0])
    est = sliced_1d(a, a.copy())
    assert est.value == 0.0
    assert est.stderr == 0.0


def test_sliced_1d_point_masses():
    assert sliced_1d(np.zeros(2), np.ones(2)).value == pytest.approx(1.0, rel=1e-12)


def test_sliced_1d_sorted_coupling_hand_case():
    est = sliced_1d([0.0, 1.0, 2.0], [0.5, 1.5, 2.5])
    assert est.value == pytest.approx(0.5, rel=1e-12)


def test_assignment_refuses_unequal_counts():
    # the equal counts are drawn by w1_assignment_subsampled, from the caller's rng
    rng = np.random.default_rng(4)
    a, b = rng.normal(0, 1, (6, 2)), rng.normal(0, 1, (4, 2))
    with pytest.raises(ValueError, match="sample counts 6 and 4 differ: "
                                         "w1_assignment_subsampled"):
        w1_assignment(a, b)
    assert w1_assignment(a[:4], b).meta == {}


def test_assignment_permutation_invariance():
    rng = np.random.default_rng(2)
    A = rng.normal(0, 1, (32, 3))
    assert w1_assignment(A, A[rng.permutation(32)]).value == pytest.approx(0.0, abs=1e-12)


def test_assignment_two_point_hand_case():
    A = np.array([[0.0, 0.0], [1.0, 0.0]])
    B = np.array([[0.0, 1.0], [1.0, 1.0]])
    assert w1_assignment(A, B).value == pytest.approx(1.0)
    assert brute_force_w1(A, B) == pytest.approx(1.0)


def test_assignment_matches_factorial_brute_force():
    rng = np.random.default_rng(3)
    for trial in range(3):
        A = rng.normal(0, 1, (8, 2))
        B = rng.normal(0.5, 1.2, (8, 2))
        assert w1_assignment(A, B).value == pytest.approx(brute_force_w1(A, B), rel=1e-12)


def test_cost_matrix_matches_broadcast_formula():
    # the coordinate-by-coordinate sum agrees with the (n, n, d) broadcast to
    # rounding, the assignment solve picks the same matching from both, and
    # the package's solver is scipy's: same rows and columns, ties included
    from scipy.optimize import linear_sum_assignment
    rng = np.random.default_rng(31)
    for n_a, n_b, d in ((1, 1, 1), (7, 7, 3), (64, 64, 29), (40, 25, 5)):
        A = rng.normal(0.0, 2.0, (n_a, d))
        B = rng.normal(0.5, 1.0, (n_b, d))
        cost = _cost_matrix(A, B)
        ref = np.sqrt(((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2))
        assert cost.shape == ref.shape
        assert np.all(np.abs(cost - ref) <= 1e-14 * ref)
        rows, cols = linear_sum_assignment(cost)
        ref_rows, ref_cols = linear_sum_assignment(ref)
        assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols)
        own_rows, own_cols = _linear_sum_assignment()(cost)
        assert np.array_equal(own_rows, rows) and np.array_equal(own_cols, cols)
    flat = np.full((9, 9), 2.5)  # every matching is optimal; scipy's tie rule keeps i -> i
    for solve in (linear_sum_assignment, _linear_sum_assignment()):
        rows, cols = solve(flat)
        assert np.array_equal(rows, np.arange(9)) and np.array_equal(cols, np.arange(9))


def test_missing_assignment_extension_names_version_and_directory(tmp_path, monkeypatch):
    import scipy
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
    with pytest.raises(ImportError) as err:
        _linear_sum_assignment.__wrapped__()  # past the per-process cache
    assert str(err.value) == (f"scipy {scipy.__version__}: no _lsap extension in "
                              f"{tmp_path / 'scipy' / 'optimize'}")


def test_concurrent_loads_leave_sys_modules_as_they_were():
    # the extension's init enters it in sys.modules; eight threads loading it
    # together, 200 times over in a fresh process, must leave no
    # scipy.optimize entry behind (without the loader's lock, about half of
    # such runs do)
    code = ("import sys, threading\n"
            "from qsdde.wasserstein import _linear_sum_assignment\n"
            "sys.setswitchinterval(1e-6)\n"
            "barrier = threading.Barrier(8)\n"
            "def load():\n"
            "    for _ in range(200):\n"
            "        barrier.wait()\n"
            "        _linear_sum_assignment.__wrapped__()\n"
            "threads = [threading.Thread(target=load) for _ in range(8)]\n"
            "[t.start() for t in threads]\n"
            "[t.join(timeout=60) for t in threads]\n"
            "print(any(t.is_alive() for t in threads), "
            "[m for m in sys.modules if m.startswith('scipy.optimize')])")
    src = Path(__file__).resolve().parents[1] / "src"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=120)
    assert res.stdout == "False []\n", res.stdout


def test_assignment_cap_enforced():
    A = np.zeros((513, 2))
    with pytest.raises(ValueError):
        w1_assignment(A, A)


def test_assignment_translation_exact():
    rng = np.random.default_rng(4)
    A = rng.normal(0, 1, (64, 3))
    v = np.array([1.0, -2.0, 0.5])
    est = w1_assignment(A, A + v)
    assert est.value == pytest.approx(np.linalg.norm(v), rel=1e-12)


def test_assignment_translation_bounded_shift():
    rng = np.random.default_rng(5)
    A = rng.normal(0, 1, (48, 2))
    B = rng.normal(0, 1, (48, 2))
    base = w1_assignment(A, B).value
    v = np.array([0.7, -0.2])
    shifted = w1_assignment(A, B + v).value
    assert abs(shifted - base) <= np.linalg.norm(v) + 1e-12


def test_triangle_inequality_assignment():
    rng = np.random.default_rng(6)
    A = rng.normal(0, 1, (40, 2))
    B = rng.normal(1, 1, (40, 2))
    C = rng.normal(-1, 2, (40, 2))
    ab = w1_assignment(A, B)
    bc = w1_assignment(B, C)
    ac = w1_assignment(A, C)
    slack = 4 * max(ab.stderr, bc.stderr, ac.stderr)
    assert ac.value <= ab.value + bc.value + slack + 1e-12


def test_projection_scale_values():
    assert projection_scale(1) == pytest.approx(1.0)
    assert projection_scale(2) == pytest.approx(np.pi / 2)
    assert projection_scale(3) == pytest.approx(2.0)


def test_sliced_identical_is_zero():
    rng = np.random.default_rng(7)
    A = rng.normal(0, 1, (100, 4))
    est = w1_sliced(A, A.copy(), 16, np.random.default_rng(8))
    assert est.value == 0.0


def test_sliced_reduces_to_exact_in_1d():
    rng = np.random.default_rng(9)
    a = rng.normal(0, 1, (64, 1))
    b = rng.normal(1, 2, (64, 1))
    sl = w1_sliced(a, b, 7, np.random.default_rng(10))
    assert sl.value == pytest.approx(np.abs(np.sort(a[:, 0]) - np.sort(b[:, 0])).mean(),
                                     rel=1e-12)


def test_sliced_translation_recovers_shift():
    # the sphere rescaling makes translation distances unbiased
    rng = np.random.default_rng(11)
    A = rng.normal(0, 1, (512, 2))
    v = np.array([2.0, 1.0])
    est = w1_sliced(A, A + v, 128, np.random.default_rng(12))
    assert est.value == pytest.approx(np.linalg.norm(v), rel=0.08)


def test_sliced_unequal_counts_bootstrap_from_caller_rng(monkeypatch):
    rng = np.random.default_rng(21)
    A = rng.normal(0, 1, (600, 2))
    v = np.array([2.0, 1.0])
    B = rng.normal(0, 1, (400, 2)) + v
    rng_a, rng_b = np.random.default_rng(22), np.random.default_rng(22)

    def no_default_rng(*args, **kwargs):
        raise AssertionError("w1_sliced must bootstrap from the caller's rng")

    monkeypatch.setattr(np.random, "default_rng", no_default_rng)
    est = w1_sliced(A, B, 128, rng_a)
    assert est.meta == {"resampled_to": 400, "repeats": 16}
    assert est.value == pytest.approx(np.linalg.norm(v), rel=0.08)
    assert w1_sliced(A, B, 128, rng_b).value == est.value


def test_sliced_below_assignment_with_noise_allowance():
    rng = np.random.default_rng(13)
    A = rng.normal(0, 1, (256, 2))
    B = rng.normal(1.0, 1.5, (256, 2))
    sl = w1_sliced(A, B, 64, np.random.default_rng(14))
    asg = w1_assignment(A, B)
    assert sl.value <= asg.value + 3 * max(sl.stderr, 1e-12)


def test_sliced_baseline_and_reliability():
    rng = np.random.default_rng(15)
    A = rng.normal(0, 1, (400, 3))
    B = rng.normal(0, 1, (400, 3))
    est = w1_sliced(A, B, 32, np.random.default_rng(16))
    assert est.baseline > 0
    assert not est.reliable()  # equal laws sit inside the bias floor
    far = w1_sliced(A, B + 5.0, 32, np.random.default_rng(17))
    assert far.reliable()


def test_one_point_cloud_has_no_floor():
    # no split-half baseline on one point: NaN, written as null, never reliable,
    # also when the one-point cloud is the smaller of two (the reading's size)
    A, B, C = np.zeros((1, 3)), np.full((1, 3), 5.0), np.full((5, 3), 5.0)
    rng = np.random.default_rng(0)
    for est in (w1_sliced(A, B, 8, rng), w1_assignment(A, B), w1_sliced(C, A, 8, rng)):
        assert est.value > 0 and np.isnan(est.baseline)
        assert not est.reliable()
        assert json.loads(json_text(est.as_dict()))["baseline"] is None


def test_sliced_empty_and_bad_args():
    with pytest.raises(ValueError):
        w1_sliced(np.zeros((0, 2)), np.zeros((3, 2)), 4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        w1_sliced(np.zeros((3, 2)), np.zeros((3, 2)), 0, np.random.default_rng(0))


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=0.1, max_value=10.0),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_scaling_property_exact_methods(scale, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(0, 1, 20)
    b = rng.normal(0.5, 1.5, 20)
    base = sliced_1d(a, b).value
    assert sliced_1d(scale * a, scale * b).value == pytest.approx(scale * base, rel=1e-9)
    A = rng.normal(0, 1, (16, 2))
    B = rng.normal(0.3, 1.0, (16, 2))
    base2 = w1_assignment(A, B).value
    assert w1_assignment(scale * A, scale * B).value == pytest.approx(scale * base2, rel=1e-9)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 16))
def test_sliced_scaling_property(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(0, 1, (32, 3))
    B = rng.normal(1, 1, (32, 3))
    c = 2.5
    s1 = w1_sliced(A, B, 24, np.random.default_rng(seed)).value
    s2 = w1_sliced(c * A, c * B, 24, np.random.default_rng(seed)).value
    assert s2 == pytest.approx(c * s1, rel=1e-9)


def test_symmetry_of_methods():
    rng = np.random.default_rng(18)
    A = rng.normal(0, 1, (30, 2))
    B = rng.normal(1, 1, (30, 2))
    assert w1_assignment(A, B).value == pytest.approx(w1_assignment(B, A).value, rel=1e-12)
    assert (sliced_1d(A[:, 0], B[:, 0]).value
            == pytest.approx(sliced_1d(B[:, 0], A[:, 0]).value, rel=1e-12))
