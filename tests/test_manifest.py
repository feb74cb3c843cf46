from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qsdde.chain import TrajectoryEnsemble
from qsdde.manifest import _CHUNK_ROWS, atomic_write_text, ensemble_to_csv, read_ensemble_csv


def oracle_ensemble_csv(path, ensemble) -> None:
    """The per-element writer: the byte format ensemble_to_csv must keep."""
    d = ensemble.samples.shape[2]
    lines = ["traj_id,step," + ",".join(f"theta_{i}" for i in range(d))]
    for i in range(ensemble.samples.shape[0]):
        for j, step in enumerate(ensemble.checkpoints):
            vals = ",".join(repr(float(v)) for v in ensemble.samples[i, j])
            lines.append(f"{i},{step},{vals}")
    atomic_write_text(path, "\n".join(lines) + "\n")


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e-300, 1e300,
           -1e300, 0.1 + 0.2, 1 / 3, -2.718281828459045, 1.7976931348623157e308]


@st.composite
def ensembles(draw):
    n, C, d = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    elems = st.one_of(st.sampled_from(SPECIAL),
                      st.floats(allow_nan=False, allow_infinity=False, width=64))
    samples = draw(arrays(np.float64, (n, C, d), elements=elems))
    steps = draw(st.lists(st.integers(0, 10_000), min_size=C, max_size=C, unique=True))
    return TrajectoryEnsemble(checkpoints=tuple(sorted(steps)), samples=samples)


@settings(max_examples=60, deadline=None)
@given(ens=ensembles())
def test_csv_round_trip_is_bitwise(tmp_path_factory, ens):
    tmp = tmp_path_factory.mktemp("csv")
    ensemble_to_csv(tmp / "new.csv", ens)
    oracle_ensemble_csv(tmp / "oracle.csv", ens)
    assert (tmp / "new.csv").read_bytes() == (tmp / "oracle.csv").read_bytes()
    steps, by_step = read_ensemble_csv(tmp / "new.csv")
    assert steps == list(ens.checkpoints)
    for j, step in enumerate(ens.checkpoints):
        want = np.ascontiguousarray(ens.samples[:, j])
        assert by_step[step].dtype == np.float64
        assert by_step[step].shape == want.shape
        assert by_step[step].tobytes() == want.tobytes()
        only_steps, only = read_ensemble_csv(tmp / "new.csv", [step])
        assert only_steps == steps and list(only) == [step]
        assert only[step].tobytes() == by_step[step].tobytes()


def _several_chunks(n_traj: int) -> TrajectoryEnsemble:
    """n_traj trajectories at 3 checkpoints, d = 2, mixing special and random floats."""
    rng = np.random.default_rng(n_traj)
    samples = rng.standard_normal((n_traj, 3, 2)) * 10.0 ** rng.integers(-300, 300, (n_traj, 3, 2))
    samples.reshape(-1)[:len(SPECIAL)] = SPECIAL
    return TrajectoryEnsemble(checkpoints=(0, 40, 160), samples=samples)


@pytest.mark.parametrize("n_traj", [_CHUNK_ROWS, 695])
def test_chunked_writer_keeps_the_oracle_bytes(tmp_path, n_traj):
    # 3 * n_traj rows: three whole write chunks, then two and a partial one
    ens = _several_chunks(n_traj)
    assert (3 * n_traj) % _CHUNK_ROWS == (0 if n_traj == _CHUNK_ROWS else 37)
    ensemble_to_csv(tmp_path / "new.csv", ens)
    oracle_ensemble_csv(tmp_path / "oracle.csv", ens)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    steps, by_step = read_ensemble_csv(tmp_path / "new.csv")
    assert steps == [0, 40, 160]
    for j, step in enumerate(steps):
        assert by_step[step].tobytes() == np.ascontiguousarray(ens.samples[:, j]).tobytes()


@pytest.mark.parametrize("start", ["shared", "per-trajectory", "signed zeros"])
def test_shared_checkpoint_keeps_the_oracle_bytes(tmp_path, start):
    # a checkpoint every trajectory holds bit for bit is formatted once; a start
    # mixing 0.0 and -0.0 is equal in value but not in bits, so not shared
    ens = _several_chunks(695)
    x0 = ens.samples[:, 0]
    if start == "shared":
        x0[:] = x0[0].copy()
    elif start == "signed zeros":
        x0[:] = 0.0
        x0[1::2, 1] = -0.0
    ensemble_to_csv(tmp_path / "new.csv", ens)
    oracle_ensemble_csv(tmp_path / "oracle.csv", ens)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("bad_row, message", [
    ("600,0,0.5", "line 1802: 3 fields, the header has 4"),
    ("600,O,0.5,0.25", "line 1802: step 'O' is not an integer"),
])
def test_streaming_reader_names_a_deep_line(tmp_path, bad_row, message):
    path = tmp_path / "e.csv"
    ensemble_to_csv(path, _several_chunks(695))
    _replace_line(path, 1802, bad_row)  # trajectory 600 at step 0, in the file's second chunk
    for checkpoints in (None, [0], [160]):
        with pytest.raises(ValueError) as err:
            read_ensemble_csv(path, checkpoints)
        assert str(path) in str(err.value) and message in str(err.value)


@pytest.mark.parametrize("variant", ["no final newline", "blank line", "CRLF"])
def test_streaming_reader_line_ending_variants(tmp_path, variant):
    ensemble_to_csv(tmp_path / "lf.csv", _several_chunks(695))
    text = (tmp_path / "lf.csv").read_bytes()
    lines = text.split(b"\n")
    edited = {"no final newline": text[:-1],
              "blank line": b"\n".join(lines[:1000] + [b""] + lines[1000:]),
              "CRLF": text.replace(b"\n", b"\r\n")}[variant]
    assert edited != text
    (tmp_path / "v.csv").write_bytes(edited)
    want_steps, want = read_ensemble_csv(tmp_path / "lf.csv")
    for checkpoints in (None, [40]):
        steps, got = read_ensemble_csv(tmp_path / "v.csv", checkpoints)
        assert steps == want_steps == [0, 40, 160]
        assert list(got) == (want_steps if checkpoints is None else [40])
        for step in got:
            assert got[step].tobytes() == want[step].tobytes()


def _write_small(path) -> None:
    samples = np.arange(2 * 3 * 2, dtype=np.float64).reshape(2, 3, 2) / 7.0
    ensemble_to_csv(path, TrajectoryEnsemble(checkpoints=(0, 5, 10), samples=samples))


def _replace_line(path, line_no: int, text: str) -> None:
    lines = path.read_text().split("\n")
    lines[line_no - 1] = text
    path.write_text("\n".join(lines))


def test_restricted_read_omits_absent_steps(tmp_path):
    path = tmp_path / "e.csv"
    _write_small(path)
    steps, by_step = read_ensemble_csv(path, [5, 7])
    assert steps == [0, 5, 10]
    assert list(by_step) == [5]


@pytest.mark.parametrize("bad_row, message", [
    ("1,10,0.5", "line 7: 3 fields, the header has 4"),
    ("1,10,0.5,0.25,0.125", "line 7: 5 fields, the header has 4"),
    ("1,ten,0.5,0.25", "line 7: step 'ten' is not an integer"),
    ("1,1.5,0.5,0.25", "line 7: step '1.5' is not an integer"),
])
def test_structure_checked_at_unrequested_steps(tmp_path, bad_row, message):
    path = tmp_path / "e.csv"
    _write_small(path)
    _replace_line(path, 7, bad_row)  # line 7: trajectory 1 at step 10
    for checkpoints in (None, [0], [5]):
        with pytest.raises(ValueError) as err:
            read_ensemble_csv(path, checkpoints)
        assert str(path) in str(err.value) and message in str(err.value)


def test_every_step_must_hold_the_same_number_of_rows(tmp_path):
    path = tmp_path / "e.csv"
    _write_small(path)
    lines = path.read_text().split("\n")
    path.write_text("\n".join(lines[:2] + lines[3:]))  # trajectory 0 at step 5 goes
    for checkpoints in (None, [0], [5], [10]):
        with pytest.raises(ValueError) as err:
            read_ensemble_csv(path, checkpoints)
        assert str(err.value) == f"{path}, line 5: step 5 ends with 1 rows, step 0 has 2"


def test_a_trajectory_twice_at_a_requested_step_is_refused(tmp_path):
    path = tmp_path / "e.csv"
    _write_small(path)
    text = path.read_text()
    path.write_text(text + "".join(text.splitlines(True)[4:7]))  # trajectory 1 again
    for checkpoints, message in ((None, "line 8: trajectory 1 appears twice at step 0, "
                                        "first on line 5"),
                                 ([10], "line 10: trajectory 1 appears twice at step 10, "
                                        "first on line 7")):
        with pytest.raises(ValueError) as err:
            read_ensemble_csv(path, checkpoints)
        assert str(err.value) == f"{path}, {message}"


def test_traj_id_must_be_an_integer_at_a_requested_step(tmp_path):
    path = tmp_path / "e.csv"
    _write_small(path)
    _replace_line(path, 6, "abc,5,0.5,0.25")  # trajectory 1 at step 5
    for checkpoints in (None, [5]):
        with pytest.raises(ValueError) as err:
            read_ensemble_csv(path, checkpoints)
        assert str(err.value) == f"{path}, line 6: traj_id 'abc' is not an integer"
    steps, by_step = read_ensemble_csv(path, [10])
    assert steps == [0, 5, 10] and by_step[10].shape == (2, 2)


@pytest.mark.parametrize("value, problem", [("oops", "is not a number"), ("nan", "is not finite"),
                                            ("inf", "is not finite"), ("-inf", "is not finite")])
def test_non_numeric_value_rejected_only_where_parsed(tmp_path, value, problem):
    path = tmp_path / "e.csv"
    _write_small(path)
    _replace_line(path, 7, f"1,10,0.5,{value}")
    with pytest.raises(ValueError) as err:
        read_ensemble_csv(path, [10])
    assert f"{path}, line 7, field 4: {value!r} {problem}" in str(err.value)
    with pytest.raises(ValueError):
        read_ensemble_csv(path)
    # floats of unrequested steps are not parsed, so this file reads at step 5
    steps, by_step = read_ensemble_csv(path, [5])
    assert steps == [0, 5, 10] and by_step[5].shape == (2, 2)


def test_blank_value_of_a_one_column_file_is_refused(tmp_path):
    # the parser skips the blank line "" that the value row of line 3 is
    path = tmp_path / "e.csv"
    path.write_text("traj_id,step,theta_0\n0,0,1.0\n0,1,\n1,0,2.0\n1,1,3.0\n")
    with pytest.raises(ValueError) as err:
        read_ensemble_csv(path)
    assert str(err.value) == f"{path}, line 3, field 3: '' is not a number"


def test_rejects_non_ensemble_header(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError, match="not an ensemble CSV"):
        read_ensemble_csv(path)
