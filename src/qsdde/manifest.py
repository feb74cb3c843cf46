"""Run manifests and atomic output persistence.

Replaying (config, master seed) reproduces all outputs byte-identically on
the same platform, so a manifest is a complete re-run recipe.  Outputs are
written temp-then-rename so a failed run never leaves partial files.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_CHUNK_ROWS = 1024  # ensemble CSV rows formatted per write


def config_hash(cfg_dict: dict) -> str:
    text = json.dumps(cfg_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def json_text(obj, sort_keys: bool = False) -> str:
    """obj as indented strict JSON plus a newline: a non-finite float is null."""
    plain = json.loads(json.dumps(obj), parse_constant=lambda token: None)
    return json.dumps(plain, indent=2, sort_keys=sort_keys, allow_nan=False) + "\n"


@contextmanager
def atomic_writer(path: Path):
    """A text file at path's temp sibling, renamed over path on success, removed on error.

    An ``OSError`` names path, not its temp sibling."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as err:
        tmp.unlink(missing_ok=True)
        if isinstance(err, OSError):
            raise OSError(err.errno, err.strerror, str(path)) from err
        raise


def atomic_write_text(path: Path, text: str) -> None:
    with atomic_writer(path) as fh:
        fh.write(text)


def write_manifest(out_dir: Path, subcommand: str, cfg_dict: dict, seed: int,
                   outputs: list[str], gate: dict) -> Path:
    """Write manifest.json (before outputs), with the run's step-size gate
    record, and return its path."""
    from . import __version__
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "subcommand": subcommand,
        "config": cfg_dict,
        "config_hash": config_hash(cfg_dict),
        "master_seed": seed,
        "code_version": __version__,
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "outputs": outputs,
        "gate": gate,
    }
    path = out_dir / "manifest.json"
    atomic_write_text(path, json_text(manifest, sort_keys=True))
    return path


def ensemble_to_csv(path: Path, ensemble) -> None:
    """One row per trajectory per checkpoint: traj_id, step, theta_0..theta_{d-1}.

    Rows are trajectory-major (every checkpoint of trajectory 0, then of 1, ...), written
    in bounded memory, _CHUNK_ROWS at a time, and each value is Python's shortest round-trip
    ``repr`` of the float64, so ``read_ensemble_csv`` gives back the same bits.  A checkpoint
    at which every trajectory holds the same bits (a shared start) is formatted once.
    """
    n, C, d = ensemble.samples.shape
    steps = ensemble.checkpoints
    samples = np.asarray(ensemble.samples, dtype=np.float64)
    bits = samples.view(np.uint64)  # bitwise, so that 0.0 and -0.0 stay distinct
    shared = [",".join(map(repr, samples[0, c].tolist()))
              if n and (bits[:, c] == bits[0, c]).all() else None for c in range(C)]
    flat = samples.reshape(n * C, d)
    with atomic_writer(path) as fh:
        fh.write("traj_id,step," + ",".join(f"theta_{i}" for i in range(d)) + "\n")
        for r0 in range(0, n * C, _CHUNK_ROWS):
            fh.write("".join(f"{r // C},{steps[r % C]},"
                             + (shared[r % C] or ",".join(map(repr, row))) + "\n"
                             for r, row in enumerate(flat[r0:r0 + _CHUNK_ROWS].tolist(), r0)))


def read_ensemble_csv(path: Path, checkpoints=None) -> tuple[list[int], dict[int, np.ndarray]]:
    """Returns (every step present, {step: (n_traj, d) array}) for the requested steps.

    ``checkpoints=None`` requests every step; a requested step absent from the file is
    absent from the dict.  The file is read line by line, in memory bounded by the requested
    rows, and its whole structure is checked: the header, the field count of every row
    against the header width, an integer ``step`` in every row and the same number of rows
    at every step.  At a requested step ``traj_id`` must be an integer that no other row of
    the step repeats.  Only the rows of requested steps are parsed as floats, so a
    non-numeric value at an unrequested step is not detected; a non-finite value (nan, inf)
    at a requested step is refused.  Malformed input raises ``ValueError`` naming the file
    and the line, and for a bad value its field.
    """
    want = None if checkpoints is None else {int(c) for c in checkpoints}
    counts: dict[int, int] = {}  # rows per step
    ends: dict[int, int] = {}  # the last line of each step
    rows: dict[int, list[str]] = {}
    line_nos: dict[int, dict[int, int]] = {}  # requested step -> traj_id -> its line
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["traj_id", "step"] or len(header) < 3:
            raise ValueError(f"{path} is not an ensemble CSV")
        commas = len(header) - 1
        for no, line in enumerate(fh, start=2):
            if line.count(",") != commas:
                if not line.strip():
                    continue
                raise ValueError(f"{path}, line {no}: {line.count(',') + 1} fields, "
                                 f"the header has {len(header)}")
            traj_field, step_field, values = line.rstrip("\n").split(",", 2)
            try:
                step = int(step_field)
            except ValueError:
                raise ValueError(f"{path}, line {no}: step {step_field!r} "
                                 "is not an integer") from None
            counts[step] = counts.get(step, 0) + 1
            ends[step] = no
            if want is None or step in want:
                try:
                    traj = int(traj_field)
                except ValueError:
                    raise ValueError(f"{path}, line {no}: traj_id {traj_field!r} "
                                     "is not an integer") from None
                first = line_nos.setdefault(step, {}).setdefault(traj, no)
                if first != no:
                    raise ValueError(f"{path}, line {no}: trajectory {traj} appears twice "
                                     f"at step {step}, first on line {first}")
                rows.setdefault(step, []).append(values)
    step0, n0 = next(iter(counts.items()), (None, 0))
    for step, n in counts.items():
        if n != n0:
            raise ValueError(f"{path}, line {ends[step]}: step {step} ends with {n} rows, "
                             f"step {step0} has {n0}")
    out = {}
    for step in sorted(rows):
        try:
            out[step] = _parse(rows[step])
        except ValueError as err:
            _refuse_bad_value(path, rows[step], list(line_nos[step].values()))
            raise ValueError(f"{path}, step {step}: {err}") from None
        # a blank value of a one-column file is a blank line, which the parser skips
        if len(out[step]) != len(rows[step]) or not np.isfinite(out[step]).all():
            _refuse_bad_value(path, rows[step], list(line_nos[step].values()))
    return sorted(counts), out


def _parse(rows: list[str]) -> np.ndarray:
    """Comma-separated value rows as a float64 array, one row per non-blank row."""
    return np.loadtxt(rows, delimiter=",", ndmin=2, comments=None, dtype=np.float64)


def _refuse_bad_value(path: Path, rows: list[str], line_nos: list[int]) -> None:
    """A ValueError naming the first value in rows that ``_parse`` does not read as
    a finite number: Python's float accepts 1_0 and non-ASCII digits, the parser not."""
    for values, no in zip(rows, line_nos):
        for col, value in enumerate(values.split(","), start=3):
            try:
                parsed = _parse([value]) if value.strip() else None  # blank: no row
            except ValueError:
                parsed = None
            if parsed is None:
                raise ValueError(f"{path}, line {no}, field {col}: "
                                 f"{value!r} is not a number")
            if not np.isfinite(parsed).all():
                raise ValueError(f"{path}, line {no}, field {col}: {value!r} is not finite")


def rows_to_csv(path: Path, rows: list[dict], columns: list[str]) -> None:
    def fmt(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return "1" if v else "0"
        if isinstance(v, float):
            return repr(v)
        return str(v)
    lines = [",".join(columns)]
    lines += [",".join(fmt(row.get(c)) for c in columns) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")
