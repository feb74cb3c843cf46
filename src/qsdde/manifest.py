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
from pathlib import Path

import numpy as np


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg_dict: dict) -> str:
    return hashlib.sha256(canonical_json(cfg_dict).encode("utf-8")).hexdigest()


def atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_manifest(out_dir: Path, subcommand: str, cfg_dict: dict, seed: int,
                   outputs: list[str], assumption_snapshot: dict | None = None) -> Path:
    """Write manifest.json (before outputs) and return its path."""
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
        "assumption_report": assumption_snapshot,
    }
    path = out_dir / "manifest.json"
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def ensemble_to_csv(path: Path, ensemble) -> None:
    """One row per trajectory per checkpoint: traj_id, step, theta_0..theta_{d-1}.

    Rows are trajectory-major (every checkpoint of trajectory 0, then of 1, ...)
    and each value is Python's shortest round-trip ``repr`` of the float64, so
    ``read_ensemble_csv`` gives back the same bits.
    """
    n, C, d = ensemble.samples.shape
    steps = ensemble.checkpoints
    rows = np.asarray(ensemble.samples, dtype=np.float64).reshape(n * C, d).tolist()
    lines = ["traj_id,step," + ",".join(f"theta_{i}" for i in range(d))]
    lines += [f"{r // C},{steps[r % C]}," + ",".join(map(repr, row))
              for r, row in enumerate(rows)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_ensemble_csv(path: Path, checkpoints=None) -> tuple[list[int], dict[int, np.ndarray]]:
    """Returns (every step present, {step: (n_traj, d) array}) for the requested steps.

    ``checkpoints=None`` requests every step; a requested step absent from the
    file is absent from the dict.  The structure of the whole file is checked:
    the header, the field count of every row against the header width and an
    integer ``step`` in every row.  Only the rows of requested steps are parsed
    as floats, so a non-numeric value at an unrequested step is not detected.
    Malformed input raises ``ValueError`` naming the file and the line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    header = lines[0].strip().split(",")
    if header[:2] != ["traj_id", "step"] or len(header) < 3:
        raise ValueError(f"{path} is not an ensemble CSV")
    commas = len(header) - 1
    want = None if checkpoints is None else {int(c) for c in checkpoints}
    steps: set[int] = set()
    rows: dict[int, list[str]] = {}
    line_nos: dict[int, list[int]] = {}
    for no, line in enumerate(lines[1:], start=2):
        if line.count(",") != commas:
            if not line.strip():
                continue
            raise ValueError(f"{path}, line {no}: {line.count(',') + 1} fields, "
                             f"the header has {len(header)}")
        _, step_field, values = line.split(",", 2)
        try:
            step = int(step_field)
        except ValueError:
            raise ValueError(f"{path}, line {no}: step {step_field!r} "
                             "is not an integer") from None
        steps.add(step)
        if want is None or step in want:
            rows.setdefault(step, []).append(values)
            line_nos.setdefault(step, []).append(no)
    out = {}
    for step in sorted(rows):
        try:
            out[step] = np.loadtxt(rows[step], delimiter=",", ndmin=2, comments=None,
                                   dtype=np.float64)
        except ValueError as err:
            for values, no in zip(rows[step], line_nos[step]):
                for col, value in enumerate(values.split(","), start=3):
                    try:
                        float(value)
                    except ValueError:
                        raise ValueError(f"{path}, line {no}, field {col}: "
                                         f"{value!r} is not a number") from None
            raise ValueError(f"{path}, step {step}: {err}") from None
    return sorted(steps), out


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
