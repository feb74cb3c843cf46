"""The benchmark's workloads: generated configs, CLI invocations, closed-form
work counts and output checks.

Every workload starts from the desk-scale config pinned next to this file.
The benchmark's ``--seed`` becomes the master seed of the configs it
generates, and the program sees only those generated files.

- ``rate_sweep``: ``rate-sweep --force --threads 1`` over the full four-point
  eta grid at a reduced ``n_traj``.  The headline study, the tier-1 long
  pole, and the plain single-threaded baseline; about 3/4 of its time is
  the SDDE substep.
- ``variance_study``: ``variance-study --threads <nproc>`` at its configured
  scale.  The only workload with concurrent arms; its m = 1 arm refreshes
  the delay max-Q table five times as often as m = 5.
- ``ensemble_io``: two ``simulate-dqn`` runs that differ only in master seed,
  then ``estimate-w1 --method both`` at each non-zero checkpoint.  No SDDE:
  SDDE-only changes must leave it unchanged; its time is CSV I/O, stream
  fill and W1.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
BASE_CONFIG = HERE / "desk_scale.json"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 2024  # master seed of the pinned config; the reference is recorded at it
RATE_SWEEP_N_TRAJ = 128  # 4096 in the pinned config; one sweep takes about 4 s on 2 cores
ENSEMBLE = {"n_traj": 4096, "eta": 0.0125, "T": 160, "checkpoints": [0, 40, 80, 120, 160]}
GATE_PAIRS = 200  # n_pairs of every estimate_constants call the CLI makes
REL_TOL, ABS_TOL = 1e-9, 1e-12  # "agree to rounding" with the reference
NULLABLE = frozenset({"proj_var_theta", "proj_var_X"})  # None without a projection

class CheckError(Exception):
    """An output failed its check."""


@dataclass
class Op:
    """One CLI invocation of an iteration and how to check what it wrote."""

    key: str
    argv: list[str]
    repeat_files: list[Path]  # outputs whose bytes must repeat across iterations
    csv_written: list[Path]
    csv_read: list[Path]
    check: Callable[[], object]  # raises CheckError; returns the headline for the reference


@dataclass
class Plan:
    name: str
    seed: int
    params: dict  # recorded next to the results
    traj_steps: int  # chain steps plus SDDE substeps over trajectories, per iteration
    expected: dict  # exact per-layer counts of one iteration
    ops: Callable[[Path], list[Op]]  # the invocations of one iteration, writing under a dir


# ---------------------------------------------------------------- checks

def _numbers(obj, path=""):
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return
    if isinstance(obj, (int, float)):
        yield path, float(obj)
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _numbers(v, f"{path}.{k}" if path else str(k))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _numbers(v, f"{path}[{i}]")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def _read_json(path: Path, allow_nan=lambda doc: ()):
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise CheckError(f"{path.name}: {err}") from err
    allowed = set(allow_nan(doc))
    bad = [p for p, v in _numbers(doc) if not math.isfinite(v) and p not in allowed]
    _require(not bad, f"{path.name}: non-finite numbers at {bad[:5]}")
    return doc


def _read_table(path: Path) -> tuple[list[str], list[list]]:
    """A small CSV table: every cell a finite number, or empty in a nullable column."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as err:
        raise CheckError(f"{path.name}: {err}") from err
    _require(len(lines) >= 2, f"{path.name}: no rows")
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        _require(len(cells) == len(header), f"{path.name}: ragged row {ln!r}")
        row = []
        for col, cell in zip(header, cells):
            if cell == "" and col in NULLABLE:
                row.append(None)
                continue
            try:
                v = float(cell)
            except ValueError as err:
                raise CheckError(f"{path.name}: {col} = {cell!r}") from err
            _require(math.isfinite(v), f"{path.name}: {col} = {cell}")
            row.append(v)
        rows.append(row)
    return header, rows


def _read_ensemble(path: Path, n_traj: int, checkpoints: list[int], d: int) -> np.ndarray:
    """Parse an ensemble CSV independently of the package; (n_traj, C, d)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as err:
        raise CheckError(f"{path.name}: {err}") from err
    C = len(checkpoints)
    _require(header == ["traj_id", "step"] + [f"theta_{i}" for i in range(d)],
             f"{path.name}: bad header")
    _require(data.shape == (n_traj * C, 2 + d), f"{path.name}: shape {data.shape}")
    _require(np.array_equal(data[:, 0], np.repeat(np.arange(n_traj), C)) and
             np.array_equal(data[:, 1], np.tile(checkpoints, n_traj)),
             f"{path.name}: traj_id/step columns out of order")
    _require(bool(np.isfinite(data).all()), f"{path.name}: non-finite parameters")
    return data[:, 2:].reshape(n_traj, C, d)


def _check_manifest(out: Path, subcommand: str, seed: int, allow_nan=None) -> None:
    """manifest.json parses, and every output it names exists, parses and is finite."""
    man = _read_json(out / "manifest.json")
    _require(man.get("subcommand") == subcommand, f"manifest subcommand {man.get('subcommand')}")
    _require(man.get("master_seed") == seed, f"manifest seed {man.get('master_seed')}")
    for name in man.get("outputs", []):
        path = out / name
        _require(path.is_file(), f"{subcommand}: output {name} missing")
        if name.endswith(".json"):
            _read_json(path, (allow_nan or {}).get(name, lambda doc: ()))
        elif name.endswith(".csv") and name not in ("chain.csv", "sdde.csv"):
            _read_table(path)  # ensemble CSVs go through _read_ensemble


def _no_reliable_row(doc) -> tuple[str, ...]:
    # the fitted bound constants are NaN by definition when no row is reliable
    if any(r["reliable"] for r in doc["rows"]):
        return ()
    return ("bound_c_fit", "bound_c_envelope")


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def compare(got, want, where: str = "") -> None:
    """Raise CheckError unless got agrees with want to rounding."""
    if isinstance(want, dict):
        _require(isinstance(got, dict) and set(got) == set(want), f"{where}: keys differ")
        for k in want:
            compare(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        _require(isinstance(got, list) and len(got) == len(want), f"{where}: length differs")
        for i, (g, w) in enumerate(zip(got, want)):
            compare(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and not isinstance(want, bool):
        ok = isinstance(got, (int, float)) and (
            (math.isnan(want) and math.isnan(got))
            or abs(got - want) <= ABS_TOL + REL_TOL * abs(want))
        _require(ok, f"{where}: {got!r} differs from reference {want!r}")
    else:
        _require(got == want, f"{where}: {got!r} differs from reference {want!r}")


# ---------------------------------------------------------------- counts

def _dims(cfg: dict) -> tuple[int, int, int]:
    """(d, K, A) of the configured network: parameters, heads, actions."""
    S, A = len(cfg["mdp"]["R"]), len(cfg["mdp"]["R"][0])
    dims = [S + A, *cfg["net"]["hidden"], 1]
    d = sum(dims[i + 1] * dims[i] + dims[i + 1] for i in range(len(dims) - 1))
    return d, S * A, A


def _count_estimate_constants(c: Counter, d: int, K: int) -> None:
    # two probe batches of GATE_PAIRS points plus the drift at the origin
    heads = 2 * GATE_PAIRS * K + K
    c["qnet.forward.calls"] += 3
    c["qnet.forward.heads"] += heads
    c["qnet.jacobian.calls"] += 3
    c["qnet.jacobian.heads"] += heads
    c["qnet.jacobian.bytes_computed"] += heads * d * 8
    c["coeffs.drift_from_stats.calls"] += 3


def _count_run_dqn(c: Counter, n: int, T: int, d: int, A: int) -> None:
    c["chain.chain_increment.calls"] += T
    c["chain.traj_steps"] += n * T
    c["qnet.jacobian.calls"] += T
    c["qnet.jacobian.heads"] += n * T
    c["qnet.jacobian.bytes_computed"] += n * T * d * 8
    c["qnet.forward.calls"] += T
    c["qnet.forward.heads"] += n * A * T
    c["rng.streams_init.calls"] += 2
    c["rng.streams_init.streams"] += 2 * n
    c["rng.uniform_block.draws"] += 2 * n * T
    c["rng.normal_block.draws"] += (1 + d) * n * T


def _count_run_sdde(c: Counter, n: int, T: int, rho: int, m: int, d: int, K: int) -> None:
    n_sub = T * rho
    refreshes = -(-n_sub // (m * rho))  # delay max-Q table, once per delay segment
    c["sdde.traj_substeps"] += n * n_sub
    c["coeffs.lowrank_ghat.calls"] += n_sub
    c["coeffs.lowrank_ghat.bytes_computed"] += n_sub * n * d * K * 8
    c["coeffs.drift_from_stats.calls"] += n_sub
    c["qnet.jacobian.calls"] += n_sub
    c["qnet.jacobian.heads"] += n_sub * n * K
    c["qnet.jacobian.bytes_computed"] += n_sub * n * K * d * 8
    c["qnet.forward.calls"] += refreshes
    c["qnet.forward.heads"] += refreshes * n * K
    c["rng.streams_init.calls"] += 1
    c["rng.streams_init.streams"] += n
    c["rng.normal_block.draws"] += (d + K) * n * n_sub


# ---------------------------------------------------------------- workloads

def _base(seed: int) -> dict:
    cfg = json.loads(BASE_CONFIG.read_text(encoding="utf-8"))
    cfg["seed"] = seed
    return cfg


def _write(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
    return path


def rate_sweep(seed: int, cfg_dir: Path, threads: int) -> Plan:
    cfg = _base(seed)
    cfg["rate_sweep"]["n_traj"] = RATE_SWEEP_N_TRAJ
    cfg_path = _write(cfg_dir / "rate_sweep.json", cfg)
    d, K, A = _dims(cfg)
    algo, sweep = cfg["algo"], cfg["rate_sweep"]
    n, rho, m = sweep["n_traj"], algo["rho"], algo["m"]
    etas = sorted(sweep["eta_grid"], reverse=True)
    Ts = [int(round(algo["T"] * algo["eta"] / e)) for e in etas]  # fixed horizon T*eta
    c = Counter()
    for _ in range(2):  # the manifest snapshot and the step-size gate
        _count_estimate_constants(c, d, K)
    for T in Ts:
        _count_run_dqn(c, n, T, d, A)
        _count_run_sdde(c, n, T, rho, m, d, K)
        c["wasserstein.w1_sliced.calls"] += 2  # all coordinates, tracked coordinates
        c["wasserstein.w1_assignment.calls"] += 2
    files = ["rate_sweep.csv", "rate_sweep.json", "plot_data.csv"]

    def check(out: Path):
        _check_manifest(out, "rate-sweep", seed, {"rate_sweep.json": _no_reliable_row})
        doc = json.loads((out / "rate_sweep.json").read_text(encoding="utf-8"))
        rows = doc["rows"]
        _require([r["eta"] for r in rows] == etas, "rate_sweep rows: eta grid")
        _require([r["T"] for r in rows] == Ts, "rate_sweep rows: T per eta")
        for r in rows:
            _require(r["n_traj"] == n and r["m"] == m, "rate_sweep rows: n_traj or m")
            _require(r["w1_sliced"] > 0 and r["w1_assignment"] > 0, "rate_sweep: W1 <= 0")
            _require(r["reliable"] == (r["w1_sliced"] >= 2.0 * r["sliced_baseline"]),
                     "rate_sweep: reliable flag")
        _require(math.isfinite(doc["slope"]), "rate_sweep: slope")
        _, plot = _read_table(out / "plot_data.csv")
        _require(plot == [[r["eta"], r["w1_sliced"], r["sliced_stderr"]] for r in rows],
                 "plot_data.csv disagrees with rate_sweep.json")
        return {"rows": rows, "slope": doc["slope"]}

    def ops(it: Path) -> list[Op]:
        out = it / "rate_sweep"
        return [Op("rate_sweep",
                   ["rate-sweep", "--config", str(cfg_path), "--out", str(out),
                    "--force", "--threads", "1"],
                   [out / f for f in files], [out / f for f in files if f.endswith(".csv")],
                   [], lambda: check(out))]

    params = {"n_traj": n, "T": Ts, "rho": rho, "m": m, "eta": etas, "d": d, "K": K,
              "threads": 1}
    return Plan("rate_sweep", seed, params, n * sum(Ts) * (1 + rho), dict(c), ops)


def variance_study(seed: int, cfg_dir: Path, threads: int) -> Plan:
    cfg = _base(seed)
    cfg_path = _write(cfg_dir / "variance_study.json", cfg)
    d, K, A = _dims(cfg)
    algo, vs = cfg["algo"], cfg["variance_study"]
    n, T, rho = vs["n_traj"], algo["T"], algo["rho"]
    m_values, cks = sorted(vs["m_values"]), sorted(vs["checkpoints"])
    c = Counter()
    _count_estimate_constants(c, d, K)  # the manifest snapshot
    for m in m_values:
        _count_run_dqn(c, n, T, d, A)
        _count_run_sdde(c, n, T, rho, m, d, K)
    files = ["variance_study.csv", "variance_study.json", "plot_data.csv"]

    def check(out: Path):
        _check_manifest(out, "variance-study", seed)
        header, rows = _read_table(out / "variance_study.csv")
        _require([(r[0], r[1]) for r in rows] == [(m, c) for m in m_values for c in cks],
                 "variance_study.csv: (m, checkpoint) rows")
        for r in rows:
            _require(r[3] > 0 and r[4] > 0, "variance_study.csv: trace <= 0")
        doc = json.loads((out / "variance_study.json").read_text(encoding="utf-8"))
        _require(doc["ratios_theta"]["1"] == 1.0, "variance_study: m = 1 ratio")
        return {"header": header, "rows": rows}

    def ops(it: Path) -> list[Op]:
        out = it / "variance_study"
        return [Op("variance_study",
                   ["variance-study", "--config", str(cfg_path), "--out", str(out),
                    "--threads", str(threads)],
                   [out / f for f in files], [out / f for f in files if f.endswith(".csv")],
                   [], lambda: check(out))]

    params = {"n_traj": n, "T": T, "rho": rho, "m": m_values, "eta": algo["eta"],
              "d": d, "K": K, "threads": threads}
    return Plan("variance_study", seed, params, n * T * (1 + rho) * len(m_values),
                dict(c), ops)


def ensemble_io(seed: int, cfg_dir: Path, threads: int) -> Plan:
    seeds = {"a": seed, "b": seed + 1}
    paths = {}
    for tag, s in seeds.items():
        cfg = _base(s)
        cfg["n_traj"] = ENSEMBLE["n_traj"]
        cfg["algo"]["eta"], cfg["algo"]["T"] = ENSEMBLE["eta"], ENSEMBLE["T"]
        cfg["checkpoints"] = ENSEMBLE["checkpoints"]
        paths[tag] = _write(cfg_dir / f"ensemble_{tag}.json", cfg)
    d, K, A = _dims(cfg)
    n, T, cks = ENSEMBLE["n_traj"], ENSEMBLE["T"], ENSEMBLE["checkpoints"]
    late = [ck for ck in cks if ck > 0]
    c = Counter()
    for _ in seeds:
        _count_estimate_constants(c, d, K)
        _count_run_dqn(c, n, T, d, A)
        c["manifest.ensemble_to_csv.calls"] += 1
    c["manifest.read_ensemble_csv.calls"] += 2 * len(late)
    c["wasserstein.w1_sliced.calls"] += len(late)
    c["wasserstein.w1_assignment.calls"] += len(late)

    def check_chain(out: Path, s: int):
        _check_manifest(out, "simulate-dqn", s)
        ens = _read_ensemble(out / "chain.csv", n, cks, d)
        return {str(ck): {"mean": ens[:, j].mean(axis=0).tolist(),
                          "std": ens[:, j].std(axis=0).tolist(),
                          "first": ens[0, j].tolist()}
                for j, ck in enumerate(cks)}

    def check_w1(path: Path):
        doc = _read_json(path)
        _require(set(doc) == {"sliced", "assignment"}, f"{path.name}: methods")
        _require(doc["sliced"]["n_a"] == n and doc["assignment"]["n_a"] == 512,
                 f"{path.name}: sample counts")
        for est in doc.values():
            _require(est["value"] > 0 and est["baseline"] > 0, f"{path.name}: W1 <= 0")
        return doc

    def ops(it: Path) -> list[Op]:
        chains = {tag: it / f"chain_{tag}" for tag in seeds}
        out = [Op(f"chain_{tag}",
                  ["simulate-dqn", "--config", str(paths[tag]), "--out", str(chains[tag])],
                  [chains[tag] / "chain.csv"], [chains[tag] / "chain.csv"], [],
                  lambda o=chains[tag], s=seeds[tag]: check_chain(o, s))
               for tag in seeds]
        for ck in late:
            w1 = it / f"w1_{ck}.json"
            csvs = [chains["a"] / "chain.csv", chains["b"] / "chain.csv"]
            out.append(Op(f"w1_{ck}",
                          ["estimate-w1", "--a", str(csvs[0]), "--b", str(csvs[1]),
                           "--checkpoint", str(ck), "--method", "both",
                           "--seed", str(seed), "--out", str(w1)],
                          [w1], [], csvs, lambda p=w1: check_w1(p)))
        return out

    params = {"n_traj": n, "T": T, "rho": None, "eta": ENSEMBLE["eta"], "checkpoints": cks,
              "d": d, "K": K, "threads": 1, "chain_seeds": list(seeds.values())}
    return Plan("ensemble_io", seed, params, len(seeds) * n * T, dict(c), ops)


BUILDERS = {"rate_sweep": rate_sweep, "variance_study": variance_study,
            "ensemble_io": ensemble_io}
WORKLOADS = tuple(BUILDERS)


def build(name: str, seed: int, cfg_dir: Path, threads: int) -> Plan:
    """Generate the workload's configs under cfg_dir and return its plan."""
    cfg_dir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, cfg_dir, threads)


def _output_params(plan: Plan) -> dict:
    # the arms draw independent streams, so outputs do not depend on --threads
    return {k: v for k, v in plan.params.items() if k != "threads"}


def load_reference(plan: Plan) -> dict | None:
    """The reference outputs of this workload, or None off the default seed."""
    if plan.seed != DEFAULT_SEED:
        return None
    try:
        ref = json.loads(REFERENCE.read_text(encoding="utf-8"))[plan.name]
    except (OSError, ValueError, KeyError) as err:
        raise CheckError(f"no reference recorded for {plan.name}: {err}") from err
    compare(_output_params(plan), ref["params"], f"{plan.name}.params")
    return ref["outputs"]


def record_reference(plan: Plan, headlines: dict) -> None:
    if plan.seed != DEFAULT_SEED:
        raise ValueError(f"the reference is recorded at seed {DEFAULT_SEED}")
    ref = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    ref[plan.name] = {"params": _output_params(plan), "outputs": headlines}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
