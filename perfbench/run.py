"""qsdde benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload rate_sweep --seed 2024 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
With ``--trace 0`` this prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 4  # fresh processes that only set up, besides the measuring one
DEADLINE_S = 170.0  # a run must end within 180 s
# one BLAS thread per process: with variance-study's two arm threads the
# compute threads stay at or below nproc
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          capture_output=True, text=True, timeout=timeout,
                          env={**os.environ, **WORKER_ENV}, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one qsdde benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's outputs as the reference (default seed only)")
    args = ap.parse_args(argv)
    t_begin = time.monotonic()

    if not (ROOT / "src" / "qsdde" / "__init__.py").is_file():
        return _fail(f"no qsdde package under {ROOT / 'src'}; run from a full checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        return _fail(f"cannot read BENCHMARK.json: {err}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{run_id}-{os.getpid()}"
    spans = WORK / "results" / f"{run_id}.spans.jsonl"
    threads = min(2, len(os.sched_getaffinity(0)))  # variance-study has two arms
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--threads", str(threads)]
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                setups.append(_worker(common + ["--work", str(work / f"probe{i}"),
                                                "--setup-only"], 60)["setup_s"])
        extra = ["--trace", "--spans", str(spans)] if args.trace else []
        if args.record_reference:
            extra.append("--record-reference")
        res = _worker(common + ["--work", str(work / "run"), "--seconds", str(args.seconds),
                                *extra],
                      max(30.0, DEADLINE_S - (time.monotonic() - t_begin)))
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as err:
        return _fail(f"workload {args.workload} did not complete: {err}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        measured = res["per_layer"]
    else:
        setups.append(res["setup_s"])
        measured = {**res["metrics"], "setup_s": statistics.median(setups),
                    "peak_rss_mb": res["peak_rss_mb"]}
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        return _fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    # a count mismatch means the trace missed a binding or the call structure
    # changed; it is reported loudly but says nothing about the outputs
    self_check = res.get("self_check", [])
    correct = res["failed"] == 0

    env = {**res["environment"], "git_rev": _git_rev(), **WORKER_ENV}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "repeats": res["iterations"], "params": res["params"], "environment": env,
              "setup_samples_s": setups, "walls_s": res["walls_s"],
              "traced_walls_s": res["traced_walls_s"], "correct": correct, "attempted": res["attempted"],
              "failed": res["failed"], "failures": res["failures"],
              "self_check": self_check, "metrics": metrics}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                     encoding="utf-8")

    print(f"perfbench {args.workload}: seed {args.seed}, trace {args.trace}, "
          f"{res['iterations']} iterations, closed loop, 1 client")
    print(f"environment: {json.dumps(env)}")
    print(f"parameters: {json.dumps(res['params'])}")
    for fail in res["failures"]:
        print(f"FAILED {fail}")
    for err in self_check:
        print(f"SELF-CHECK FAILED {err}")
        print(f"perfbench: SELF-CHECK FAILED {err}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'error_rate':<40} {res['failed'] / res['attempted']:>16.6g} "
          f"({res['failed']} failed of {res['attempted']} invocations)")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
