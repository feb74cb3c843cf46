"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/spread.py --runs 10 --first-seed 100 --out perfbench/baseline.json

Runs ``run.py`` once per (workload, seed) with tracing off, then once per
workload with tracing on (at the default seed), and writes per metric the
median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread (q3 - q1) / median, next to the environment the runs recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    record = ROOT / ".perfbench_work" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text(encoding="utf-8"))


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for wl in WORKLOADS:
        records = [_run(wl, args.first_seed + i, spec["run_seconds"], 0)
                   for i in range(args.runs)]
        entry = {"seeds": [r["seed"] for r in records],
                 "repeats": [r["repeats"] for r in records],
                 "failed": sum(r["failed"] for r in records),
                 "attempted": sum(r["attempted"] for r in records),
                 "params": records[0]["params"],
                 "end_to_end": {}}
        out["environment"] = records[0]["environment"]
        for name in bounds:
            s = summarise([r["metrics"][name]["value"] for r in records])
            s["unit"] = records[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            flag = "" if name == "setup_s" or s["spread"] < bounds[name] / 3 else \
                "  <- above a third of the bound"
            print(f"{wl:<15} {name:<18} median {s['median']:<12.6g} spread "
                  f"{s['spread']:.3f} (bound {bounds[name]}){flag}", flush=True)
        rec = _run(wl, DEFAULT_SEED, spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in rec["metrics"].items()}
        entry["per_layer_self_check"] = rec["self_check"]
        out["workloads"][wl] = entry
    if args.out is not None:
        args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
