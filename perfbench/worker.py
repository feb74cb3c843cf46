"""Run one workload in a fresh process and print a JSON summary.

``run.py`` starts this script; it is not meant to be run by hand.  Set-up
is timed from the first line of this file: importing ``qsdde.cli`` from the
checkout's ``src`` plus generating the workload's configs.  Then the
workload's CLI invocations run in-process and closed-loop (each starts when
the previous one has returned) for ``--seconds``.  With ``--trace`` the
loop alternates untraced and traced iterations; the traced ones feed the
per-layer metrics and the exact-count self-check.  The summary is the last
line of standard output; the CLI's own output is captured.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracer import SpanRecorder, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
MAX_REPORTED_FAILURES = 5


def _import_cli():
    src = ROOT / "src"
    if not (src / "qsdde" / "__init__.py").is_file():
        raise SystemExit(f"no qsdde package under {src}")
    sys.path.insert(0, str(src))
    import qsdde
    from qsdde import cli
    if Path(qsdde.__file__).resolve().parent != (src / "qsdde").resolve():
        raise SystemExit(f"qsdde was imported from {qsdde.__file__}, not from {src}")
    return cli


def _environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "platform": platform.platform()}


def _invoke(cli, argv, rec):
    """Call the CLI entry point once; returns (seconds, error or None)."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    err = None
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if rec is None:
                cli.main(argv, prog_name="qsdde", standalone_mode=False)
            else:
                with rec.span("cli"):
                    cli.main(argv, prog_name="qsdde", standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            err = f"exit status {exc.code}: {sink.getvalue()[-500:]}"
    except Exception:  # the program under test failed; count it and go on
        err = traceback.format_exc(limit=-3)
    return time.perf_counter() - t0, err


class Runner:
    """Iterations of one workload, their checks and their failures."""

    def __init__(self, cli, plan, work: Path, reference):
        self.cli, self.plan, self.work = cli, plan, work
        self.reference = reference
        self.first_digests: dict = {}
        self.headlines: dict = {}
        self.failures: list[str] = []
        self.attempted = self.failed = 0
        self.count = 0

    def iteration(self, rec=None) -> dict:
        """Run every invocation of one iteration back to back, then check them."""
        it_dir = self.work / f"it{self.count}"
        self.count += 1
        it_dir.mkdir(parents=True)
        ops = self.plan.ops(it_dir)
        errors = []
        t0 = time.perf_counter()
        for op in ops:
            errors.append(_invoke(self.cli, op.argv, rec)[1])
        wall = time.perf_counter() - t0
        csv_bytes = 0
        for op, err in zip(ops, errors):
            if err is None:
                err = self._check(op)
            csv_bytes += sum(p.stat().st_size for p in op.csv_written + op.csv_read
                             if p.is_file())
            self.attempted += 1
            if err is not None:
                self.failed += 1
                if len(self.failures) < MAX_REPORTED_FAILURES:
                    self.failures.append(f"{op.key}: {err}")
        shutil.rmtree(it_dir)
        return {"wall_s": wall, "traj_steps_per_s": self.plan.traj_steps / wall,
                "csv_mb_per_s": csv_bytes / 1e6 / wall}

    def _check(self, op):
        """Check an invocation's outputs in full the first time, then by identity."""
        try:
            digests = [workloads.digest(p) for p in op.repeat_files]
            if op.key in self.first_digests:
                if digests != self.first_digests[op.key]:
                    raise workloads.CheckError("outputs differ from the run's first iteration")
                return None
            headline = json.loads(json.dumps(op.check()))
            if self.reference is not None:
                workloads.compare(headline, self.reference[op.key], op.key)
            self.first_digests[op.key] = digests
            self.headlines[op.key] = headline
        except workloads.CheckError as exc:
            return f"check failed: {exc}"
        return None


COUNT_SUFFIXES = ("calls", "heads", "bytes_computed", "streams", "draws",
                  "traj_steps", "traj_substeps")


def _self_check(expected: dict, layers: list[dict]) -> list[str]:
    """Every traced count equals its closed form (0 where none is given)."""
    errors = [f"{k}: not traced" for k in expected if k not in layers[0]]
    for got in layers:
        errors += [f"{k}: traced {v:.0f}, expected {expected.get(k, 0)}"
                   for k, v in got.items()
                   if k.rsplit(".", 1)[-1] in COUNT_SUFFIXES and v != expected.get(k, 0)]
    return errors


def _median_metrics(samples: list[dict]) -> dict:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", type=Path, default=None, help="JSON-lines span dump")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    cli = _import_cli()
    plan = workloads.build(args.workload, args.seed, args.work / "configs", args.threads)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reference = None if args.record_reference else workloads.load_reference(plan)
    runner = Runner(cli, plan, args.work, reference)
    timed, traced, layers = [], [], []
    rec = SpanRecorder() if args.trace else None
    start = time.perf_counter()
    if rec is not None:
        # a process's first iteration also pays for heap growth; keep it out
        # of the traced/untraced comparison
        runner.iteration()
    while True:
        timed.append(runner.iteration())
        if rec is not None:
            rec.request = runner.count
            rec.install()
            try:
                traced.append(runner.iteration(rec))
            finally:
                rec.uninstall()
            layers.append(layer_metrics([s for s in rec.spans if s.request == rec.request]))
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(timed)) > args.seconds:
            break

    if args.record_reference:
        if runner.failed:
            raise SystemExit(f"not recording a reference from failing runs: {runner.failures}")
        workloads.record_reference(plan, runner.headlines)

    result = {"setup_s": setup_s, "attempted": runner.attempted, "failed": runner.failed,
              "failures": runner.failures, "iterations": runner.count,
              "walls_s": [t["wall_s"] for t in timed],
              "traced_walls_s": [t["wall_s"] for t in traced],
              "params": plan.params, "environment": _environment(),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "metrics": _median_metrics(timed)}
    if rec is not None:
        per_layer = _median_metrics(layers)
        per_layer["trace_overhead"] = (statistics.median(t["wall_s"] for t in traced)
                                       / result["metrics"]["wall_s"] - 1.0)
        result["per_layer"] = per_layer
        result["self_check"] = _self_check(plan.expected, layers)
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans, "w", encoding="utf-8") as fh:
                for s in rec.spans:
                    fh.write(json.dumps({"name": s.name, "id": s.span_id,
                                         "parent": s.parent_id, "request": s.request,
                                         "thread": s.thread, "t0": s.t0, "t1": s.t1,
                                         "self_s": s.self_time, **(s.attrs or {})}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
