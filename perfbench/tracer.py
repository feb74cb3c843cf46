"""Outside-in span recorder for the qsdde modules.

The recorder times calls into each module's public functions without
editing the package: it replaces every module-level binding of a traced
function with a timing wrapper (``from .qnet import q_values_batch`` leaves
a binding in ``chain``, ``sdde`` and ``coeffs`` as well as in ``qnet``, and
each is replaced), wraps ``TrajectoryStreams`` methods on the class, and puts
every original back on ``uninstall``.

Each thread keeps its own parent stack, so spans opened on the
``--threads`` pool attribute to that pool thread.  A span's self time is its
duration minus the time its child spans on the same thread cover.  Spans are
kept in memory; ``layer_metrics`` reduces the spans of one request to the
per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _qvalues_name(args, kwargs):
    return "qnet.jacobian" if _arg(args, kwargs, 3, "with_grad", False) else "qnet.forward"


def _qvalues_attrs(args, kwargs, result):
    spec, thetas, x = args[0], args[1], args[2]
    n = thetas.shape[0] if thetas.ndim == 2 else 1
    heads = n * x.shape[-2]
    if _arg(args, kwargs, 3, "with_grad", False):
        return {"heads": heads, "bytes_computed": heads * spec.d * 8}
    return {"heads": heads}


def _ghat_attrs(args, kwargs, result):
    return {"bytes_computed": result.size * result.itemsize}


def _run_dqn_attrs(args, kwargs, result):
    cfg = _arg(args, kwargs, 4, "cfg")
    return {"traj_steps": result.n_traj * cfg.T}


def _run_sdde_attrs(args, kwargs, result):
    cfg = _arg(args, kwargs, 4, "cfg")
    return {"traj_substeps": result.n_traj * cfg.T * cfg.rho}


def _w1_attrs(args, kwargs, result):
    return {"readings": 1, "reliable": int(result.reliable())}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _draws(args, kwargs, result):
    return {"draws": args[0].n * _arg(args, kwargs, 1, "count")}


def _study_attrs(args, kwargs, result):
    return {"threads": int(kwargs.get("threads", 1))}


# (module, function, span name or name function, attrs function)
TRACED_FUNCTIONS = (
    ("qnet", "q_values_batch", _qvalues_name, _qvalues_attrs),
    ("coeffs", "lowrank_ghat", "coeffs.lowrank_ghat", _ghat_attrs),
    ("coeffs", "drift_from_stats", "coeffs.drift_from_stats", None),
    ("coeffs", "head_stats", "coeffs.head_stats", None),
    ("coeffs", "estimate_constants", "coeffs.estimate_constants", None),
    ("chain", "run_dqn", "chain.run_dqn", _run_dqn_attrs),
    ("chain", "chain_increment", "chain.chain_increment", None),
    ("sdde", "run_sdde", "sdde.run_sdde", _run_sdde_attrs),
    ("wasserstein", "w1_sliced", "wasserstein.w1_sliced", _w1_attrs),
    ("wasserstein", "w1_assignment", "wasserstein.w1_assignment", _w1_attrs),
    ("manifest", "ensemble_to_csv", "manifest.ensemble_to_csv", _file_bytes),
    ("manifest", "read_ensemble_csv", "manifest.read_ensemble_csv", _file_bytes),
    ("manifest", "write_manifest", "manifest.write_manifest", None),
    ("experiments", "rate_sweep", "experiments.study", _study_attrs),
    ("experiments", "variance_study", "experiments.study", _study_attrs),
    ("config", "load_config", "config.load_config", None),
    ("diagnostics", "assumption_report", "diagnostics.assumption_report", None),
)

# TrajectoryStreams methods, wrapped on the class; args[0] is the instance
TRACED_METHODS = (
    ("__init__", "rng.streams_init", lambda args, kw, res: {"streams": args[0].n}),
    ("normal_block", "rng.normal_block", _draws),
    ("uniform_block", "rng.uniform_block", _draws),
)


class Span:
    __slots__ = ("name", "span_id", "parent_id", "request", "thread", "t0", "t1",
                 "child", "attrs")

    def __init__(self, name, span_id, parent_id, request, thread):
        self.name, self.span_id, self.parent_id = name, span_id, parent_id
        self.request, self.thread = request, thread
        self.t0 = self.t1 = 0.0
        self.child = 0.0
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class SpanRecorder:
    """In-memory spans with one parent stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = None  # identifier shared by the spans of one request
        self._local = threading.local()
        self._ids = itertools.count()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, next(self._ids), stack[-1].span_id if stack else None,
                    self.request, threading.get_ident())
        stack.append(span)
        self.spans.append(span)
        span.t0 = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child += span.duration

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _wrap(self, fn, name, attrs_of):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = rec._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(s)
            if attrs_of is not None:
                s.attrs = attrs_of(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every binding of every traced function and method."""
        if self._restore:
            raise RuntimeError("recorder is already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "qsdde" or k.startswith("qsdde."))]
        for home, fname, name, attrs_of in TRACED_FUNCTIONS:
            orig = getattr(sys.modules[f"qsdde.{home}"], fname)
            wrapper = self._wrap(orig, name, attrs_of)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, orig))
        cls = sys.modules["qsdde.rng"].TrajectoryStreams
        for meth, name, attrs_of in TRACED_METHODS:
            orig = getattr(cls, meth)
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(orig, name, attrs_of))

    def uninstall(self) -> None:
        """Put every original binding back and verify it."""
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        bad = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._restore
               if getattr(o, a) is not orig]
        self._restore.clear()
        if bad:
            raise RuntimeError(f"bindings not restored: {bad}")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Reduce the spans of one request to the per-layer metrics."""
    agg = defaultdict(lambda: defaultdict(float))
    for s in spans:
        a = agg[s.name]
        a["calls"] += 1
        a["self_s"] += s.self_time
        a["total_s"] += s.duration
        for k, v in (s.attrs or {}).items():
            a[k] += v
    studies = [s for s in spans if s.name == "experiments.study"]
    arm_busy = sum((s.duration for s in spans
                    if s.name in ("chain.run_dqn", "sdde.run_sdde")
                    and any(st.t0 <= s.t0 and s.t1 <= st.t1 for st in studies)), 0.0)
    study_capacity = sum(s.attrs["threads"] * s.duration for s in studies)
    g = lambda name, key: agg[name][key] if name in agg else 0.0  # noqa: E731
    w1_readings = g("wasserstein.w1_sliced", "readings") + \
        g("wasserstein.w1_assignment", "readings")
    w1_reliable = g("wasserstein.w1_sliced", "reliable") + \
        g("wasserstein.w1_assignment", "reliable")
    m = {
        "qnet.forward.calls": g("qnet.forward", "calls"),
        "qnet.forward.self_s": g("qnet.forward", "self_s"),
        "qnet.forward.heads": g("qnet.forward", "heads"),
        "qnet.jacobian.calls": g("qnet.jacobian", "calls"),
        "qnet.jacobian.self_s": g("qnet.jacobian", "self_s"),
        "qnet.jacobian.heads": g("qnet.jacobian", "heads"),
        "qnet.jacobian.bytes_computed": g("qnet.jacobian", "bytes_computed"),
        "coeffs.lowrank_ghat.calls": g("coeffs.lowrank_ghat", "calls"),
        "coeffs.lowrank_ghat.self_s": g("coeffs.lowrank_ghat", "self_s"),
        "coeffs.lowrank_ghat.bytes_computed": g("coeffs.lowrank_ghat", "bytes_computed"),
        "coeffs.drift_from_stats.calls": g("coeffs.drift_from_stats", "calls"),
        "coeffs.drift_from_stats.self_s": g("coeffs.drift_from_stats", "self_s"),
        "coeffs.head_stats.self_s": g("coeffs.head_stats", "self_s"),
        "coeffs.estimate_constants.self_s": g("coeffs.estimate_constants", "self_s"),
        "rng.streams_init.calls": g("rng.streams_init", "calls"),
        "rng.streams_init.streams": g("rng.streams_init", "streams"),
        "rng.streams_init.self_s": g("rng.streams_init", "self_s"),
        "rng.normal_block.draws": g("rng.normal_block", "draws"),
        "rng.normal_block.self_s": g("rng.normal_block", "self_s"),
        "rng.uniform_block.draws": g("rng.uniform_block", "draws"),
        "rng.uniform_block.self_s": g("rng.uniform_block", "self_s"),
        "rng.ns_per_normal": 1e9 * _ratio(g("rng.normal_block", "self_s"),
                                          g("rng.normal_block", "draws")),
        "chain.run_dqn.self_s": g("chain.run_dqn", "self_s"),
        "chain.chain_increment.calls": g("chain.chain_increment", "calls"),
        "chain.chain_increment.self_s": g("chain.chain_increment", "self_s"),
        "chain.traj_steps": g("chain.run_dqn", "traj_steps"),
        "chain.ns_per_traj_step": 1e9 * _ratio(g("chain.run_dqn", "total_s"),
                                               g("chain.run_dqn", "traj_steps")),
        "sdde.run_sdde.self_s": g("sdde.run_sdde", "self_s"),
        "sdde.traj_substeps": g("sdde.run_sdde", "traj_substeps"),
        "sdde.ns_per_traj_substep": 1e9 * _ratio(g("sdde.run_sdde", "total_s"),
                                                 g("sdde.run_sdde", "traj_substeps")),
        "wasserstein.w1_sliced.calls": g("wasserstein.w1_sliced", "calls"),
        "wasserstein.w1_sliced.self_s": g("wasserstein.w1_sliced", "self_s"),
        "wasserstein.w1_assignment.calls": g("wasserstein.w1_assignment", "calls"),
        "wasserstein.w1_assignment.self_s": g("wasserstein.w1_assignment", "self_s"),
        "wasserstein.reliable_frac": _ratio(w1_reliable, w1_readings),
        "manifest.ensemble_to_csv.calls": g("manifest.ensemble_to_csv", "calls"),
        "manifest.ensemble_to_csv.self_s": g("manifest.ensemble_to_csv", "self_s"),
        "manifest.ensemble_to_csv.bytes": g("manifest.ensemble_to_csv", "bytes"),
        "manifest.read_ensemble_csv.calls": g("manifest.read_ensemble_csv", "calls"),
        "manifest.read_ensemble_csv.self_s": g("manifest.read_ensemble_csv", "self_s"),
        "manifest.read_ensemble_csv.bytes": g("manifest.read_ensemble_csv", "bytes"),
        "manifest.write_manifest.self_s": g("manifest.write_manifest", "self_s"),
        "experiments.study.self_s": g("experiments.study", "self_s"),
        "experiments.arm_busy_s": arm_busy,
        "experiments.parallel_eff": _ratio(arm_busy, study_capacity),
        "config.load_config.self_s": g("config.load_config", "self_s"),
        "diagnostics.assumption_report.self_s": g("diagnostics.assumption_report", "self_s"),
        "cli.self_s": g("cli", "self_s"),
    }
    return m
