from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import qsdde
from qsdde.qnet import QNetSpec, pair_heads, q_values_batch

ROOT = Path(__file__).resolve().parents[1]


def _tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_public_name_resolves():
    assert len(qsdde.__all__) == len(set(qsdde.__all__))
    missing = [name for name in qsdde.__all__ if not hasattr(qsdde, name)]
    assert missing == []


def test_public_api_is_the_batched_entry_points():
    assert len(qsdde.__all__) == 34
    assert sorted(qsdde.__all__) == sorted([
        "AlgoConfig", "ExperimentConfig",
        "IdealizedReplay", "MdpSpec", "MomentSuiteSpec", "OnlineBufferReplay", "QNetSpec",
        "Quadratic", "RateSweepSpec", "TrajectoryEnsemble", "VarianceStudySpec",
        "W1Estimate", "assumption_report",
        "estimate_constants", "exact_drift_b", "generator_X", "generator_gap",
        "init_theta", "load_config", "load_mdp", "moment_suite",
        "rate_sweep", "run_algorithm1", "run_dqn", "run_sdde", "sample_pairs",
        "sigma_matrix", "step_size_gate", "uniform_q", "validate_mdp", "variance_study",
        "w1_assignment", "w1_bound_shape", "w1_sliced",
    ])


def _unused_imports(path: Path) -> list[str]:
    """Names that an import statement in path binds and no Name node reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(bound.items(), key=lambda kv: kv[1]) if name not in read]


def test_no_unused_imports():
    # __init__.py imports to re-export, so its names are read through __all__
    files = [p for p in sorted((ROOT / "src" / "qsdde").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py"))
    assert [u for p in files for u in _unused_imports(p)] == []


def test_cli_import_loads_every_traced_module_and_no_scipy():
    # scipy is loaded at the first assignment solve, not at import, and then
    # only its assignment extension: scipy.optimize never is; the benchmark
    # tracer looks each traced function up in sys.modules
    tracer = _tracer()
    homes = {f"qsdde.{home}" for home, *_ in tracer.TRACED_FUNCTIONS} | {"qsdde.rng"}
    assert len(homes) == 10
    code = ("import json, sys, numpy as np, qsdde.cli\n"
            "def mods(): return sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('qsdde', 'scipy'))\n"
            "at_import = mods()\n"
            "from qsdde.wasserstein import w1_assignment\n"
            "x = np.arange(12.0).reshape(6, 2)\n"
            "est = w1_assignment(x, x[::-1] + 1.0)\n"
            "print(json.dumps([at_import, mods(), est.value]))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
    at_import, after_solve, value = json.loads(res.stdout)
    assert not any(m.split(".")[0] == "scipy" for m in at_import)
    assert homes <= set(at_import)
    assert value == np.sqrt(2.0)  # every point moves by (1, 1)
    assert "scipy" in after_solve
    assert not any(m.startswith("scipy.optimize") for m in after_solve), after_solve


def test_tracer_counts_heads_of_index_rows():
    # the tracer reads heads.shape[-2] as the head count of a
    # q_values_batch call, shared (K, 2) or per trajectory (N, K, 2)
    tracer = _tracer()
    net = QNetSpec(n_states=3, n_actions=2, hidden=(4,), bound=7.0)
    n, K = 5, 6
    thetas = np.random.default_rng(0).standard_normal((n, net.d))
    for heads in (pair_heads(net), np.broadcast_to(pair_heads(net), (n, K, 2))):
        args = (net, thetas, heads)
        assert tracer._qvalues_attrs(args, {}, q_values_batch(*args)) == {"heads": n * K}
        args = (net, thetas, heads, True)
        assert tracer._qvalues_attrs(args, {}, q_values_batch(*args)) == \
            {"heads": n * K, "bytes_computed": n * K * net.d * 8}


def test_every_traced_binding_resolves_and_is_restored():
    # the benchmark tracer looks each traced function up by name and wraps every
    # binding of it, so renaming or deleting one fails here, not only in a traced run
    importlib.import_module("qsdde.cli")
    recorder = _tracer().SpanRecorder()
    recorder.install()
    try:
        wrapped = list(recorder._restore)
        assert len(wrapped) == 44
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in wrapped)
    finally:
        recorder.uninstall()
    assert all(getattr(owner, attr) is orig for owner, attr, orig in wrapped)
