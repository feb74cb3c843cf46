from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import qsdde

ROOT = Path(__file__).resolve().parents[1]


def test_every_public_name_resolves():
    assert len(qsdde.__all__) == len(set(qsdde.__all__))
    missing = [name for name in qsdde.__all__ if not hasattr(qsdde, name)]
    assert missing == []


def test_public_api_is_the_batched_entry_points():
    assert sorted(qsdde.__all__) == sorted([
        "AlgoConfig", "AssumptionEstimates", "CoefficientSet", "ExperimentConfig",
        "IdealizedReplay", "MdpSpec", "OnlineBufferReplay", "QNetSpec", "Quadratic",
        "SddeConfig", "TrajectoryEnsemble", "W1Estimate", "assumption_report",
        "estimate_constants", "exact_drift_b", "generator_X", "generator_gap",
        "generator_theta", "init_theta", "load_config", "load_mdp",
        "moment_check_X", "moment_check_theta", "moment_suite", "rate_sweep",
        "run_algorithm1", "run_dqn", "run_sdde", "sample_pairs", "sigma_matrix",
        "step_size_gate", "uniform_q", "validate_mdp", "variance_study",
        "w1_assignment", "w1_bound_shape", "w1_exact_1d", "w1_sliced",
    ])


def test_cli_import_loads_every_traced_module_and_no_scipy():
    # scipy.optimize is loaded at the first assignment solve, not at import;
    # the benchmark tracer looks each traced function up in sys.modules
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    homes = {f"qsdde.{home}" for home, *_ in tracer.TRACED_FUNCTIONS} | {"qsdde.rng"}
    assert len(homes) == 10
    code = ("import json, sys, qsdde.cli; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('qsdde', 'scipy'))))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
    loaded = set(json.loads(res.stdout))
    assert not any(m.split(".")[0] == "scipy" for m in loaded)
    assert homes <= loaded
