"""Numerical laboratory for noisy deep-Q parameter chains and their
stochastic delay-diffusion approximations."""

__version__ = "0.1.0"

from .mdp import (IdealizedReplay, MdpSpec, OnlineBufferReplay, load_mdp,
                  sample_pairs, uniform_q, validate_mdp)
from .qnet import QNetSpec, init_theta
from .coeffs import estimate_constants, exact_drift_b, sigma_matrix, step_size_gate
from .chain import AlgoConfig, TrajectoryEnsemble, run_algorithm1, run_dqn
from .sdde import run_sdde
from .wasserstein import W1Estimate, w1_assignment, w1_sliced
from .diagnostics import Quadratic, assumption_report, generator_X, generator_gap
from .experiments import (MomentSuiteSpec, RateSweepSpec, VarianceStudySpec,
                          moment_suite, rate_sweep, variance_study, w1_bound_shape)
from .config import ExperimentConfig, load_config

__all__ = [
    "AlgoConfig", "ExperimentConfig", "IdealizedReplay", "MdpSpec", "MomentSuiteSpec",
    "OnlineBufferReplay", "QNetSpec", "Quadratic", "RateSweepSpec", "TrajectoryEnsemble",
    "VarianceStudySpec", "W1Estimate", "assumption_report", "estimate_constants",
    "exact_drift_b", "generator_X", "generator_gap", "init_theta", "load_config", "load_mdp",
    "moment_suite", "rate_sweep", "run_algorithm1", "run_dqn", "run_sdde",
    "sample_pairs", "sigma_matrix", "step_size_gate", "uniform_q", "validate_mdp",
    "variance_study", "w1_assignment", "w1_bound_shape", "w1_sliced",
]
