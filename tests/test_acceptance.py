"""Acceptance suite: every criterion at its stated tolerance, one verdict
line per criterion (run with `pytest -s tests/test_acceptance.py` to see the
lines as they print).

The desk-scale study model is fixed here once: a 3-state/2-action MDP with
Gaussian rewards, a one-hidden-layer width-4 network (d = 29), and the
documented master seeds.  Criterion 5 is the long pole (a full rate sweep at
n_traj = 4096); the whole module runs in a few minutes on a desktop CPU.
"""

from __future__ import annotations

import json
import time

import numpy as np
from click.testing import CliRunner

from qsdde.chain import AlgoConfig, run_dqn
from qsdde.cli import main as cli_main
from qsdde.coeffs import exact_drift_b, sigma_matrix
from qsdde.diagnostics import Quadratic, generator_gap
from qsdde.experiments import (MomentSuiteSpec, RateSweepSpec, VarianceStudySpec,
                               moment_suite, rate_sweep, variance_study)
from qsdde.mdp import uniform_q
from qsdde.qnet import QNetSpec, q_values_batch
from qsdde.sdde import run_sdde
from qsdde.wasserstein import w1_assignment, w1_sliced

from conftest import (build_scalar_oracle, chain_variance_ratio, make_mdp,
                      saturated_theta, sdde_variance_ratio)
from oracles import fd_grad, sample_drift_bn
from test_wasserstein import brute_force_w1

# the desk-scale study model shared by the heavy criteria
STUDY_MDP = make_mdp(seed=42, reward_scale=1.75, noise_scale=0.5, gamma=0.875)
STUDY_NET = QNetSpec(n_states=3, n_actions=2, hidden=(4,), bound=7.0)
STUDY_Q = uniform_q(3, 2)
STUDY_THETA0 = 0.4 * np.random.default_rng(1).standard_normal(STUDY_NET.d)


def _verdict(k: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {k:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k}: {detail}"


def test_criterion_1_gradient_correctness():
    # the kernel gradient against central differences of the kernel's values
    # at 100 points: theta ~ N(0, I), then s, then a, from one generator
    t0 = time.time()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        theta = rng.standard_normal(STUDY_NET.d)
        s = int(rng.integers(STUDY_NET.n_states))
        a = int(rng.integers(STUDY_NET.n_actions))
        g = q_values_batch(STUDY_NET, theta[None, :], np.array([[s, a]]),
                           with_grad=True)[1][0, 0]
        g_fd = fd_grad(STUDY_NET, theta, s, a)
        worst = max(worst, float(np.linalg.norm(g_fd - g) / max(np.linalg.norm(g), 1e-12)))
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 5.0
    _verdict(1, ok, f"max relative FD error {worst:.2e} over 100 "
                    f"points in {elapsed:.2f}s (< 1e-6, < 5s)")


def test_criterion_2_diffusion_reconstruction():
    rng = np.random.default_rng(22)
    worst_recon, worst_floor = 0.0, np.inf
    for _ in range(100):
        x = 2.0 * rng.standard_normal(STUDY_NET.d)
        y = 2.0 * rng.standard_normal(STUDY_NET.d)
        eta = float(10 ** rng.uniform(-2.5, -0.5))
        delta = float(rng.uniform(0.05, 1.0))
        cs = sigma_matrix(STUDY_NET, STUDY_MDP, STUDY_Q, x, y, eta, delta)
        target = cs["Sigma"] + cs["beta_bar"] + (delta / eta) * np.eye(STUDY_NET.d)
        recon = np.linalg.norm(cs["sigma"] @ cs["sigma"].T - target) / np.linalg.norm(target)
        floor = np.linalg.eigvalsh(cs["sigma"] @ cs["sigma"].T).min() - delta / eta
        worst_recon = max(worst_recon, recon)
        worst_floor = min(worst_floor, floor)
    ok = worst_recon < 1e-10 and worst_floor >= -1e-10
    _verdict(2, ok, f"worst reconstruction {worst_recon:.2e} (< 1e-10), worst "
                    f"lambda_min(sigma^2) - delta/eta = {worst_floor:.2e} (>= -1e-10)")


def test_criterion_3_drift_oracle_equivalence():
    t0 = time.time()
    assert STUDY_NET.d <= 50
    rng = np.random.default_rng(33)
    x = 0.8 * rng.standard_normal(STUDY_NET.d)
    y = 0.8 * rng.standard_normal(STUDY_NET.d)
    b = exact_drift_b(STUDY_NET, STUDY_MDP, STUDY_Q, x, y)
    S, A = STUDY_MDP.n_states, STUDY_MDP.n_actions
    # per-transition drift table through the single-point path
    table = np.empty((S * A, S, STUDY_NET.d))
    for k in range(S * A):
        for sp in range(S):
            table[k, sp] = sample_drift_bn(STUDY_NET, STUDY_MDP, x, y,
                                           (k // A, k % A, 0.0, sp))
    n = 100_000
    ks = rng.choice(S * A, size=n, p=STUDY_Q.reshape(-1))
    draws = np.empty((n, STUDY_NET.d))
    for k in range(S * A):
        idx = np.flatnonzero(ks == k)
        if idx.size:
            sps = rng.choice(S, size=idx.size, p=STUDY_MDP.p.reshape(-1, S)[k])
            draws[idx] = table[k, sps]
    se = np.maximum(draws.std(axis=0) / np.sqrt(n), 1e-14)
    worst_z = float((np.abs(draws.mean(axis=0) - b) / se).max())
    elapsed = time.time() - t0
    ok = worst_z < 4.0 and elapsed < 30.0
    _verdict(3, ok, f"Monte Carlo drift vs enumeration: worst z = {worst_z:.2f} "
                    f"over {STUDY_NET.d} components, 1e5 samples, {elapsed:.1f}s "
                    f"(< 4 SE, < 30s)")


def test_criterion_4_degenerate_model_law_equality():
    th = saturated_theta(STUDY_NET)
    T, eta, delta, n = 40, 0.1, 0.5, 10_000
    chain = run_dqn(STUDY_NET, STUDY_MDP, STUDY_Q, th,
                    AlgoConfig(eta=eta, delta=delta, m=5, T=T, seed=31), n, [T])
    diff = run_sdde(STUDY_NET, STUDY_MDP, STUDY_Q, th,
                    AlgoConfig(eta=eta, delta=delta, m=5, T=T, rho=5, seed=32),
                    n, [T], stream_path=(1,))
    target_var = T * eta * delta
    var_err = max(
        float(np.abs((chain.at(T) - th).var(axis=0) - target_var).max()),
        float(np.abs((diff.at(T) - th).var(axis=0) - target_var).max()),
    ) / target_var
    sl = w1_sliced(chain.at(T), diff.at(T), 64, np.random.default_rng(33))
    ok = var_err < 0.05 and sl.value < 2.0 * sl.baseline
    _verdict(4, ok, f"flat-gradient model: worst variance error {var_err:.3%} "
                    f"(< 5%), two-sample sliced W1 {sl.value:.4f} < 2 x baseline "
                    f"{sl.baseline:.4f}")


def test_criterion_5_w1_scaling_rate_sweep():
    t0 = time.time()
    res = rate_sweep(STUDY_NET, STUDY_MDP, STUDY_Q, STUDY_THETA0,
                     AlgoConfig(eta=0.1, delta=0.5, m=5, T=20, rho=20, seed=2024),
                     RateSweepSpec(eta_grid=(0.1, 0.05, 0.025, 0.0125), n_traj=4096,
                                   n_proj=64, assignment_cap=512))
    elapsed = time.time() - t0
    slope_ok = 0.3 <= res["slope"] <= 0.7
    n_reliable = sum(r["reliable"] for r in res["rows"])
    envelope_ok = (n_reliable >= 1 and np.isfinite(res["bound_c_envelope"])
                   and res["bound_c_envelope"] > 0 and res["reliable_below_envelope"])
    ok = slope_ok and envelope_ok and elapsed < 1800.0
    detail = (f"fitted slope {res['slope']:.3f} in [0.3, 0.7]; {n_reliable} reliable "
              f"row(s) below c*bound with c = {res['bound_c_envelope']:.3f}; "
              f"{elapsed / 60:.1f} min (< 30 min)")
    _verdict(5, ok, detail)


def test_criterion_6_moment_bounds():
    res = moment_suite(STUDY_NET, STUDY_MDP, STUDY_Q,
                       AlgoConfig(eta=0.05, delta=0.05, m=5, T=10, rho=5, seed=13),
                       MomentSuiteSpec(eta=0.05, delta=0.05, m=5, T=10, rho=5,
                                       n_traj=4096, checkpoints=(3, 5, 8, 10),
                                       ic_scales=(0.0, 1.0, 5.0)))
    ok = (res["stability_theta"] < 3.0 and res["stability_X"] < 3.0
          and res["max_over_fit_theta"] < 10.0 and res["max_over_fit_X"] < 10.0)
    _verdict(6, ok, f"fitted constants stable x{res['stability_theta']:.2f} (chain) "
                    f"/ x{res['stability_X']:.2f} (diffusion) across x in "
                    f"{{0, e1, 5e1}} (< 3x); worst checkpoint/fit "
                    f"{max(res['max_over_fit_theta'], res['max_over_fit_X']):.2f} (< 10x)")


def criterion_7_probes() -> tuple[np.ndarray, np.ndarray]:
    """Criterion 7's probe points (the 10 of 24 candidates with the largest
    |b|) and their shared target."""
    rng = np.random.default_rng(777)
    cands = 0.4 * rng.standard_normal((24, STUDY_NET.d))
    target = 0.4 * rng.standard_normal(STUDY_NET.d)
    bs = exact_drift_b(STUDY_NET, STUDY_MDP, STUDY_Q, cands,
                       np.repeat(target[None, :], 24, axis=0))
    return cands[np.argsort((bs ** 2).sum(axis=1))[-10:]], target


def test_criterion_7_generator_consistency():
    probes, target = criterion_7_probes()
    f = Quadratic(A=np.eye(STUDY_NET.d), b=np.zeros(STUDY_NET.d))
    worst_ratio = 0.0
    for x in probes:
        rep = generator_gap(f, STUDY_NET, STUDY_MDP, STUDY_Q, x, target, 0.5, (0.2, 0.1))
        worst_ratio = max(worst_ratio, rep["gaps"][1] / max(rep["gaps"][0], 1e-12))
    ok = worst_ratio < 0.7
    _verdict(7, ok, f"generator gap ratio on halving eta: worst "
                    f"{worst_ratio:.3f} over 10 probe points (< 0.7, exact)")


def test_criterion_8_w1_estimator_validation():
    rng = np.random.default_rng(88)
    A = rng.normal(0, 1, (256, 2))
    B = rng.normal(0, 1, (256, 2)) + np.array([2.0, 1.0])
    sl = w1_sliced(A, B, 128, np.random.default_rng(89))
    asg = w1_assignment(A, B)
    rel = abs(sl.value - asg.value) / asg.value
    brute_ok = True
    for trial in range(2):
        Ab = rng.normal(0, 1, (8, 2))
        Bb = rng.normal(0.5, 1.2, (8, 2))
        exact = w1_assignment(Ab, Bb).value
        brute = brute_force_w1(Ab, Bb)
        brute_ok &= abs(exact - brute) < 1e-12 * max(1.0, brute)
    ok = rel < 0.15 and brute_ok
    _verdict(8, ok, f"sliced vs assignment on d=2 Gaussians (n=256): "
                    f"{rel:.2%} apart (< 15%); assignment == factorial brute "
                    f"force at n=8: {brute_ok}")


def test_criterion_9_variance_study_pipeline():
    oracle = build_scalar_oracle(delta=0.002, v_reward=0.03)
    m_delay = 5
    eta, delta = oracle["eta"], oracle["delta"]
    alpha = eta * oracle["w_eff"] ** 2
    T = 100 * m_delay
    checkpoints = list(range(50 * m_delay, T + 1, 2 * m_delay))
    res = variance_study(oracle["net"], oracle["spec"], oracle["q"],
                         oracle["theta_star"],
                         AlgoConfig(eta=eta, delta=delta, m=1, T=T, rho=10, seed=4242),
                         VarianceStudySpec(m_values=(1, m_delay), n_traj=8192,
                                           checkpoints=checkpoints),
                         project=oracle["u"])
    acc_t = {1: [], m_delay: []}
    acc_x = {1: [], m_delay: []}
    for row in res["rows"]:
        acc_t[row["m"]].append(row["proj_var_theta"])
        acc_x[row["m"]].append(row["proj_var_X"])
    sim_t = float(np.mean(acc_t[m_delay]) / np.mean(acc_t[1]))
    sim_x = float(np.mean(acc_x[m_delay]) / np.mean(acc_x[1]))
    cf_t = chain_variance_ratio(alpha, oracle["gamma"], m_delay)
    cf_x = sdde_variance_ratio(alpha, oracle["gamma"], m_delay)
    margin_t = abs(sim_t - cf_t) / (1.0 - cf_t)
    margin_x = abs(sim_x - cf_x) / (1.0 - cf_x)
    # full-model arms: deterministic comparison table
    args = (AlgoConfig(eta=0.05, delta=0.5, m=1, T=20, rho=4, seed=9),
            VarianceStudySpec(m_values=(1, 5), n_traj=128, checkpoints=(10, 20)))
    full_a = variance_study(STUDY_NET, STUDY_MDP, STUDY_Q, STUDY_THETA0, *args)
    full_b = variance_study(STUDY_NET, STUDY_MDP, STUDY_Q, STUDY_THETA0, *args)
    deterministic = full_a == full_b
    ok = (sim_t < 1.0 and sim_x < 1.0 and margin_t <= 0.10 and margin_x <= 0.10
          and deterministic)
    _verdict(9, ok, f"scalar oracle: delayed/undelayed variance "
                    f"{sim_t:.4f} vs closed form {cf_t:.4f} (chain, off by "
                    f"{margin_t:.1%} of the margin), {sim_x:.4f} vs {cf_x:.4f} "
                    f"(diffusion, {margin_x:.1%}); both < 1; full-model table "
                    f"deterministic: {deterministic}")


def test_criterion_10_reproducibility(tmp_path):
    doc = {
        "seed": 77,
        "mdp": {"states": 3, "actions": 2, "p": STUDY_MDP.p.tolist(),
                "R": STUDY_MDP.R.tolist(), "V": STUDY_MDP.V.tolist(),
                "gamma": STUDY_MDP.gamma,
                "replay": {"mode": "idealized", "q": STUDY_Q.tolist()}},
        "net": {"hidden": [4], "bound_C": 7.0,
                "init": {"stddev": 0.4, "seed": 1}},
        "algo": {"eta": 0.05, "delta": 0.5, "m": 5, "T": 10, "rho": 4},
        "checkpoints": [0, 5, 10],
        "n_traj": 64,
        "variance_study": {"m_values": [1, 5], "n_traj": 32,
                           "checkpoints": [5, 10]},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    runner = CliRunner()
    identical = True
    for sub, csv_name in (("simulate-dqn", "chain.csv"),
                          ("simulate-sdde", "sdde.csv"),
                          ("variance-study", "variance_study.csv")):
        out1 = tmp_path / f"{sub}-1"
        res = runner.invoke(cli_main, [sub, "--config", str(cfg_path),
                                       "--out", str(out1)])
        assert res.exit_code == 0, res.output
        # re-run from the manifest's embedded config
        manifest = json.loads((out1 / "manifest.json").read_text())
        cfg2_path = tmp_path / f"{sub}-replay.json"
        cfg2_path.write_text(json.dumps(manifest["config"]))
        out2 = tmp_path / f"{sub}-2"
        res = runner.invoke(cli_main, [sub, "--config", str(cfg2_path),
                                       "--out", str(out2),
                                       "--seed", str(manifest["master_seed"])])
        assert res.exit_code == 0, res.output
        identical &= (out1 / csv_name).read_bytes() == (out2 / csv_name).read_bytes()
    _verdict(10, identical, "simulate-dqn, simulate-sdde and variance-study "
                            "re-run from their manifests produce byte-identical "
                            "CSV outputs")
