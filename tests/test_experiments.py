from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

import qsdde.experiments as experiments
from qsdde.chain import AlgoConfig
from qsdde.cli import _gate
from qsdde.coeffs import step_size_gate
from qsdde.diagnostics import _loglog_fit, assumption_report
from qsdde.config import ConfigError
from qsdde.experiments import (MomentSuiteSpec, RateSweepSpec,
                               VarianceStudySpec, moment_suite, rate_sweep,
                               w1_bound_shape, variance_study)
from qsdde.wasserstein import W1Estimate

from conftest import (build_scalar_oracle, chain_variance_ratio, saturated_theta,
                      sdde_variance_ratio)


def test_bound_shape_values():
    # sqrt(eta*delta) * (1 + |ln eta| + delta/eta^(1/4)) at eta=0.1, delta=0.5
    got = float(w1_bound_shape(np.array([0.1]), 0.5)[0])
    expected = np.sqrt(0.05) * (1.0 + abs(np.log(0.1)) + 0.5 / 0.1 ** 0.25)
    assert got == pytest.approx(expected, rel=1e-12)


def test_gate_rejects_and_force_overrides(net, mdp, q_table):
    # the grid gate of rate-sweep: its refusal, and under force its record
    est = assumption_report(net, mdp, q_table, np.random.default_rng(0))
    run = SimpleNamespace(estimates=est, strict_gate=False,
                          algo=AlgoConfig(eta=5.0, delta=0.5, m=1, T=1))
    grid = RateSweepSpec(eta_grid=(5.0,)).eta_grid
    with pytest.raises(ConfigError, match="--force"):
        _gate(run, False, "rate_sweep section: eta_grid", grid, always=True)
    gate = step_size_gate(est, 0.5)
    info = _gate(run, True, "rate_sweep section: eta_grid", grid, always=True)
    assert info == {"source": "rate_sweep section: eta_grid", "etas": [5.0], "delta": 0.5,
                    "eta_max": gate["eta_max"], "constraints": gate["constraints"],
                    "binding": step_size_gate(est, 0.5, [5.0])["binding"],
                    "rejected": [5.0], "enforced": True, "forced": True,
                    "estimates": est}
    assert list(info) == ["source", "etas", "delta", "eta_max", "constraints", "binding",
                          "rejected", "enforced", "forced", "estimates"]


def test_rate_sweep_deterministic_rows(net, mdp, q_table, theta):
    algo = AlgoConfig(eta=0.08, delta=0.5, m=2, T=10, rho=4, seed=5)
    sweep = RateSweepSpec(eta_grid=(0.08, 0.04), n_traj=64, n_proj=16, assignment_cap=64)
    a = rate_sweep(net, mdp, q_table, 0.3 * theta, algo, sweep)
    b = rate_sweep(net, mdp, q_table, 0.3 * theta, algo, sweep)
    assert a["rows"] == b["rows"]
    assert a["slope"] == b["slope"]
    assert [r["eta"] for r in a["rows"]] == [0.08, 0.04]
    assert all(r["T"] * r["eta"] == pytest.approx(0.8) for r in a["rows"])


def test_rate_sweep_fits_the_reliable_rows(net, mdp, q_table, theta, monkeypatch):
    # sliced W1 per row, full cloud then tracked coordinates: rows 0 and 1 clear
    # twice the 0.1 baseline, row 2 does not
    values = iter([0.4, 0.3, 0.25, 0.2, 0.05, 0.04])
    monkeypatch.setattr(experiments, "w1_sliced", lambda A, B, n_proj, rng: W1Estimate(
        next(values), "sliced", 0.01, len(A), len(B), 0.1))
    algo = AlgoConfig(eta=0.08, delta=0.5, m=2, T=10, rho=4, seed=5)
    sweep = RateSweepSpec(eta_grid=(0.08, 0.04, 0.02), n_traj=16, n_proj=4,
                          assignment_cap=16)
    res = rate_sweep(net, mdp, q_table, 0.3 * theta, algo, sweep)
    assert [r["reliable"] for r in res["rows"]] == [True, True, False]
    assert res["slope_reliable"] == _loglog_fit([0.08, 0.04], [0.4, 0.25])[0]
    assert res["slope_reliable"] != res["slope"]


def test_rate_sweep_threads_equivalent(net, mdp, q_table, theta):
    algo = AlgoConfig(eta=0.08, delta=0.5, m=2, T=10, rho=4, seed=5)
    sweep = RateSweepSpec(eta_grid=(0.08, 0.04), n_traj=48, n_proj=8, assignment_cap=48)
    a = rate_sweep(net, mdp, q_table, 0.3 * theta, algo, sweep, threads=1)
    b = rate_sweep(net, mdp, q_table, 0.3 * theta, algo, sweep, threads=3)
    assert a["rows"] == b["rows"]


def test_rate_sweep_degenerate_model_matches_baseline(net, mdp, q_table):
    # grad Q ~ 0: chain and diffusion laws coincide, so W1 sits at the floor
    th = saturated_theta(net)
    algo = AlgoConfig(eta=0.1, delta=0.5, m=2, T=20, rho=5, seed=9)
    sweep = RateSweepSpec(eta_grid=(0.1, 0.05), n_traj=512, n_proj=32, assignment_cap=128)
    res = rate_sweep(net, mdp, q_table, th, algo, sweep)
    for row in res["rows"]:
        assert row["w1_sliced"] < 2.0 * row["sliced_baseline"]
        assert not row["reliable"]


def test_variance_study_requires_m1(net, mdp, q_table, theta):
    with pytest.raises(ValueError, match="m_values"):
        VarianceStudySpec(m_values=(2, 4), n_traj=8, checkpoints=(10,))


def test_variance_study_row_count_and_determinism(net, mdp, q_table, theta):
    algo = AlgoConfig(eta=0.05, delta=0.5, m=1, T=12, rho=4, seed=3)
    study = VarianceStudySpec(m_values=(1, 3), n_traj=32, checkpoints=(6, 12))
    res = variance_study(net, mdp, q_table, 0.3 * theta, algo, study)
    assert len(res["rows"]) == 2 * 2  # |m_values| x |checkpoints|
    res2 = variance_study(net, mdp, q_table, 0.3 * theta, algo, study)
    assert res == res2
    assert res["ratios_theta"][1] == 1.0 and res["ratios_X"][1] == 1.0


def test_variance_study_degenerate_model_ratio_one(net, mdp, q_table):
    # grad Q ~ 0: the delay argument is never used, all arms agree in law
    th = saturated_theta(net)
    res = variance_study(net, mdp, q_table, th,
                         AlgoConfig(eta=0.05, delta=0.5, m=1, T=40, rho=4, seed=7),
                         VarianceStudySpec(m_values=(1, 5), n_traj=2000,
                                           checkpoints=(20, 40)))
    assert res["ratios_theta"][5] == pytest.approx(1.0, abs=0.1)
    assert res["ratios_X"][5] == pytest.approx(1.0, abs=0.1)


def test_scalar_oracle_variance_reduction_quick():
    # medium-scale version of the closed-form margin check
    oracle = build_scalar_oracle()
    net, spec = oracle["net"], oracle["spec"]
    m_delay = 5
    eta, delta = oracle["eta"], oracle["delta"]
    alpha = eta * oracle["w_eff"] ** 2
    T = 60 * m_delay
    checkpoints = list(range(30 * m_delay, T + 1, 2 * m_delay))
    res = variance_study(net, spec, oracle["q"], oracle["theta_star"],
                         AlgoConfig(eta=eta, delta=delta, m=1, T=T, rho=10, seed=11),
                         VarianceStudySpec(m_values=(1, m_delay), n_traj=2048,
                                           checkpoints=checkpoints),
                         project=oracle["u"])
    by_m = {m: [] for m in (1, m_delay)}
    for row in res["rows"]:
        by_m[row["m"]].append(row["proj_var_theta"])
    sim_ratio = np.mean(by_m[m_delay]) / np.mean(by_m[1])
    cf_ratio = chain_variance_ratio(alpha, oracle["gamma"], m_delay)
    assert cf_ratio < 1.0
    assert sim_ratio < 1.0
    assert sim_ratio == pytest.approx(cf_ratio, abs=0.15 * (1 - cf_ratio))
    # diffusion arm against its own closed form
    by_mx = {m: [] for m in (1, m_delay)}
    for row in res["rows"]:
        by_mx[row["m"]].append(row["proj_var_X"])
    sim_ratio_x = np.mean(by_mx[m_delay]) / np.mean(by_mx[1])
    cf_ratio_x = sdde_variance_ratio(alpha, oracle["gamma"], m_delay)
    assert sim_ratio_x == pytest.approx(cf_ratio_x, abs=0.15 * (1 - cf_ratio_x))


def test_moment_suite_stability_across_initial_conditions(net, mdp, q_table):
    # desk scale: delta chosen so the x = 0 noise floor and the |x|^4 term
    # are commensurate, which is where the envelope structure is informative
    res = moment_suite(net, mdp, q_table,
                       AlgoConfig(eta=0.05, delta=0.05, m=5, T=10, rho=5, seed=13),
                       MomentSuiteSpec(eta=0.05, delta=0.05, m=5, T=10, rho=5,
                                       n_traj=1024, checkpoints=(3, 5, 8, 10),
                                       ic_scales=(0.0, 1.0, 5.0)))
    assert res["stability_theta"] < 3.0
    assert res["stability_X"] < 3.0
    assert res["max_over_fit_theta"] < 10.0
    assert res["max_over_fit_X"] < 10.0


def test_moment_suite_reduces_to_envelope_ratios(net, mdp, q_table):
    # integer scales load as floats, so the result's list and its map keys agree
    suite = MomentSuiteSpec(eta=0.05, delta=0.5, m=2, T=8, rho=2, n_traj=64,
                            checkpoints=(0, 4, 8), ic_scales=[0, 1, 2])
    assert suite.ic_scales == (0.0, 1.0, 2.0)
    assert all(type(s) is float for s in suite.ic_scales)
    res = moment_suite(net, mdp, q_table, AlgoConfig(eta=0.05, delta=0.5, m=2, T=8, seed=19),
                       suite)
    for key in ("theta_fourth", "theta_ratios", "x_second", "x_ratios", "x_disp_fits"):
        by_scale = res[key]
        assert list(by_scale) == list(res["ic_scales"])
    env_t = {s: 1.0 + 2.0 * s ** 4 for s in res["ic_scales"]}
    env_x = {s: 1.0 + 2.0 * s ** 2 + 0.5 for s in res["ic_scales"]}
    for s in res["ic_scales"]:
        # every arm starts at x = s * e1: checkpoint 0 holds |x|^4 and |x|^2
        assert res["theta_fourth"][s][0] == pytest.approx(s ** 4)
        assert res["x_second"][s][0] == pytest.approx(s ** 2)
        assert res["theta_ratios"][s] == pytest.approx(
            np.mean(np.divide(res["theta_fourth"][s], env_t[s])))
        assert res["x_ratios"][s] == pytest.approx(
            np.mean(np.divide(res["x_second"][s], env_x[s])))
        assert (res["theta_ratios"][s] > 0 and res["x_ratios"][s] > 0
                and res["x_disp_fits"][s] > 0)
    fit_t = np.mean(list(res["theta_ratios"].values()))
    fit_x = np.mean(list(res["x_ratios"].values()))
    assert res["max_over_fit_theta"] == pytest.approx(
        max(max(v) / (env_t[s] * fit_t) for s, v in res["theta_fourth"].items()))
    assert res["max_over_fit_X"] == pytest.approx(
        max(max(v) / (env_x[s] * fit_x) for s, v in res["x_second"].items()))
    ratios = list(res["theta_ratios"].values())
    assert res["stability_theta"] == pytest.approx(max(ratios) / min(ratios))


def test_moment_suite_full_model(net, mdp, q_table):
    res = moment_suite(net, mdp, q_table,
                       AlgoConfig(eta=0.04, delta=0.5, m=5, T=30, rho=4, seed=17),
                       MomentSuiteSpec(eta=0.04, delta=0.5, m=5, T=30, rho=4, n_traj=512,
                                       checkpoints=(10, 30)))
    assert set(res["theta_fourth"]) == {0.0, 1.0, 5.0}
    assert all(np.isfinite(v).all() for v in map(np.asarray, res["theta_fourth"].values()))
    assert res["x_disp_fits"][0.0] > 0
