from __future__ import annotations

import numpy as np
import pytest

from qsdde.chain import AlgoConfig
from qsdde.coeffs import exact_drift_b, sigma_matrix, step_size_gate
from qsdde.diagnostics import (Quadratic, assumption_report, generator_X,
                               generator_gap, generator_theta)
from qsdde.qnet import QNetSpec, init_theta

from conftest import saturated_theta
from oracles import GaussianBump


def _cfg(eta=0.1, delta=0.5):
    return AlgoConfig(eta=eta, delta=delta, m=5, T=10, seed=0)


def test_constant_function_yields_zero_both_generators(net, mdp, q_table, theta):
    f = Quadratic(A=np.zeros((net.d, net.d)), b=np.zeros(net.d), c=4.2)
    mc = generator_theta(f, net, mdp, q_table, theta, theta, _cfg(), 2000,
                         np.random.default_rng(0))
    assert mc.estimate == 0.0 and mc.stderr == 0.0
    assert generator_X(f, net, mdp, q_table, theta, theta, 0.1, 0.5) == 0.0


def test_saturated_quadratic_closed_forms(net, mdp, q_table):
    # grad Q ~ 0: E f(theta_1) - f(x) = eta delta d and A_X f = delta d exactly
    th = saturated_theta(net)
    cfg = _cfg(eta=0.07, delta=0.4)
    f = Quadratic(A=np.eye(net.d), b=np.zeros(net.d))
    mc = generator_theta(f, net, mdp, q_table, th, th, cfg, 40_000,
                         np.random.default_rng(1))
    expected = cfg.eta * cfg.delta * net.d
    assert abs(mc.estimate - expected) < 4 * mc.stderr
    gx = generator_X(f, net, mdp, q_table, th, th, cfg.eta, cfg.delta)
    assert gx == pytest.approx(cfg.delta * net.d, rel=1e-12)


def test_generator_X_trace_identity(net, mdp, q_table):
    # f = |x|^2: A_X f = -2 <b, x> + tr(eta Sigma + eta beta_bar + delta I)
    rng = np.random.default_rng(2)
    x, y = init_theta(net, rng), init_theta(net, rng)
    eta, delta = 0.06, 0.3
    f = Quadratic(A=np.eye(net.d), b=np.zeros(net.d))
    got = generator_X(f, net, mdp, q_table, x, y, eta, delta)
    b = exact_drift_b(net, mdp, q_table, x, y)
    cs = sigma_matrix(net, mdp, q_table, x, y, eta, delta)
    expected = (-2.0 * float(b @ x)
                + eta * np.trace(cs.Sigma) + eta * np.trace(cs.beta_bar)
                + delta * net.d)
    assert got == pytest.approx(expected, rel=1e-10)


def test_generator_X_linear_in_f(net, mdp, q_table, theta):
    rng = np.random.default_rng(3)
    A1 = rng.standard_normal((net.d, net.d))
    A2 = rng.standard_normal((net.d, net.d))
    f1 = Quadratic(A=A1, b=rng.standard_normal(net.d), c=1.0)
    f2 = Quadratic(A=A2, b=rng.standard_normal(net.d), c=-2.0)
    alpha = 1.7
    combo = Quadratic(A=alpha * f1.A + f2.A, b=alpha * f1.b + f2.b,
                      c=alpha * f1.c + f2.c)
    y = init_theta(net, rng)
    g1 = generator_X(f1, net, mdp, q_table, theta, y, 0.05, 0.5)
    g2 = generator_X(f2, net, mdp, q_table, theta, y, 0.05, 0.5)
    gc = generator_X(combo, net, mdp, q_table, theta, y, 0.05, 0.5)
    assert gc == pytest.approx(alpha * g1 + g2, rel=1e-10)


def test_generator_theta_matches_exact_quadratic_moments(net, mdp, q_table):
    # for quadratic f the one-step expectation has a closed form through the
    # exact increment moments: <grad f, -eta b> + <A, E[inc inc^T]>
    cfg = _cfg(eta=0.12, delta=0.3)
    rng = np.random.default_rng(4)
    x = 0.8 * init_theta(net, rng)
    y = 0.8 * init_theta(net, rng)
    f = Quadratic(A=np.eye(net.d), b=np.zeros(net.d))
    b = exact_drift_b(net, mdp, q_table, x, y)
    cs = sigma_matrix(net, mdp, q_table, x, y, cfg.eta, cfg.delta)
    second = (cfg.eta ** 2 * (cs.Sigma + cs.beta_bar + np.outer(b, b))
              + cfg.eta * cfg.delta * np.eye(net.d))
    expected = float(f.grad(x) @ (-cfg.eta * b) + 0.5 * np.sum(f.hess(x) * second))
    mc = generator_theta(f, net, mdp, q_table, x, y, cfg, 300_000,
                         np.random.default_rng(5))
    assert abs(mc.estimate - expected) < 4 * mc.stderr


def test_generator_gap_saturated_quadratic_zero(net, mdp, q_table):
    th = saturated_theta(net)
    f = Quadratic(A=np.eye(net.d), b=np.zeros(net.d))
    rep = generator_gap(f, net, mdp, q_table, th, th, _cfg(), 20_000,
                        np.random.default_rng(6))
    assert rep.gaps[0] < 4 * max(rep.stderrs[0], 1e-12)


def test_generator_gap_constant_f_exactly_zero(net, mdp, q_table, theta):
    f = Quadratic(A=np.zeros((net.d, net.d)), b=np.zeros(net.d), c=1.0)
    rep = generator_gap(f, net, mdp, q_table, theta, theta, _cfg(), 2000,
                        np.random.default_rng(7))
    assert rep.gaps == (0.0,)


def test_generator_gap_quadratic_closed_form_and_ratio(net, mdp, q_table):
    # for quadratic f the gap is exactly eta^2 b^T A b, so halving eta
    # divides it by 4; check the measured gap and the < 0.7 ratio
    rng = np.random.default_rng(8)
    x = 0.8 * init_theta(net, rng)
    y = 0.8 * init_theta(net, rng)
    f = Quadratic(A=np.eye(net.d), b=np.zeros(net.d))
    cfg = _cfg(eta=0.2, delta=0.5)
    rep = generator_gap(f, net, mdp, q_table, x, y, cfg, 400_000,
                        np.random.default_rng(9), etas=(0.2, 0.1))
    for eta, gap, se in zip(rep.etas, rep.gaps, rep.stderrs):
        b = exact_drift_b(net, mdp, q_table, x, y)
        assert abs(gap - eta ** 2 * float(b @ b)) < 4 * se
    assert (rep.gaps[1] + 4 * rep.stderrs[1]) < 0.7 * (rep.gaps[0] - 4 * rep.stderrs[0])


def test_generator_gap_fitted_order_superlinear(net, mdp, q_table):
    rng = np.random.default_rng(10)
    x = 0.8 * init_theta(net, rng)
    y = 0.8 * init_theta(net, rng)
    f = Quadratic(A=np.eye(net.d), b=np.zeros(net.d))
    rep = generator_gap(f, net, mdp, q_table, x, y, _cfg(eta=0.2), 400_000,
                        np.random.default_rng(11), etas=(0.2, 0.1, 0.05))
    assert rep.fitted_order is not None and rep.fitted_order > 1.0


def test_bump_taylor_remainder_shrinks_superlinearly(net, mdp, q_table):
    # generator_theta minus its second-order expansion is a higher-order
    # remainder; its log-log slope over three step sizes exceeds 1
    rng = np.random.default_rng(12)
    x = 0.5 * init_theta(net, rng)
    y = 0.5 * init_theta(net, rng)
    f = GaussianBump(center=x + 0.3, width=1.5)
    b = exact_drift_b(net, mdp, q_table, x, y)
    remainders = []
    etas = (0.4, 0.2, 0.1)
    for i, eta in enumerate(etas):
        cfg = _cfg(eta=eta, delta=0.5)
        cs = sigma_matrix(net, mdp, q_table, x, y, eta, cfg.delta)
        second = (eta ** 2 * (cs.Sigma + cs.beta_bar + np.outer(b, b))
                  + eta * cfg.delta * np.eye(net.d))
        taylor = float(f.grad(x) @ (-eta * b) + 0.5 * np.sum(f.hess(x) * second))
        mc = generator_theta(f, net, mdp, q_table, x, y, cfg, 600_000,
                             np.random.default_rng(100 + i))
        remainders.append(abs(mc.estimate - taylor))
    slope = np.polyfit(np.log(etas), np.log(remainders), 1)[0]
    assert slope > 1.0


def test_assumption_report_saturated_passes(net, mdp, q_table):
    flat = QNetSpec(n_states=mdp.n_states, n_actions=mdp.n_actions, hidden=(4,),
                    bound=1e-300)
    gate = step_size_gate(assumption_report(flat, mdp, q_table, np.random.default_rng(0)),
                          0.5, [0.49])
    assert gate["rejected"] == [] and gate["binding"] is None


def test_assumption_report_huge_eta_fails_with_binding(net, mdp, q_table):
    est = assumption_report(net, mdp, q_table, np.random.default_rng(1))
    assert (est.n_pairs, est.radius) == (200, 5.0)
    gate = step_size_gate(est, 0.5, [50.0])
    assert gate["rejected"] == [50.0]
    assert gate["binding"] in ("delta", "lipschitz_1_over_64L", "growth_L_over_8K2")


def test_assumption_report_deterministic_under_seed(net, mdp, q_table):
    a = assumption_report(net, mdp, q_table, np.random.default_rng(5))
    b = assumption_report(net, mdp, q_table, np.random.default_rng(5))
    assert a == b


def test_generator_theta_requires_minimum_samples(net, mdp, q_table, theta):
    f = Quadratic(A=np.eye(net.d), b=np.zeros(net.d))
    with pytest.raises(ValueError):
        generator_theta(f, net, mdp, q_table, theta, theta, _cfg(), 10,
                        np.random.default_rng(0))
