from __future__ import annotations

import numpy as np
import pytest

from qsdde.mdp import IdealizedReplay, MdpSpec, uniform_q
from qsdde.qnet import QNetSpec, init_theta


def make_mdp(seed: int = 42, n_states: int = 3, n_actions: int = 2,
             gamma: float = 0.9, reward_scale: float = 1.0,
             noise_scale: float = 0.5) -> MdpSpec:
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    R = reward_scale * rng.normal(0.0, 1.0, (n_states, n_actions))
    V = np.abs(rng.normal(noise_scale, 0.2, (n_states, n_actions)))
    return MdpSpec(p=p, R=R, V=V, gamma=gamma)


def saturated_theta(net: QNetSpec) -> np.ndarray:
    """Parameters at which the output squash saturates, so grad Q ~ 0."""
    theta = np.zeros(net.d)
    theta[-1] = 120.0  # output bias; |pre-squash| >> 40 for every input
    return theta


@pytest.fixture
def mdp():
    return make_mdp()


@pytest.fixture
def net(mdp):
    return QNetSpec(n_states=mdp.n_states, n_actions=mdp.n_actions,
                    hidden=(4,), bound=10.0)


@pytest.fixture
def q_table(mdp):
    return uniform_q(mdp.n_states, mdp.n_actions)


@pytest.fixture
def replay(q_table):
    return IdealizedReplay(q_table)


@pytest.fixture
def theta(net):
    return init_theta(net, np.random.default_rng(7))


def build_scalar_oracle(gamma: float = 0.8, eta_alpha: float = 0.2,
                        delta: float = 0.004, v_reward: float = 0.05):
    """A 1-state/1-action model whose drift-aligned coordinate is an exact
    linear-Gaussian delay recursion, with closed-form stationary variances.

    Around the operating point theta*, with a = <u, theta - theta*> and
    w = |grad Q(theta*)|, one chain step inside a target window reads
        a' = (1 - alpha) a + alpha gamma a_window + noise,
    alpha = eta w^2, so window-boundary values form an AR(1) chain whose
    stationary variance has a closed form per target period m.  All noise
    scales cancel in the delayed / undelayed variance ratio.
    """
    from qsdde.qnet import q_grad, q_value

    spec = MdpSpec(p=np.ones((1, 1, 1)), R=np.zeros((1, 1)),
                   V=np.full((1, 1), v_reward), gamma=gamma)
    net = QNetSpec(n_states=1, n_actions=1, hidden=(1,), bound=5.0)
    theta_star = np.array([0.8, 0.6, 0.1, 1.2, 0.05])
    g = q_grad(net, theta_star, 0, 0)
    w_eff = float(np.linalg.norm(g))
    eta = eta_alpha / w_eff ** 2
    q_star = q_value(net, theta_star, 0, 0)
    R = (1.0 - gamma) * q_star  # bracket vanishes at the operating point
    spec = MdpSpec(p=spec.p, R=np.full((1, 1), R), V=spec.V, gamma=gamma)
    return {"spec": spec, "net": net, "theta_star": theta_star,
            "u": g / w_eff, "w_eff": w_eff, "eta": eta, "delta": delta,
            "gamma": gamma, "q": np.ones((1, 1))}


def chain_variance_ratio(alpha: float, gamma: float, m: int) -> float:
    """Closed-form stationary boundary-variance ratio V_m / V_1 of the chain."""
    rho = (1.0 - alpha) ** m
    f = rho + gamma * (1.0 - rho)
    var_w = (1.0 - rho ** 2) / (alpha * (2.0 - alpha))
    v_m = var_w / (1.0 - f ** 2)
    f1 = 1.0 - alpha * (1.0 - gamma)
    v_1 = 1.0 / (1.0 - f1 ** 2)
    return v_m / v_1


def sdde_variance_ratio(w2eta: float, gamma: float, m: int) -> float:
    """Same ratio for the continuous within-window dynamics."""
    def var(mm):
        rho = np.exp(-w2eta * mm)
        f = rho + gamma * (1.0 - rho)
        return (1.0 - rho ** 2) / (1.0 - f ** 2)
    return var(m) / var(1)
