"""Decentralization oracle: the stacked right-hand side is a local law.

The package has one implementation of the control law, the batched
`Engine.rhs`.  This file keeps the law in its per-follower form, as the
paper states it (`projected_errors`, `control_known`, `control_adaptive`,
`regressor`, `theta_hat_dot`, `eta_dot`; their unit tests against
hand-computed values are in `test_control_laws.py`), and checks on a
non-complete formation that

* follower i's rows of `Engine.rhs` are bitwise unchanged when any state
  entry of an agent that is not a neighbour of i changes, and
* they equal the local law evaluated from the follower's own state and
  its neighbours' positions and velocities alone,

in every mode.
"""

import copy

import numpy as np
import pytest

from bearing_forge.formation_graph import BearingSet
from bearing_forge.scenario import compile_scenario
from bearing_forge.sim_engine import Engine

from conftest import base_scenario_dict, padded_state, padding

TOL = 1e-12


def kron_apply(A, x, d):
    """(A kron I_d) x for a flat block vector x."""
    A = np.atleast_2d(A)
    return (A @ x.reshape(A.shape[1], d)).ravel()


def projected_errors(graph, bearings, i, positions, velocities):
    """Projected neighbor sums (s_p, s_v) for follower i.

    positions, velocities : (n, d) arrays, agent k at row k-1.
    """
    neighbors = graph.neighbors(i)
    if not neighbors:
        raise ValueError(f"follower {i} has no neighbors")
    d = graph.d
    s_p = np.zeros(d)
    s_v = np.zeros(d)
    for j in neighbors:
        g = bearings[(i, j)]
        p_ij = positions[i - 1] - positions[j - 1]
        v_ij = velocities[i - 1] - velocities[j - 1]
        s_p += p_ij - g * (g @ p_ij)
        s_v += v_ij - g * (g @ v_ij)
    return s_p, s_v


def control_known(s_p, s_v, eta, v_i, model, gains):
    """Known-frequency law: internal-model feedforward plus projected feedback."""
    d = v_i.size
    w = eta - kron_apply(model.N.reshape(-1, 1), v_i, d)
    return (
        kron_apply(model.E.reshape(1, -1), w, d)
        - gains.kappa_p * s_p
        - gains.kappa_v * s_v
    )


def control_adaptive(s_p, s_v, eta, v_i, theta_hat, model, gains):
    """Adaptive law: the estimate theta_hat takes the place of the row E."""
    d = v_i.size
    w = eta - kron_apply(model.N.reshape(-1, 1), v_i, d)
    return (
        kron_apply(theta_hat.reshape(1, -1), w, d)
        - gains.kappa_p * s_p
        - gains.kappa_v * s_v
    )


def regressor(eta, v_i, model):
    """d x m regressor; column j is block j of w = eta - (N kron I_d) v."""
    d = v_i.size
    w = eta - kron_apply(model.N.reshape(-1, 1), v_i, d)
    return w.reshape(-1, d).T


def theta_hat_dot(rho, s_p, s_v, Lambda):
    """Gradient-type update: -Lambda rho^T (s_p + s_v)."""
    return -Lambda @ (rho.T @ (s_p + s_v))


def eta_dot(eta, u_i, v_i, model):
    """Compensator dynamics (M kron I)eta + (N kron I)u - (MN kron I)v."""
    d = v_i.size
    MN = model.M @ model.N
    return (
        kron_apply(model.M, eta, d)
        + kron_apply(model.N.reshape(-1, 1), u_i, d)
        - kron_apply(MN.reshape(-1, 1), v_i, d)
    )


def local_law(sc, i, positions, velocities, eta, var, theta_hat):
    """Derivative of follower i's state [p_i, v_i, eta_i, vartheta_i,
    theta_hat_i] from its own state and the rows of positions and
    velocities that belong to i and its neighbours."""
    f = i - sc.n_l - 1
    model, exo, d = sc.models[f], sc.exos[f], sc.d
    v_i = velocities[i - 1]
    bearings = BearingSet.from_positions(
        sc.graph, [POSITIONS[str(k)] for k in range(1, sc.n + 1)]
    )
    s_p, s_v = projected_errors(sc.graph, bearings, i, positions, velocities)
    dth = np.empty(0)
    if sc.mode == "known":
        u = control_known(s_p, s_v, eta, v_i, model, sc.gains)
    elif sc.mode == "adaptive":
        u = control_adaptive(s_p, s_v, eta, v_i, theta_hat, model, sc.gains)
        if sc.freeze_theta:
            dth = np.zeros(model.order)
        else:
            rho = regressor(eta, v_i, model)
            dth = theta_hat_dot(rho, s_p, s_v, sc.lambdas[f])
    else:  # feedback_only
        u = -sc.gains.kappa_p * s_p - sc.gains.kappa_v * s_v
    return np.concatenate(
        [
            v_i,
            u + kron_apply(exo.Psi, var, d),
            eta_dot(eta, u, v_i, model),
            kron_apply(exo.Phi, var, d),
            dth,
        ]
    )


def agent_rows(eng, k):
    """Indices of agent k's entries in the engine state, in the order
    [p, v, eta, vartheta, theta_hat]; a leader has only p.  They are the
    agent's entries of the packed state, mapped through `Engine.real`."""
    d, q = eng.d, sum(eng.orders)
    rows = [np.arange((k - 1) * d, k * d)]
    if k > eng.n_l:
        f = k - eng.n_l - 1
        off, m = sum(eng.orders[:f]), eng.orders[f]
        rows += [
            eng.i_vf + f * d + np.arange(d),
            eng.i_eta + off * d + np.arange(m * d),
            eng.i_eta + (q + off) * d + np.arange(m * d),
        ]
        if eng.adaptive:
            rows.append(eng.i_eta + 2 * q * d + off + np.arange(m))
    return eng.real[np.concatenate(rows)]


def local_view(sc, eng, y, i):
    """Follower i's arguments of local_law, read from the full state y.
    Rows of agents that are not i or its neighbours are NaN."""
    n, d, n_l = sc.n, sc.d, sc.n_l
    positions = np.full((n, d), np.nan)
    velocities = np.full((n, d), np.nan)
    for k in [i] + sc.graph.neighbors(i):
        positions[k - 1] = y[(k - 1) * d : k * d]
        velocities[k - 1] = sc.v_c if k <= n_l else y[agent_rows(eng, k)[d : 2 * d]]
    own = y[agent_rows(eng, i)][2 * d :]
    m = eng.orders[i - n_l - 1]
    eta, var, theta_hat = own[: m * d], own[m * d : 2 * m * d], own[2 * m * d :]
    return positions, velocities, eta, var, theta_hat


# Leaders 1, 2 and followers 3, 4 in a row, follower 5 on top; followers 3
# and 4 do not see each other, and follower 5 sees neither leader.
POSITIONS = {
    "1": [0.0, 0.0],
    "2": [2.0, 0.0],
    "3": [0.5, 1.5],
    "4": [1.5, 1.5],
    "5": [1.0, 3.0],
}
EDGES = [[3, 1], [3, 2], [4, 1], [4, 2], [5, 3], [5, 4]]
# follower orders 3, 1, 5
DISTURBANCES = {
    "3": {
        "constant": [0.2, -0.1],
        "sinusoids": [
            {"frequency": 2.0, "amplitudes": [0.3, 0.2], "phases": [0.3, -0.5]}
        ],
    },
    "4": {"constant": [-0.1, 0.05]},
    "5": {
        "constant": [0.05, 0.1],
        "sinusoids": [
            {"frequency": 1.5, "amplitudes": [0.2, 0.25], "phases": [1.0, 0.2]},
            {"frequency": 3.0, "amplitudes": [0.1, 0.15], "phases": [-0.4, 2.0]},
        ],
    },
}


def sparse_scenario(mode):
    data = copy.deepcopy(base_scenario_dict())
    data["graph"]["n_agents"] = 5
    data["graph"]["edges"] = EDGES
    data["geometry"]["desired_positions"] = POSITIONS
    data["disturbances"] = DISTURBANCES
    # kappa_v lambda_min(B_ff) = 12 * 0.094 > 1, as adaptive mode requires
    ctrl = {"mode": mode, "kappa_p": 2.0, "kappa_v": 12.0}
    if mode.startswith("adaptive"):
        ctrl.update(
            mode="adaptive",
            adaptation_rate=5.0,
            adaptation_gains={
                "3": [[4.0, 1.0, 0.5], [1.0, 3.0, -0.5], [0.5, -0.5, 2.0]]
            },
            freeze_theta=mode == "adaptive_frozen",
        )
    data["controller"] = ctrl
    return compile_scenario(data)


MODES = ["known", "adaptive", "adaptive_frozen", "feedback_only"]


def states(eng, seed):
    """The initial state and three random ones, each with zero padding."""
    rng = np.random.default_rng(seed)
    random = padded_state(eng, rng.standard_normal((3, len(eng.real))))
    return [eng.initial_state()] + list(random)


def test_formation_is_sparse_and_mixed_order():
    sc = sparse_scenario("adaptive")
    eng = Engine(sc)
    assert eng.orders == [3, 1, 5]
    assert sc.graph.neighbors(3) == [1, 2, 5]
    assert sc.graph.neighbors(4) == [1, 2, 5]
    assert sc.graph.neighbors(5) == [3, 4]
    assert 0.09 < np.linalg.eigvalsh(sc.laplacian.B_ff)[0] < 0.1


@pytest.mark.parametrize("mode", MODES)
def test_rows_depend_only_on_neighbours(mode):
    sc = sparse_scenario(mode)
    eng = Engine(sc)
    rng = np.random.default_rng(11)
    for y in states(eng, 3):
        base = eng.rhs(y)
        assert (padding(eng, base) == 0).all()
        for i in sc.graph.followers:
            rows = agent_rows(eng, i)
            others = set(range(1, sc.n + 1)) - {i} - set(sc.graph.neighbors(i))
            assert others
            for j in others:
                for idx in agent_rows(eng, j):
                    y2 = y.copy()
                    y2[idx] += rng.standard_normal()
                    np.testing.assert_array_equal(
                        eng.rhs(y2)[rows].view(np.int64), base[rows].view(np.int64)
                    )


@pytest.mark.parametrize("mode", MODES)
def test_rows_equal_local_law(mode):
    sc = sparse_scenario(mode)
    eng = Engine(sc)
    for y in states(eng, 5):
        dy = eng.rhs(y)
        assert (padding(eng, dy) == 0).all()
        for i in sc.graph.followers:
            ref = local_law(sc, i, *local_view(sc, eng, y, i))
            got = dy[agent_rows(eng, i)]
            assert got.shape == ref.shape
            assert np.all(np.abs(got - ref) <= TOL * (1.0 + np.abs(ref)))
