"""The stacked engine against the per-follower, per-step reference.

`ReferenceEngine` evaluates the closed loop with dense block-diagonal
operators and a Python loop over followers; `reference_integrate` takes one
RK4 step at a time through it and checks every state as it is made.  The
engine in `sim_engine` (batched right-hand side, exact RK4 operator step in
product coordinates below OPERATOR_MAX_MACS, chunked checks) must agree with
them to 1e-10 (1 + |ref|) on every recorded quantity, and must fail at the
same step with the same report.  The operator step must also agree with the
staged `Engine.rk4` on formations on both sides of that bound, and the
pieces of `Engine.rhs` that it probes must compose to `Engine.rhs`.  The post-processing keeps its per-sample forms here too: the xi
oracle with one expm per follower and sample, the targets localized
from the leaders at every sample, and the Lyapunov certificate from the
dense block-diagonal M_f and E_f.
"""

import copy
import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg as sla

from bearing_forge import bundled_scenario, sim_engine
from bearing_forge.control_laws import ControllerGains
from bearing_forge.errors import CollisionDetected, NonFiniteState
from bearing_forge.formation_graph import localize_followers
from bearing_forge.rk4_operator import rk4_map
from bearing_forge.scenario import compile_scenario, load_scenario
from bearing_forge.sim_engine import (
    CHECK_CHUNK,
    OPERATOR_MAX_MACS,
    Engine,
    Trajectory,
    build_certificate,
    integrate,
    lyapunov_monitor,
    metrics,
    xi_oracle,
)

from conftest import (
    base_scenario_dict,
    dense_G_c,
    dense_Q,
    make_scenario,
    padded_state,
    padding,
)

TOL = 1e-10


class ReferenceEngine:
    """Closed loop with dense block operators and a loop over followers."""

    def __init__(self, sc):
        n, d, n_l, n_f = sc.n, sc.d, sc.n_l, sc.n_f
        self.sc = sc
        self.n, self.d, self.n_l, self.n_f = n, d, n_l, n_f
        self.orders = [m.order for m in sc.models]
        self.q_f = sum(self.orders) * d
        self.K = sum(self.orders) if sc.mode == "adaptive" else 0
        self.Bf = sc.laplacian.B[n_l * d :, :]
        self.vc_tile = np.tile(sc.v_c, n_l)

        eye_d = np.eye(d)
        self.M_blk = sla.block_diag(*[np.kron(m.M, eye_d) for m in sc.models])
        self.N_blk = sla.block_diag(
            *[np.kron(m.N.reshape(-1, 1), eye_d) for m in sc.models]
        )
        self.MN_blk = sla.block_diag(
            *[np.kron((m.M @ m.N).reshape(-1, 1), eye_d) for m in sc.models]
        )
        self.Phi_blk = sla.block_diag(*[np.kron(e.Phi, eye_d) for e in sc.exos])
        self.E_blk = sla.block_diag(
            *[np.kron(m.E.reshape(1, -1), eye_d) for m in sc.models]
        )
        self.d_idx = np.concatenate(
            [off + np.arange(d) for off in np.cumsum([0] + self.orders[:-1]) * d]
        )
        offs = np.cumsum([0] + self.orders) * d
        self.blk_slices = [slice(a, b) for a, b in zip(offs[:-1], offs[1:])]
        ks = np.cumsum([0] + [m.order for m in sc.models])
        self.th_slices = [slice(a, b) for a, b in zip(ks[:-1], ks[1:])]

        self.i_p = 0
        self.i_vf = n * d
        self.i_eta = self.i_vf + n_f * d
        self.i_var = self.i_eta + self.q_f
        self.i_th = self.i_var + self.q_f
        self.dim = self.i_th + self.K

    def rhs(self, y):
        sc = self.sc
        d, n_f = self.d, self.n_f
        p = y[self.i_p : self.i_vf]
        v_f = y[self.i_vf : self.i_eta]
        eta = y[self.i_eta : self.i_var]
        var = y[self.i_var : self.i_th]

        s_p = self.Bf @ p
        s_v = self.Bf @ np.concatenate([self.vc_tile, v_f])
        w = eta - self.N_blk @ v_f

        dy = np.empty(self.dim)
        if sc.mode == "known":
            u = self.E_blk @ w - sc.gains.kappa_p * s_p - sc.gains.kappa_v * s_v
        elif sc.mode == "adaptive":
            th = y[self.i_th :]
            u = -sc.gains.kappa_p * s_p - sc.gains.kappa_v * s_v
            for i in range(n_f):
                Wi = w[self.blk_slices[i]].reshape(self.orders[i], d)
                th_i = th[self.th_slices[i]]
                u[i * d : (i + 1) * d] += th_i @ Wi
                if sc.freeze_theta:
                    dy[self.i_th :][self.th_slices[i]] = 0.0
                else:
                    s_i = s_p[i * d : (i + 1) * d] + s_v[i * d : (i + 1) * d]
                    dy[self.i_th :][self.th_slices[i]] = -sc.lambdas[i] @ (Wi @ s_i)
        else:  # feedback_only
            u = -sc.gains.kappa_p * s_p - sc.gains.kappa_v * s_v

        dy[self.i_p : self.i_p + self.n_l * d] = self.vc_tile
        dy[self.i_p + self.n_l * d : self.i_vf] = v_f
        dy[self.i_vf : self.i_eta] = u + var[self.d_idx]
        dy[self.i_eta : self.i_var] = (
            self.M_blk @ eta + self.N_blk @ u - self.MN_blk @ v_f
        )
        dy[self.i_var : self.i_th] = self.Phi_blk @ var
        return dy


def reference_integrate(sc):
    """One RK4 step at a time through ReferenceEngine, each state checked."""
    eng = ReferenceEngine(sc)
    h = sc.h
    n_steps = int(round(sc.t_final / h))
    n, d = eng.n, eng.d
    iu, ju = np.triu_indices(n, 1)

    def check(state, t):
        if not np.isfinite(state).all():
            raise NonFiniteState(f"non-finite state component at t={t:.6f}")
        pm = state[eng.i_p : eng.i_vf].reshape(n, d)
        diff = pm[iu] - pm[ju]
        dv = np.sqrt((diff * diff).sum(axis=1))
        k = int(dv.argmin())
        if dv[k] < sc.collision_eps:
            raise CollisionDetected(t, (int(iu[k]) + 1, int(ju[k]) + 1), float(dv[k]))
        return float(dv[k])

    y = np.zeros(eng.dim)
    y[eng.i_p : eng.i_vf] = sc.p0.ravel()
    y[eng.i_vf : eng.i_eta] = sc.v_f0.ravel()
    y[eng.i_eta : eng.i_var] = np.concatenate(sc.eta0)
    y[eng.i_var : eng.i_th] = np.concatenate([e.theta0 for e in sc.exos])
    if eng.K:
        y[eng.i_th :] = np.concatenate(sc.theta_hat0)

    times, samples, dists = [0.0], [y.copy()], [check(y, 0.0)]
    rhs = eng.rhs
    for step in range(1, n_steps + 1):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = step * h
        dmin = check(y, t)
        if step % sc.record_every == 0 or step == n_steps:
            times.append(t)
            samples.append(y.copy())
            dists.append(dmin)

    S = len(times)
    arr = np.array(samples)
    velocities = np.empty((S, n, d))
    velocities[:, : eng.n_l, :] = sc.v_c
    velocities[:, eng.n_l :, :] = arr[:, eng.i_vf : eng.i_eta].reshape(S, eng.n_f, d)
    # the compensator blocks in the Trajectory's padded layout
    pad = Engine(sc)
    padded = padded_state(pad, arr)
    blocks = (S, eng.n_f, pad.m_max, d)
    return Trajectory(
        times=np.array(times),
        positions=arr[:, eng.i_p : eng.i_vf].reshape(S, n, d),
        velocities=velocities,
        eta=padded[:, pad.i_eta : pad.i_var].reshape(blocks),
        vartheta=padded[:, pad.i_var : pad.i_th].reshape(blocks),
        theta_hat=padded[:, pad.i_th :].reshape(S, eng.n_f, -1),
        min_dist=np.array(dists),
    )


def packed(blocks, sc):
    """The packed form (S, K) of a Trajectory's padded per-follower blocks
    (S, n_f, m_max, ...): each follower's first m_i rows, in order."""
    orders = np.array([m.order for m in sc.models])
    real = np.arange(blocks.shape[2]) < orders[:, None]
    return blocks[:, real].reshape(len(blocks), -1)


def reference_xi_oracle(traj, sc):
    """Per-follower, per-sample expm(M t) xi(0) with dense xi samples."""
    d = sc.d
    eye_d = np.eye(d)
    T_blk = sla.block_diag(*[np.kron(m.T, eye_d) for m in sc.models])
    N_blk = sla.block_diag(*[np.kron(m.N.reshape(-1, 1), eye_d) for m in sc.models])
    v_f = traj.velocities[:, sc.n_l :, :].reshape(len(traj.times), -1)
    eta, var = packed(traj.eta, sc), packed(traj.vartheta, sc)
    xi = eta + var @ T_blk.T - v_f @ N_blk.T
    max_dev, off = 0.0, 0
    for model in sc.models:
        m = model.order
        blk = xi[:, off : off + m * d]
        xi0 = blk[0].reshape(m, d)
        for t, row in zip(traj.times, blk):
            ref = sla.expm(model.M * t) @ xi0
            max_dev = max(max_dev, np.linalg.norm(row.reshape(m, d) - ref))
        off += m * d
    return max_dev, xi


def reference_certificate(sc):
    """lambda_min(Q), P_c, G_c and gamma_sigma from the dense stacked
    operators: eigvalsh of the assembled Q, one Lyapunov solve on the full
    blkdiag(M_i kron I_d), and gamma_sigma from P_c B_c E_f with the dense
    E_f."""
    B_ff, nfd = sc.laplacian.B_ff, sc.n_f * sc.d
    kp, kv = sc.gains.kappa_p, sc.gains.kappa_v
    lam_Q = np.linalg.eigvalsh(dense_Q(B_ff, sc.gains))[0]
    P_c = np.block([[(kp + kv) * (B_ff @ B_ff), B_ff], [B_ff, B_ff]])
    eye_d = np.eye(sc.d)
    M_f = sla.block_diag(*[np.kron(m.M, eye_d) for m in sc.models])
    E_f = sla.block_diag(*[np.kron(m.E.reshape(1, -1), eye_d) for m in sc.models])
    G_c = sla.solve_continuous_lyapunov(M_f.T, -np.eye(M_f.shape[0]))
    G_c = 0.5 * (G_c + G_c.T)
    PBE = P_c[:, nfd:] @ E_f
    gamma_sigma = np.linalg.eigvalsh(PBE @ PBE.T)[-1] / lam_Q
    return {
        "lambda_min_Qc": lam_Q, "P_c": P_c, "G_c": G_c, "gamma_sigma": gamma_sigma
    }


def reference_lyapunov(traj, cert, sc, xi):
    """Per-sample V with the targets localized from the leaders each time."""
    lam_inv = sla.block_diag(*[np.linalg.inv(np.atleast_2d(L)) for L in sc.lambdas])
    theta_true = np.concatenate([m.E for m in sc.models])
    G_c = dense_G_c(cert, sc.models, sc.d)
    theta_hat = packed(traj.theta_hat, sc)
    V = np.empty(len(traj.times))
    for s, t in enumerate(traj.times):
        p_l = sc.p_star0[: sc.n_l] + t * sc.v_c
        p_f = localize_followers(sc.laplacian, p_l)
        p_t = traj.positions[s, sc.n_l :, :] - p_f
        v_t = traj.velocities[s, sc.n_l :, :] - sc.v_c
        x_t = np.concatenate([p_t.ravel(), v_t.ravel()])
        th_t = theta_true - theta_hat[s]
        V[s] = (
            x_t @ cert.P_c @ x_t
            + cert.gamma * (xi[s] @ G_c @ xi[s])
            + th_t @ lam_inv @ th_t
        )
    return V


def assert_close(got, ref):
    assert np.shape(got) == np.shape(ref)
    assert np.all(np.abs(got - ref) <= TOL * (1.0 + np.abs(ref)))


def assert_same_trajectory(traj, ref):
    for field in (
        "times",
        "positions",
        "velocities",
        "eta",
        "vartheta",
        "theta_hat",
        "min_dist",
    ):
        assert_close(getattr(traj, field), getattr(ref, field))


# Pentagon-like formation on a complete graph whose three followers carry
# disturbances of orders r = 0, 1, 2, so the stacked blocks need padding.
MIXED_POSITIONS = {
    "1": [0.0, 0.0],
    "2": [2.0, 0.0],
    "3": [2.5, 1.5],
    "4": [1.0, 2.5],
    "5": [-0.5, 1.5],
}
MIXED_DISTURBANCES = {
    "3": {"constant": [0.2, -0.1]},
    "4": {
        "constant": [-0.1, 0.05],
        "sinusoids": [
            {"frequency": 2.0, "amplitudes": [0.3, 0.2], "phases": [0.3, -0.5]}
        ],
    },
    "5": {
        "constant": [0.05, 0.1],
        "sinusoids": [
            {"frequency": 1.5, "amplitudes": [0.2, 0.25], "phases": [1.0, 0.2]},
            {"frequency": 3.0, "amplitudes": [0.1, 0.15], "phases": [-0.4, 2.0]},
        ],
    },
}


def mixed_order_scenario(disturbances=MIXED_DISTURBANCES, **controller):
    data = copy.deepcopy(base_scenario_dict())
    data["graph"]["n_agents"] = 5
    data["graph"]["edges"] = [
        [i, j] for i in range(1, 6) for j in range(i + 1, 6)
    ]
    data["geometry"]["desired_positions"] = MIXED_POSITIONS
    data["geometry"]["initial_positions"] = {
        "3": [2.6, 1.4],
        "4": [0.9, 2.6],
        "5": [-0.45, 1.55],
    }
    data["geometry"]["initial_velocities"] = {
        "3": [0.55, 0.05],
        "4": [0.45, -0.05],
        "5": [0.5, 0.1],
    }
    data["disturbances"] = disturbances
    data["controller"].update(controller)
    data["integration"] = {"step": 1e-3, "t_final": 2.0, "record_every": 50}
    return compile_scenario(data)


def mixed_adaptive(**extra):
    known = mixed_order_scenario()
    lam_min = float(np.linalg.eigvalsh(known.laplacian.B_ff)[0])
    ctrl = {"mode": "adaptive", "kappa_v": 3.0 / lam_min, "adaptation_rate": 20.0}
    ctrl.update(extra)
    return mixed_order_scenario(**ctrl)


def mixed_frozen():
    known = mixed_order_scenario()
    init = {
        str(i): list(0.5 * m.E)
        for i, m in zip(range(known.n_l + 1, known.n + 1), known.models)
    }
    return mixed_adaptive(freeze_theta=True, theta_hat_init=init)


def mixed_feedback_only():
    return mixed_order_scenario(mode="feedback_only")


# The unit square whose followers reject a constant (r = 0, order 1) and
# five sinusoids (r = 5, order 11): the first follower's blocks are mostly
# padding.
SKEWED_DISTURBANCES = {
    "3": {"constant": [0.05, -0.05]},
    "4": {
        "constant": [-0.02, 0.03],
        "sinusoids": [
            {"frequency": float(w), "amplitudes": [1e-3, 8e-4], "phases": [0.3, -0.5]}
            for w in range(1, 6)
        ],
    },
}


def skewed_scenario(mode="known"):
    known = make_scenario(disturbances=SKEWED_DISTURBANCES)
    ctrl = {"mode": mode}
    if mode == "adaptive":
        lam_min = float(known.laplacian.ff_eigenvalues[0])
        ctrl.update(kappa_v=3.0 / lam_min, adaptation_rate=20.0)
    return make_scenario(
        disturbances=SKEWED_DISTURBANCES,
        controller=ctrl,
        integration={"t_final": 1.0, "record_every": 20},
    )


CASES = {
    "bundled_known_10s": lambda: load_scenario(
        bundled_scenario("square_known"), {"t_final": 10.0}
    ),
    "bundled_adaptive_5s": lambda: load_scenario(
        bundled_scenario("square_adaptive"), {"t_final": 5.0}
    ),
    "mixed_known": mixed_order_scenario,
    "mixed_adaptive": mixed_adaptive,
    "mixed_adaptive_frozen": mixed_frozen,
    "mixed_feedback_only": mixed_feedback_only,
    "skewed_known": skewed_scenario,
    "skewed_adaptive": lambda: skewed_scenario("adaptive"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_trajectory_matches_reference(case):
    sc = CASES[case]()
    assert_same_trajectory(integrate(sc), reference_integrate(sc))


@pytest.mark.parametrize(
    "case", ["bundled_adaptive_5s", "mixed_known", "mixed_adaptive"]
)
def test_post_processing_matches_reference(case):
    """xi oracle (one batched expm per distinct M), certificate (one Lyapunov
    solve per follower), Lyapunov monitor and error norms (closed-form
    targets) against their dense, per-follower and per-sample forms."""
    sc = CASES[case]()
    traj = integrate(sc)
    ref_dev, xi = reference_xi_oracle(traj, sc)
    assert abs(xi_oracle(traj, sc) - ref_dev) <= 1e-12
    err_p = metrics(traj, sc)["err_p"]
    for s, t in enumerate(traj.times):
        p_l = sc.p_star0[: sc.n_l] + t * sc.v_c
        p_f = localize_followers(sc.laplacian, p_l)
        ref = np.linalg.norm(traj.positions[s, sc.n_l :, :] - p_f, axis=1)
        assert_close(err_p[s], ref)
    if sc.mode == "adaptive":
        cert = build_certificate(sc)
        for name, ref in reference_certificate(sc).items():
            if name == "G_c":
                got = dense_G_c(cert, sc.models, sc.d)
            else:
                got = getattr(cert, name)
            assert np.shape(got) == np.shape(ref)
            assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref))), name
        assert_close(
            lyapunov_monitor(traj, cert, sc), reference_lyapunov(traj, cert, sc, xi)
        )


def test_lyapunov_monitor_with_as_many_followers_as_their_order():
    """Three order-3 followers, each with its own full Lam_i: the stack of
    Lam_i has as many matrices as each has rows, so a solve that took the
    identity for a stack of vectors would give every follower the one matrix
    whose row j is column j of Lam_j^-1, with no error.  V matches the sum of
    the per-follower quadratic forms at every sample."""
    disturbances = {
        str(i): {
            "constant": [0.1 * k, -0.05],
            "sinusoids": [
                {"frequency": w, "amplitudes": [0.3, 0.2], "phases": [0.3 * k, -0.5]}
            ],
        }
        for k, (i, w) in enumerate(zip((3, 4, 5), (1.5, 2.0, 3.0)), start=1)
    }
    lambdas = {
        "3": [[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]],
        "4": [[1.0, -0.3, 0.1], [-0.3, 4.0, 0.0], [0.1, 0.0, 0.5]],
        "5": [[6.0, 1.0, 1.0], [1.0, 2.0, -0.5], [1.0, -0.5, 1.5]],
    }
    lam_min = float(mixed_order_scenario().laplacian.ff_eigenvalues[0])
    sc = mixed_order_scenario(
        disturbances,
        mode="adaptive",
        kappa_v=3.0 / lam_min,
        adaptation_gains=lambdas,
    )
    assert [m.order for m in sc.models] == [3, 3, 3]
    traj = integrate(sc)
    cert = build_certificate(sc)
    _, xi = reference_xi_oracle(traj, sc)
    assert_close(
        lyapunov_monitor(traj, cert, sc), reference_lyapunov(traj, cert, sc, xi)
    )


def test_certificate_on_a_swarm():
    """On a 64-agent adaptive complete formation, lambda_min(Q) from the
    spectrum of B_ff is within the backward error of a stable eigvalsh,
    1e-14 ||Q||_2, of the dense decomposition of the assembled Q."""
    sc = complete_formation(64, "adaptive")
    cert = build_certificate(sc)
    dense = np.linalg.eigvalsh(dense_Q(sc.laplacian.B_ff, sc.gains))
    assert abs(cert.lambda_min_Qc - dense[0]) <= 1e-14 * np.abs(dense).max()


@pytest.mark.parametrize("case", sorted(CASES))
def test_rhs_matches_reference(case):
    """On the real coordinates of states with zero padding; the padding of
    rhs is exactly 0."""
    sc = CASES[case]()
    eng, ref = Engine(sc), ReferenceEngine(sc)
    assert eng.dim == sc.state_dim and len(eng.real) == ref.dim
    rng = np.random.default_rng(7)
    random = padded_state(eng, rng.standard_normal((5, ref.dim)))
    for y in [eng.initial_state()] + list(random):
        dy = eng.rhs(y)
        assert_close(dy[eng.real], ref.rhs(y[eng.real]))
        assert (padding(eng, dy) == 0).all()


def test_mixed_orders_are_padded():
    """Orders 1, 3 and 5 are held padded to 5: the state has 5 rows of eta
    and of vartheta, and 5 estimates, per follower, and its real coordinates
    are the packed state, which starts as the reference's with zero
    padding."""
    sc = mixed_adaptive()
    eng, ref = Engine(sc), ReferenceEngine(sc)
    assert eng.orders == [1, 3, 5] and eng.m_max == 5
    n_f, d = sc.n_f, sc.d
    assert eng.dim == sc.state_dim == (sc.n + n_f) * d + 2 * n_f * 5 * d + n_f * 5
    assert len(eng.real) == ref.dim == eng.dim - 2 * n_f * 2 * d - n_f * 2
    y = eng.initial_state()
    assert padding(eng, y).view(np.int64).tolist() == [0] * (eng.dim - ref.dim)
    packed = np.concatenate(
        [sc.p0.ravel(), sc.v_f0.ravel(), *sc.eta0,
         *[e.theta0 for e in sc.exos], *sc.theta_hat0]
    )
    assert y[eng.real].tobytes() == packed.tobytes()


@pytest.mark.parametrize("case", ["skewed_known", "skewed_adaptive"])
def test_padded_steppers_match_reference(case):
    """Both chunk advances, the operator step and the staged Engine.rk4,
    driven a chunk at a time from the initial state, against one RK4 step
    at a time through ReferenceEngine on every state; the padding of every
    chunk stays bitwise 0."""
    sc = dataclasses.replace(CASES[case](), record_every=1)
    eng = Engine(sc)
    ref = reference_integrate(sc)
    # the reference's states in the engine's layout
    ref_states = np.concatenate(
        [x.reshape(len(ref.times), -1) for x in (
            ref.positions, ref.velocities[:, sc.n_l :],
            ref.eta, ref.vartheta, ref.theta_hat,
        )],
        axis=1,
    )[1:]
    for advance in (eng.operator_step(), eng.rk4()):
        y, chunk = eng.initial_state(), np.empty((CHECK_CHUNK, eng.dim))
        for first in range(0, sc.n_steps, CHECK_CHUNK):
            rows = chunk[: min(CHECK_CHUNK, sc.n_steps - first)]
            y = advance(y, rows)
            assert not padding(eng, rows).view(np.int64).any()
            assert_close(rows, ref_states[first : first + len(rows)])


@pytest.mark.parametrize("mode", ["known", "adaptive"])
def test_collision_mid_chunk_matches_reference(mode):
    """Follower 3 heads for leader 2 and comes within the threshold inside
    the second chunk."""
    sc = make_scenario(
        geometry={
            "initial_positions": {"3": [1.0, 0.2]},
            "initial_velocities": {"3": [0.5, -2.0]},
        },
        controller={"mode": mode, "kappa_v": 4.0},
        integration={"t_final": 1.0, "collision_threshold": 0.05},
    )
    with pytest.raises(CollisionDetected) as ref_info:
        reference_integrate(sc)
    with pytest.raises(CollisionDetected) as got_info:
        integrate(sc)
    ref, got = ref_info.value, got_info.value
    step = round(ref.time / sc.h)
    assert step > CHECK_CHUNK and step % CHECK_CHUNK not in (0, 1)
    assert got.time == ref.time
    assert got.pair == ref.pair
    assert abs(got.distance - ref.distance) <= TOL * (1.0 + ref.distance)


def assert_diverges_as_reference(mode):
    """Gains far outside the RK4 stability region for h = 1e-3 blow up at
    the reference's step; the mixed cases have followers of orders 1 and
    11, padded to 11.  The step gate rejects such gains at load, so they
    are set after it."""
    mixed = mode.startswith("mixed_")
    sc = make_scenario(
        geometry={"initial_positions": {"3": [1.01, 0.99]}},
        disturbances=SKEWED_DISTURBANCES if mixed else {},
        controller={"mode": mode.removeprefix("mixed_"), "kappa_v": 4.0},
        integration={"t_final": 1.0},
    )
    sc = dataclasses.replace(sc, gains=ControllerGains(1e4, 1e4))
    assert (len(set(Engine(sc).orders)) > 1) == mixed
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteState) as ref_info:
            reference_integrate(sc)
        with pytest.raises(NonFiniteState) as got_info:
            integrate(sc)
    assert str(got_info.value) == str(ref_info.value)
    assert round(float(str(ref_info.value).split("t=")[1]) / sc.h) > CHECK_CHUNK


@pytest.mark.parametrize(
    "mode", ["known", "adaptive", "mixed_known", "mixed_adaptive"]
)
def test_divergence_matches_reference(mode):
    assert_diverges_as_reference(mode)


def test_divergence_on_the_staged_step_matches_reference(monkeypatch):
    """With every formation past OPERATOR_MAX_MACS, integrate steps stage
    by stage, and a divergence there is raised as it is."""
    monkeypatch.setattr(sim_engine, "OPERATOR_MAX_MACS", 0)
    monkeypatch.setattr(Engine, "operator_step", None)
    assert_diverges_as_reference("adaptive")


def pair_distances(positions):
    """All pair distances of each state (S, n, d) in the order of
    np.triu_indices, the squares summed one coordinate after another."""
    iu, ju = np.triu_indices(positions.shape[1], 1)
    sq = 0.0
    for a in range(positions.shape[2]):
        diff = positions[:, iu, a] - positions[:, ju, a]
        sq = sq + diff * diff
    return np.sqrt(sq)


def square_with_sinusoids(r, t_final=50.0):
    """The bundled known square with r sinusoids and a constant rejected by
    each follower (order 2 r + 1)."""
    with open(bundled_scenario("square_known")) as fh:
        data = json.load(fh)
    for agent, freqs in (("3", [0.5, 1.2, 2.0]), ("4", [0.8, 1.6, 2.4])):
        data["disturbances"][agent]["sinusoids"] = [
            {"frequency": w, "amplitudes": [1e-3, 8e-4], "phases": [0.3 * k, -0.5]}
            for k, w in enumerate(freqs[:r])
        ]
    data["integration"]["t_final"] = t_final
    return compile_scenario(data)


LINEAR_CASES = {
    "square_known_50s": lambda: load_scenario(bundled_scenario("square_known")),
    "square_r3_known_50s": lambda: square_with_sinusoids(3),
}


@pytest.mark.parametrize("case", sorted(LINEAR_CASES))
def test_chunked_linear_matches_stepwise(case):
    """integrate's chunks, made by doubling with the powers of the augmented
    R, against y+ = R y + r one step at a time over the whole horizon, on
    every recorded quantity (a chunk of 64 states from 7 products against
    64 matrix-vector products)."""
    sc = LINEAR_CASES[case]()
    eng = Engine(sc)
    assert eng.n_prod == 0 and eng.operator_macs < OPERATOR_MAX_MACS
    X = rk4_map(*eng.product_form(), sc.h)[1]
    R, r = X[:, :-1], X[:, -1]
    n_steps = round(sc.t_final / sc.h)
    y = eng.initial_state()
    states = [y]
    for step in range(1, n_steps + 1):
        y = R @ y + r
        if step % sc.record_every == 0 or step == n_steps:
            states.append(y)
    ref = np.array(states)
    traj = integrate(sc)
    S = len(traj.times)
    assert ref.shape == (S, eng.dim)
    assert_close(traj.positions.reshape(S, -1), ref[:, eng.i_p : eng.i_vf])
    assert_close(
        traj.velocities[:, sc.n_l :].reshape(S, -1), ref[:, eng.i_vf : eng.i_eta]
    )
    assert_close(traj.eta.reshape(S, -1), ref[:, eng.i_eta : eng.i_var])
    assert_close(traj.vartheta.reshape(S, -1), ref[:, eng.i_var : eng.i_th])
    n, d = sc.n, sc.d
    ref_dist = pair_distances(ref[:, eng.i_p : eng.i_vf].reshape(S, n, d))
    assert_close(traj.min_dist, ref_dist.min(axis=1))


def crossing(mode, t_final=0.1):
    """Follower 3 starts 0.015 behind leader 2 and 2e-4 beside its path,
    30 units faster: it passes the leader inside the first step."""
    return make_scenario(
        geometry={
            "initial_positions": {"3": [0.985, 2e-4]},
            "initial_velocities": {"3": [30.5, 0.0]},
        },
        controller={"mode": mode, "kappa_v": 4.0},
        integration={"t_final": t_final},
    )


@pytest.mark.parametrize("mode", ["known", "adaptive"])
def test_crossing_within_one_step_is_a_collision(mode):
    """Both states of the first step keep the agents 0.015 apart, so the
    per-state reference passes that step; the closest approach on the
    segment between them is below the threshold, and names the step's
    two ends, the pair and that distance."""
    sc = crossing(mode)
    ref = reference_integrate(dataclasses.replace(crossing(mode, sc.h), record_every=1))
    assert ref.min_dist.min() > 10 * sc.collision_eps
    with pytest.raises(CollisionDetected) as info:
        integrate(sc)
    exc = info.value
    assert (exc.time, exc.until, exc.pair) == (0.0, sc.h, (2, 3))
    gap = ref.positions[:, 2] - ref.positions[:, 1]           # (2, d)
    e = gap[1] - gap[0]
    closest = np.linalg.norm(gap[0] - (gap[0] @ e) / (e @ e) * e)
    assert abs(exc.distance - closest) <= 1e-12
    assert exc.distance < sc.collision_eps
    assert str(exc).endswith("between t=0.000000 and t=0.001000")


@pytest.mark.parametrize("mode", ["known", "adaptive"])
def test_tight_broad_phase_without_contact(mode):
    """Follower 3 overtakes leader 2 about 5e-3 beside its path: within the
    first chunk its displacement exceeds their starting distance, so the
    broad phase's bound falls below the threshold, yet no state and no
    segment comes within it.  The run completes, and min_dist is the
    all-pairs minimum of every state, as a per-state check forms it."""
    sc = make_scenario(
        geometry={
            "initial_positions": {"3": [0.95, 4e-3]},
            "initial_velocities": {"3": [2.5, 0.0]},
        },
        controller={"mode": mode, "kappa_v": 4.0},
        integration={"t_final": 0.5, "record_every": 1},
    )
    traj = integrate(sc)
    dist = pair_distances(traj.positions)
    assert (traj.min_dist.view(np.int64) == dist.min(axis=1).view(np.int64)).all()
    assert_same_trajectory(traj, reference_integrate(sc))
    # the bound of the first chunk, from the state before it, with each
    # displacement taken relative to agent 1's
    moved = traj.positions[1 : CHECK_CHUNK + 1] - traj.positions[0]
    delta = np.linalg.norm(moved - moved[:, :1], axis=2).max(axis=0)
    iu, ju = np.triu_indices(sc.n, 1)
    bound = dist[0] - delta[iu] - delta[ju]
    assert bound.min() < sc.collision_eps < traj.min_dist.min() < 1e-2


def complete_formation(n, mode, t_final=0.5):
    """n agents of a complete graph in the plane with leaders 1 and 2, at
    seeded generic positions; each follower rejects a constant and one
    sinusoid of its own frequency, so the state dimension is 19 n - 34 in
    adaptive and 16 n - 28 in known mode."""
    rng = np.random.default_rng(n)
    while True:
        pos = np.round(rng.uniform(-n, n, size=(n, 2)), 6)
        dist = np.linalg.norm(pos[:, None] - pos[None], axis=-1) + np.eye(n)
        if dist.min() > 0.3:
            break
    agents, followers = range(1, n + 1), range(3, n + 1)
    data = copy.deepcopy(base_scenario_dict())
    data["graph"]["n_agents"] = n
    data["graph"]["edges"] = [[i, j] for i in agents for j in range(i + 1, n + 1)]
    data["geometry"]["desired_positions"] = {str(i): list(pos[i - 1]) for i in agents}
    data["geometry"]["initial_positions"] = {
        str(i): list(pos[i - 1] + 0.01) for i in followers
    }
    data["disturbances"] = {
        str(i): {
            "constant": [0.05, -0.05],
            "sinusoids": [
                {
                    "frequency": 1.0 + 0.1 * i,
                    "amplitudes": [0.02, 0.03],
                    "phases": [0.1 * i, 0.5],
                }
            ],
        }
        for i in followers
    }
    data["integration"] = {"step": 1e-3, "t_final": t_final, "record_every": 50}
    if mode == "adaptive":
        lam_min = float(np.linalg.eigvalsh(compile_scenario(data).laplacian.B_ff)[0])
        data["controller"] = {
            "mode": "adaptive",
            "kappa_p": 1.0,
            "kappa_v": 3.0 / lam_min,
            "adaptation_rate": 20.0,
        }
    return compile_scenario(data)


def law_terms(eng, y):
    """Magnitudes of the terms the law sums in the compensator rows,
    |M| |w| + |N| (kp |s_p| + kv |s_v| + |E| |w|), with |th| in place of |E|
    in adaptive mode.  At order 11 the entries of M and N E reach 1.5e8, so
    on a random state the law's own rounding of M w + N E w, a few eps of
    these, is about 1e-8 where M w + N E w itself is small."""
    s_p, s_v, w, th = eng._readouts(y)
    kp, kv = eng.sc.gains.kappa_p, eng.sc.gains.kappa_v
    u = (kp * np.abs(s_p) + kv * np.abs(s_v)).reshape(eng.n_f, 1, eng.d)
    u = u + (np.abs(th) if eng.adaptive else np.abs(eng.E3)) @ np.abs(w)
    terms = np.zeros(eng.dim)
    terms[eng.i_eta : eng.i_var] = (np.abs(eng.M3) @ np.abs(w) + eng.N3 * u).ravel()
    return terms


@pytest.mark.parametrize("case", sorted(CASES))
def test_pieces_compose_rhs(case):
    """rhs is the law at its readouts and product sums, and the probed
    product form y' = A y + b + D (z_a * z_b), [z_a; z_b] = C y + c, gives
    it back.  The product form sums dense rows, in another order than the
    law and after cancellations the law does not make (M + N E is small
    where M and N E are not), so its bound scales with the magnitude of
    the terms summed, both the product form's and the law's (law_terms)."""
    sc = CASES[case]()
    eng = Engine(sc)
    A, b, C, c, D = eng.product_form()
    n_p = eng.n_prod
    assert C.shape == (2 * n_p, eng.dim) and D.shape == (eng.dim, n_p)
    rng = np.random.default_rng(3)
    for y in [eng.initial_state()] + list(rng.standard_normal((5, eng.dim))):
        ref = eng.rhs(y)
        s_p, s_v, w, th = eng._readouts(y)
        law = eng._law(y, s_p, s_v, w)
        if n_p:
            z = eng._factors(s_p, s_v, w, th)
            law = eng._law(y, s_p, s_v, w, *eng._sums(z[:n_p] * z[n_p:]))
            assert_close(z, C @ y + c)
        assert np.all(np.abs(law - ref) <= 1e-14 * (1.0 + np.abs(ref)))
        z = C @ y + c
        p = z[:n_p] * z[n_p:]
        got = A @ y + b + D @ p
        terms = np.abs(A) @ np.abs(y) + np.abs(b) + np.abs(D) @ np.abs(p)
        terms += law_terms(eng, y)
        assert np.all(np.abs(got - ref) <= 1e-14 * (1.0 + terms))


OPERATOR_CASES = {
    "bundled_adaptive_5s": CASES["bundled_adaptive_5s"],
    "mixed_adaptive": mixed_adaptive,
    "mixed_adaptive_frozen": mixed_frozen,
    "below_bound": lambda: complete_formation(10, "adaptive"),
    "above_bound": lambda: complete_formation(12, "adaptive"),
}


@pytest.mark.parametrize("case", sorted(OPERATOR_CASES))
def test_operator_step_matches_staged(case):
    """The operator step against the staged Engine.rk4 over the whole
    horizon: on the bundled adaptive square at 5 s, on orders 1, 3 and 5,
    with theta_hat frozen, and on one formation on each side of
    OPERATOR_MAX_MACS (integrate takes the staged step on the second).
    The operator step is also driven in pieces of 1, 63, 64 and 65 states
    and then the rest, each from the state the last returned: the
    arithmetic of a step does not depend on how the steps are chunked, so
    the states are bitwise those of one call over the whole horizon."""
    sc = OPERATOR_CASES[case]()
    eng = Engine(sc)
    if case.endswith("_bound"):
        assert (eng.operator_macs < OPERATOR_MAX_MACS) == (case == "below_bound")
    n_steps = round(sc.t_final / sc.h)
    ys_op, ys_st, pieces = np.empty((3, n_steps, eng.dim))
    advance = eng.operator_step()
    advance(eng.initial_state(), ys_op)
    eng.rk4()(eng.initial_state(), ys_st)
    for row in range(sc.record_every - 1, n_steps, sc.record_every):
        assert_close(ys_op[row], ys_st[row])
    assert_close(ys_op[-1], ys_st[-1])

    assert n_steps > 1 + 63 + 64 + 65
    y, first = eng.initial_state(), 0
    for rows in (1, 63, 64, 65, n_steps):
        piece = pieces[first : first + rows]
        y = advance(y, piece)
        first += len(piece)
    assert first == n_steps
    assert pieces.tobytes() == ys_op.tobytes()
    assert y.tobytes() == ys_op[-1].tobytes()


def frozen(sc):
    """sc with each estimate frozen at half of its follower's row E."""
    return dataclasses.replace(
        sc, freeze_theta=True, theta_hat0=[0.5 * m.E for m in sc.models]
    )


# Terminal follower velocities of two frozen runs, recorded with the
# engine that skipped the w s products when the estimate was frozen (an
# engine with a second product layout for that case): the 5 s bundled
# adaptive square (operator step) and the 16-agent formation over 0.2 s
# (staged step, past OPERATOR_MAX_MACS).
FROZEN = {
    "square_5s": (
        lambda: frozen(CASES["bundled_adaptive_5s"]()),
        [0.50288085460589, 0.04187576833158295,
         0.4846289726247309, 0.015438983457603424],
    ),
    "formation_16": (
        lambda: frozen(complete_formation(16, "adaptive", t_final=0.2)),
        [0.5034121322003976, -0.0033501113760056322, 0.5041070514404082,
         -0.00018402274724890278, 0.5021075963554503, -0.001078489245826193,
         0.5021225462035177, -0.001059811846841916, 0.5021021680185478,
         -0.0010887202715606802, 0.5043896080554341, 0.00018637327339605505,
         0.503609468201693, -0.0028177693868552617, 0.5027221383335457,
         -0.0018330657213954504, 0.5051836081873552, -0.0022732592058814635,
         0.5028668828043857, -0.0015033202427052678, 0.5022585742869564,
         -0.001472066290774951, 0.5042885176492143, -0.001617880986684681,
         0.5034623232182328, -0.0008373873097781728, 0.5021139036844344,
         -0.0011288155673997613],
    ),
}


@pytest.mark.parametrize("case", sorted(FROZEN))
def test_frozen_estimate_is_zero_gain(case):
    """A frozen estimate runs as the adaptive law with zero adaptation
    gain: θ̂ stays bitwise constant, and the trajectory matches the one
    recorded before, on each side of OPERATOR_MAX_MACS."""
    make, ref = FROZEN[case]
    sc = make()
    eng = Engine(sc)
    assert (eng.operator_macs < OPERATOR_MAX_MACS) == (case == "square_5s")
    traj = integrate(sc)
    th0 = eng.initial_state()[eng.i_th :].reshape(sc.n_f, eng.m_max)
    assert (traj.theta_hat.view(np.int64) == th0.view(np.int64)).all()
    got = traj.velocities[-1, sc.n_l :].ravel()
    assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref)))


def test_swarm_size_known_takes_staged_step(monkeypatch):
    """A 64-agent known formation (state dim 996) is past OPERATOR_MAX_MACS:
    integrate steps it stage by stage, 4 rhs calls a step, and builds no
    operator (every evaluation of the law comes from rhs)."""
    sc = dataclasses.replace(
        complete_formation(64, "known"), t_final=0.005, record_every=1
    )
    assert Engine(sc).operator_macs >= OPERATOR_MAX_MACS
    calls = {"rhs": 0, "_law": 0}
    for name in calls:
        method = getattr(Engine, name)

        def counted(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(Engine, name, counted)
    traj = integrate(sc)
    assert len(traj.times) == 6
    assert calls == {"rhs": 4 * 5, "_law": 4 * 5}
