"""The stacked engine against the per-follower, per-step reference.

`ReferenceEngine` evaluates the closed loop with dense block-diagonal
operators and a Python loop over followers; `reference_integrate` takes one
RK4 step at a time through it and checks every state as it is made.  The
engine in `sim_engine` (batched right-hand side, exact RK4 operator step in
product coordinates below OPERATOR_MAX_MACS, chunked checks) must agree with
them to 1e-10 (1 + |ref|) on every recorded quantity, and must fail at the
same step with the same report.  The operator step must also agree with the
staged `Engine.rk4` on formations on both sides of that bound, and the
pieces of the law that it probes must compose to the law (`rhs`).  The
post-processing keeps its per-sample forms here too: the xi oracle with
one expm per follower and sample, the targets localized from the leaders
at every sample, and the Lyapunov certificate from the dense
block-diagonal M_f and E_f.
"""

import copy
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from bearing_forge import bundled_scenario, cli, sim_engine
from bearing_forge.errors import CollisionDetected, NonFiniteState
from bearing_forge.formation_graph import localize_followers
from bearing_forge.rk4_operator import rk4_map
from bearing_forge.scenario import compile_scenario, load_scenario
from bearing_forge.sim_engine import (
    CHECK_CHUNK,
    OPERATOR_MAX_MACS,
    Engine,
    Trajectory,
    integrate,
    lyapunov_monitor,
    metrics,
    xi_oracle,
)

from conftest import (
    base_scenario_dict,
    dense_G_c,
    dense_P_c,
    dense_Q,
    make_scenario,
    per_follower,
    per_follower_blocks,
    reference_order,
    replace,
    rhs,
    trajectory_fields,
)

TOL = 1e-10


class ReferenceEngine:
    """Closed loop with dense block operators and a loop over followers."""

    def __init__(self, sc):
        n, d, n_l, n_f = sc.n, sc.d, sc.n_l, sc.n_f
        self.sc = sc
        self.n, self.d, self.n_l, self.n_f = n, d, n_l, n_f
        self.models = models = per_follower(sc)
        self.orders = [m.order for m in models]
        self.q_f = sum(self.orders) * d
        self.K = sum(self.orders) if sc.mode == "adaptive" else 0
        self.Bf = sc.laplacian.B[n_l * d :, :]
        self.vc_tile = np.tile(sc.v_c, n_l)

        eye_d = np.eye(d)
        self.M_blk = sla.block_diag(*[np.kron(m.M, eye_d) for m in models])
        self.N_blk = sla.block_diag(
            *[np.kron(m.N.reshape(-1, 1), eye_d) for m in models]
        )
        self.MN_blk = sla.block_diag(
            *[np.kron((m.M @ m.N).reshape(-1, 1), eye_d) for m in models]
        )
        self.Phi_blk = sla.block_diag(*[np.kron(m.Phi, eye_d) for m in models])
        self.E_blk = sla.block_diag(
            *[np.kron(m.E.reshape(1, -1), eye_d) for m in models]
        )
        self.d_idx = np.concatenate(
            [off + np.arange(d) for off in np.cumsum([0] + self.orders[:-1]) * d]
        )
        offs = np.cumsum([0] + self.orders) * d
        self.blk_slices = [slice(a, b) for a, b in zip(offs[:-1], offs[1:])]
        ks = np.cumsum([0] + self.orders)
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
            u = self.E_blk @ w - sc.kappa_p * s_p - sc.kappa_v * s_v
        elif sc.mode == "adaptive":
            th = y[self.i_th :]
            u = -sc.kappa_p * s_p - sc.kappa_v * s_v
            for i in range(n_f):
                Wi = w[self.blk_slices[i]].reshape(self.orders[i], d)
                th_i = th[self.th_slices[i]]
                u[i * d : (i + 1) * d] += th_i @ Wi
                if sc.freeze_theta:
                    dy[self.i_th :][self.th_slices[i]] = 0.0
                else:
                    s_i = s_p[i * d : (i + 1) * d] + s_v[i * d : (i + 1) * d]
                    dy[self.i_th :][self.th_slices[i]] = -self.models[i].Lam @ (Wi @ s_i)
        else:  # feedback_only
            u = -sc.kappa_p * s_p - sc.kappa_v * s_v

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
    y[eng.i_eta : eng.i_var] = np.concatenate([m.eta0 for m in eng.models])
    y[eng.i_var : eng.i_th] = np.concatenate([m.theta0 for m in eng.models])
    if eng.K:
        y[eng.i_th :] = np.concatenate([m.theta_hat0 for m in eng.models])

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
    # the compensator blocks in the Trajectory's per-group layout
    stacked = Engine(sc)
    states = np.empty_like(arr)
    states[:, reference_order(stacked)] = arr
    eta, vartheta, theta_hat = zip(*stacked.blocks(states))
    return Trajectory(
        times=np.array(times),
        positions=arr[:, eng.i_p : eng.i_vf].reshape(S, n, d),
        velocities=velocities,
        eta=eta,
        vartheta=vartheta,
        theta_hat=theta_hat,
        min_dist=np.array(dists),
    )


def packed(blocks, sc):
    """The packed form (S, K) of a Trajectory's per-group blocks: each
    follower's blocks flat, in follower order."""
    return np.concatenate(
        [b.reshape(len(b), -1) for b in per_follower_blocks(blocks, sc)], axis=1
    )


def reference_xi_oracle(traj, sc):
    """Per-follower, per-sample expm(M t) xi(0) with dense xi samples."""
    d, models = sc.d, per_follower(sc)
    eye_d = np.eye(d)
    T_blk = sla.block_diag(*[np.kron(m.T, eye_d) for m in models])
    N_blk = sla.block_diag(*[np.kron(m.N.reshape(-1, 1), eye_d) for m in models])
    v_f = traj.velocities[:, sc.n_l :, :].reshape(len(traj.times), -1)
    eta, var = packed(traj.eta, sc), packed(traj.vartheta, sc)
    xi = eta + var @ T_blk.T - v_f @ N_blk.T
    max_dev, off = 0.0, 0
    for model in models:
        m = model.order
        blk = xi[:, off : off + m * d]
        xi0 = blk[0].reshape(m, d)
        for t, row in zip(traj.times, blk):
            ref = sla.expm(model.M * t) @ xi0
            max_dev = max(max_dev, np.linalg.norm(row.reshape(m, d) - ref))
        off += m * d
    return max_dev, xi


def reference_certificate(sc):
    """lambda_min(Q), G_c and gamma_sigma from the dense stacked operators:
    eigvalsh of the assembled Q, one Lyapunov solve on the full
    blkdiag(M_i kron I_d), and gamma_sigma from P_c B_c E_f with the dense
    P_c and E_f."""
    B_ff, nfd = sc.laplacian.B_ff, sc.n_f * sc.d
    kp, kv = sc.kappa_p, sc.kappa_v
    lam_Q = np.linalg.eigvalsh(dense_Q(B_ff, kp, kv))[0]
    P_c = dense_P_c(B_ff, kp, kv)
    eye_d, models = np.eye(sc.d), per_follower(sc)
    M_f = sla.block_diag(*[np.kron(m.M, eye_d) for m in models])
    E_f = sla.block_diag(*[np.kron(m.E.reshape(1, -1), eye_d) for m in models])
    G_c = sla.solve_continuous_lyapunov(M_f.T, -np.eye(M_f.shape[0]))
    G_c = 0.5 * (G_c + G_c.T)
    PBE = P_c[:, nfd:] @ E_f
    gamma_sigma = np.linalg.eigvalsh(PBE @ PBE.T)[-1] / lam_Q
    return {
        "lambda_min_Qc": lam_Q, "G_c": G_c, "gamma_sigma": gamma_sigma
    }


def reference_lyapunov(traj, cert, sc, xi):
    """Per-sample V with the targets localized from the leaders each time and
    the dense P_c, G_c and block-diagonal Lam^-1."""
    models = per_follower(sc)
    P_c = dense_P_c(sc.laplacian.B_ff, sc.kappa_p, sc.kappa_v)
    lam_inv = sla.block_diag(*[np.linalg.inv(m.Lam) for m in models])
    theta_true = np.concatenate([m.E for m in models])
    G_c = dense_G_c(cert, models, sc.d)
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
            x_t @ P_c @ x_t
            + cert.gamma * (xi[s] @ G_c @ xi[s])
            + th_t @ lam_inv @ th_t
        )
    return V


def assert_close(got, ref):
    assert np.shape(got) == np.shape(ref)
    assert np.all(np.abs(got - ref) <= TOL * (1.0 + np.abs(ref)))


def assert_same_trajectory(traj, ref):
    got, want = dict(trajectory_fields(traj)), dict(trajectory_fields(ref))
    assert got.keys() == want.keys()
    for field in want:
        assert_close(got[field], want[field])


# Pentagon-like formation on a complete graph whose three followers carry
# disturbances of orders r = 0, 1, 2, so the state holds three groups.
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
        for i, m in zip(range(known.n_l + 1, known.n + 1), per_follower(known))
    }
    return mixed_adaptive(freeze_theta=True, theta_hat_init=init)


def mixed_feedback_only():
    return mixed_order_scenario(mode="feedback_only")


# Orders 1, 3 and 1: the followers of order 1 are not consecutive, so the
# groups' order is not the followers' order, and the engine gathers u back
# into follower order by index.
INTERLEAVED_DISTURBANCES = {**MIXED_DISTURBANCES, "5": {"constant": [0.05, 0.1]}}


def interleaved_adaptive():
    known = mixed_order_scenario(INTERLEAVED_DISTURBANCES)
    lam_min = float(known.laplacian.ff_eigenvalues[0])
    return mixed_order_scenario(
        INTERLEAVED_DISTURBANCES,
        mode="adaptive", kappa_v=3.0 / lam_min, adaptation_rate=20.0,
    )


# The unit square whose followers reject a constant (r = 0, order 1) and
# five sinusoids (r = 5, order 11): the orders differ most.
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


# The committed 3-D cube: follower 4 rejects five sinusoids (order 11) and
# followers 3 and 5-8 one each (order 3), so the groups' order is not the
# followers' order.  Its state has 198 entries in known mode and 224 in
# adaptive mode.
CUBE = Path(__file__).parent / "data" / "cube_mixed.json"


def cube(mode, t_final=0.5):
    return load_scenario(CUBE, {"mode": mode, "t_final": t_final})


CASES = {
    "bundled_known_10s": lambda: load_scenario(
        bundled_scenario("square_known"), {"t_final": 10.0}
    ),
    "bundled_adaptive_5s": lambda: load_scenario(
        bundled_scenario("square_adaptive"), {"t_final": 5.0}
    ),
    "interleaved_adaptive": interleaved_adaptive,
    "mixed_known": mixed_order_scenario,
    "mixed_adaptive": mixed_adaptive,
    "mixed_adaptive_frozen": mixed_frozen,
    "mixed_feedback_only": mixed_feedback_only,
    "skewed_known": skewed_scenario,
    "skewed_adaptive": lambda: skewed_scenario("adaptive"),
    "cube_known": lambda: cube("known"),
    "cube_adaptive": lambda: cube("adaptive"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_trajectory_matches_reference(case):
    sc = CASES[case]()
    assert_same_trajectory(integrate(sc), reference_integrate(sc))


@pytest.mark.parametrize(
    "case", ["bundled_adaptive_5s", "interleaved_adaptive", "mixed_known", "mixed_adaptive"]
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
        cert = sc.certificate
        for name, ref in reference_certificate(sc).items():
            if name == "G_c":
                got = dense_G_c(cert, per_follower(sc), sc.d)
            else:
                got = getattr(cert, name)
            assert np.shape(got) == np.shape(ref)
            assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref))), name
        assert_close(lyapunov_monitor(traj, sc), reference_lyapunov(traj, cert, sc, xi))


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
    assert [m.order for m in per_follower(sc)] == [3, 3, 3]
    traj = integrate(sc)
    _, xi = reference_xi_oracle(traj, sc)
    assert_close(
        lyapunov_monitor(traj, sc), reference_lyapunov(traj, sc.certificate, sc, xi)
    )


@pytest.mark.parametrize("case", ["interleaved_adaptive", "swarm"])
def test_certificate_weights_are_one_dot_each(case):
    """gamma_sigma weighs B_ff by |E_i|^2, formed per group by a batched
    product that rounds as the 1-D dot E_i @ E_i of each follower: the
    certificate is bitwise the one from per-follower dots."""
    sc = complete_formation(64, "adaptive") if case == "swarm" else CASES[case]()
    B_ff, mu = sc.laplacian.B_ff, float(sc.laplacian.ff_eigenvalues[0])
    lam_Q = 2.0 * mu * min(sc.kappa_p * mu, sc.kappa_v * mu - 1.0)
    e2 = np.repeat([m.E @ m.E for m in per_follower(sc)], sc.d)
    gamma_sigma = float(2.0 * np.linalg.eigvalsh((B_ff * e2) @ B_ff)[-1] / lam_Q)
    assert sc.certificate.gamma_sigma == gamma_sigma


def test_certificate_on_a_swarm():
    """On a 64-agent adaptive complete formation, lambda_min(Q) from the
    spectrum of B_ff is within the backward error of a stable eigvalsh,
    1e-14 ||Q||_2, of the dense decomposition of the assembled Q."""
    sc = complete_formation(64, "adaptive")
    cert = sc.certificate
    dense = np.linalg.eigvalsh(dense_Q(sc.laplacian.B_ff, sc.kappa_p, sc.kappa_v))
    assert abs(cert.lambda_min_Qc - dense[0]) <= 1e-14 * np.abs(dense).max()


def test_oracle_report_forms_no_square_of_the_follower_block():
    """On a 64-agent adaptive complete formation, the oracle report's
    tracemalloc peak stays below 3 B_ff.nbytes, with gamma_sigma's eigvalsh
    taken in it: no B_ff @ B_ff and no (2 n_f d)^2 P_c is formed."""
    sc = complete_formation(64, "adaptive")
    traj = integrate(sc)
    cli._bind_run_only()
    tracemalloc.start()
    try:
        cli.oracle_report(sc, traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "gamma_sigma" in vars(sc.certificate)
    assert peak < 3 * sc.laplacian.B_ff.nbytes


def one_chunk_swarm(mode):
    """The 64-agent complete formation over one chunk, every state recorded."""
    return replace(
        complete_formation(64, mode, t_final=CHECK_CHUNK * 1e-3), record_every=1
    )


BOUND_CASES = {
    **CASES,
    "swarm_known": lambda: one_chunk_swarm("known"),
    "swarm_adaptive": lambda: one_chunk_swarm("adaptive"),
}


@pytest.mark.parametrize("case", sorted(BOUND_CASES))
def test_rhs_matches_reference(case):
    """On the initial state and on random packed states of the reference,
    each read into the engine's layout through the permutation
    `reference_order`.  The law bound once to fixed buffers, as the staged
    step binds it, and evaluated on each state copied into its input,
    writes bitwise rhs."""
    sc = BOUND_CASES[case]()
    eng, ref = Engine(sc), ReferenceEngine(sc)
    to_ref = reference_order(eng)
    assert eng.dim == sc.state_dim == ref.dim
    assert np.sort(to_ref).tolist() == list(range(eng.dim))
    y_buf, dy_buf = np.empty((2, eng.dim))
    law = eng._bind(y_buf, dy_buf)
    rng = np.random.default_rng(7)
    random = np.empty((5, eng.dim))
    random[:, to_ref] = rng.standard_normal((5, ref.dim))
    for y in [eng.initial_state()] + list(random):
        dy = rhs(eng, y)
        assert_close(dy[to_ref], ref.rhs(y[to_ref]))
        y_buf[:] = y
        law()
        assert dy_buf.tobytes() == dy.tobytes()


def test_mixed_orders_are_unpadded():
    """Orders 1, 3 and 5 are held unpadded: the state has m_i rows of eta
    and of vartheta, and m_i estimates, for each follower i, and it starts
    as the reference's packed state, read through `reference_order`.  On
    the cube (followers of orders 3 and 11) the state has 198 entries in
    known mode and 224 in adaptive mode."""
    sc = mixed_adaptive()
    eng, ref = Engine(sc), ReferenceEngine(sc)
    n_f, d = sc.n_f, sc.d
    assert [m.order for m in ref.models] == [1, 3, 5]
    assert eng.dim == sc.state_dim == ref.dim == (sc.n + n_f) * d + 9 * (2 * d + 1)
    models = ref.models
    packed = np.concatenate(
        [sc.p0.ravel(), sc.v_f0.ravel(), *[m.eta0 for m in models],
         *[m.theta0 for m in models], *[m.theta_hat0 for m in models]]
    )
    assert eng.initial_state()[reference_order(eng)].tobytes() == packed.tobytes()
    assert [cube(mode).state_dim for mode in ("known", "adaptive")] == [198, 224]


def test_interleaved_orders_are_indexed():
    """With orders 1, 3 and 1, the groups' order (followers 3 and 5, then 4)
    is not the followers' order: the state holds the groups' blocks in
    that order, and u is gathered back into follower order by an index.
    Where the orders agree, as with orders 1, 3 and 5, there is no
    gather."""
    sc = interleaved_adaptive()
    eng = Engine(sc)
    assert [g.idx.tolist() for g in sc.groups] == [[0, 2], [1]]
    assert eng.order.tolist() == [0, 1, 4, 5, 2, 3]
    assert Engine(mixed_adaptive()).order is None
    y = eng.initial_state()
    for g, (eta, var, th) in zip(sc.groups, eng.blocks(y)):
        assert eta.tobytes() == g.eta0.tobytes()
        assert var.tobytes() == g.theta0.tobytes()
        assert th.tobytes() == g.theta_hat0.tobytes()


def reference_states(sc):
    """The states after t = 0 of reference_integrate (sc with record_every
    1), in the engine's layout."""
    ref = reference_integrate(sc)
    return np.concatenate(
        [x.reshape(len(ref.times), -1) for x in (
            ref.positions, ref.velocities[:, sc.n_l :],
            *ref.eta, *ref.vartheta, *ref.theta_hat,
        )],
        axis=1,
    )[1:]


@pytest.mark.parametrize("case", ["skewed_known", "skewed_adaptive"])
def test_mixed_order_steppers_match_reference(case):
    """Both chunk advances, the operator step and the staged Engine.rk4,
    driven a chunk at a time from the initial state, against one RK4 step
    at a time through ReferenceEngine on every state, on followers of
    orders 1 and 11."""
    sc = replace(CASES[case](), record_every=1)
    eng = Engine(sc)
    ref_states = reference_states(sc)
    for advance in (eng.operator_step(), eng.rk4()):
        y, chunk = eng.initial_state(), np.empty((CHECK_CHUNK, eng.dim))
        for first in range(0, sc.n_steps, CHECK_CHUNK):
            rows = chunk[: min(CHECK_CHUNK, sc.n_steps - first)]
            y = advance(y, rows)
            assert_close(rows, ref_states[first : first + len(rows)])


@pytest.mark.parametrize("case", sorted(CASES))
def test_buffered_rk4_is_plain_rk4(case):
    """The staged Engine.rk4, which forms its stages in preallocated
    buffers, against RK4 written with fresh arrays on rhs: over two
    chunks, each from the state the last returned, the states are bitwise
    equal.  The advance leaves its input alone and returns a copy of the
    last state, which the next chunk may overwrite."""
    sc = CASES[case]()
    eng = Engine(sc)
    h = sc.h
    y = y0 = eng.initial_state()
    ref = []
    for _ in range(5 + 3):
        k1 = rhs(eng, y)
        k2 = rhs(eng, y + 0.5 * h * k1)
        k3 = rhs(eng, y + 0.5 * h * k2)
        k4 = rhs(eng, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ref.append(y)
    advance, got = eng.rk4(), np.empty((8, eng.dim))
    start = y0.copy()
    last = advance(start, got[:5])
    assert start.tobytes() == y0.tobytes()
    assert last.tobytes() == got[4].tobytes() and not np.shares_memory(last, got)
    advance(last, got[5:])
    assert got.tobytes() == np.array(ref).tobytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_rhs_into_a_buffer(case):
    """rhs(y, out=buf) returns buf holding bitwise rhs(y), and reads y only."""
    sc = CASES[case]()
    eng = Engine(sc)
    rng = np.random.default_rng(11)
    buf = np.full(eng.dim, np.nan)
    for y in [eng.initial_state()] + list(rng.standard_normal((3, eng.dim))):
        before = y.copy()
        assert rhs(eng, y, out=buf) is buf
        assert buf.tobytes() == rhs(eng, y).tobytes()
        assert y.tobytes() == before.tobytes()


@pytest.mark.parametrize("mode", ["known", "adaptive"])
def test_staged_chunk_on_a_swarm_matches_reference(mode):
    """One chunk of the staged step on the 64-agent complete formation,
    which integrate steps stage by stage, against one RK4 step at a time
    through ReferenceEngine on every state."""
    sc = one_chunk_swarm(mode)
    eng = Engine(sc)
    assert eng.operator_macs >= OPERATOR_MAX_MACS and sc.n_steps == CHECK_CHUNK
    chunk = np.empty((CHECK_CHUNK, eng.dim))
    eng.rk4()(eng.initial_state(), chunk)
    assert_close(chunk, reference_states(sc))


def test_staged_chunk_allocates_no_state():
    """After a warm-up chunk, one staged chunk on the 64-agent adaptive
    formation allocates less than two states at its peak: the returned copy
    of the last state is one, so no stage, slope or readout of the state's
    size is allocated."""
    eng = Engine(complete_formation(64, "adaptive"))
    advance, chunk = eng.rk4(), np.empty((CHECK_CHUNK, eng.dim))
    y = advance(eng.initial_state(), chunk)
    tracemalloc.start()
    try:
        advance(y, chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eng.dim * 8 <= peak < 2 * eng.dim * 8


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
    11.  The step gate rejects such gains at load, so they
    are set after it."""
    mixed = mode.startswith("mixed_")
    sc = make_scenario(
        geometry={"initial_positions": {"3": [1.01, 0.99]}},
        disturbances=SKEWED_DISTURBANCES if mixed else {},
        controller={"mode": mode.removeprefix("mixed_"), "kappa_v": 4.0},
        integration={"t_final": 1.0},
    )
    sc = replace(sc, kappa_p=1e4, kappa_v=1e4)
    assert (len(sc.groups) > 1) == mixed
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


def test_staged_replay_completes_what_the_operator_step_cannot(monkeypatch):
    """The replay also rescues runs: with follower 3 of the adaptive square
    starting at 1e150 m/s, the operator step's first state is already
    non-finite, but the staged steps stay finite, and integrate returns
    their trajectory bitwise."""
    with open(bundled_scenario("square_adaptive")) as fh:
        data = json.load(fh)
    data["geometry"]["initial_velocities"]["3"] = [1e150, 0]
    data["integration"]["t_final"] = 0.2
    sc = compile_scenario(data)
    eng = Engine(sc)
    assert eng.operator_macs < sim_engine.OPERATOR_MAX_MACS
    first = np.empty((1, eng.dim))
    with np.errstate(over="ignore", invalid="ignore"):
        eng.operator_step()(eng.initial_state(), first)
    assert not np.isfinite(first).all()
    got = integrate(sc)
    monkeypatch.setattr(sim_engine, "OPERATOR_MAX_MACS", 0)
    staged = integrate(sc)
    for (name, a), (_, b) in zip(trajectory_fields(got), trajectory_fields(staged)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


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
    for blocks, (lo, hi) in ((traj.eta, (eng.i_eta, eng.i_var)),
                             (traj.vartheta, (eng.i_var, eng.i_th))):
        assert_close(np.concatenate([b.reshape(S, -1) for b in blocks], 1), ref[:, lo:hi])
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
    ref = reference_integrate(replace(crossing(mode, sc.h), record_every=1))
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
    return compile_scenario(complete_formation_data(n, mode, t_final))


def complete_formation_data(n, mode, t_final=0.5):
    """The scenario dict of complete_formation."""
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
    return data


def law_terms(eng, y):
    """Magnitudes of the terms the law sums in the compensator rows,
    |M| |w| + |N| (kp |s_p| + kv |s_v| + |E| |w|), with |th| in place of |E|
    in adaptive mode.  At order 11 the entries of M and N E reach 1.5e8, so
    on a random state the law's own rounding of M w + N E w, a few eps of
    these, is about 1e-8 where M w + N E w itself is small."""
    rhs(eng, y)
    (s_p, s_v), w = eng._bufs[1], eng._bufs[3]
    sc, d = eng.sc, eng.d
    # s_p, s_v and w are in group order, as the state's blocks (Engine)
    u = (sc.kappa_p * np.abs(s_p) + sc.kappa_v * np.abs(s_v)).reshape(eng.n_f, 1, d)
    W = np.zeros(eng.dim)
    W[eng.i_eta : eng.i_var] = w.ravel()
    terms, f0 = np.zeros(eng.dim), 0
    for g, (rows, _, _), (w_g, _, _), (_, _, th) in zip(
        sc.groups, eng.blocks(terms), eng.blocks(W), eng.blocks(y)
    ):
        f1 = f0 + len(g.idx)
        coef = th if eng.adaptive else g.E if sc.mode == "known" else 0.0 * g.E
        u_g = u[f0:f1] + np.abs(coef)[:, None] @ np.abs(w_g)
        rows[:] = np.abs(g.M) @ np.abs(w_g) + np.abs(g.N)[:, None] * u_g
        f0 = f1
    return terms


@pytest.mark.parametrize("case", sorted(CASES))
def test_pieces_compose_rhs(case):
    """rhs is the law with its product sums held at the sums of its own
    factors' products, and the probed product form y' = A y + b +
    D (z_a * z_b), [z_a; z_b] = C y + c, gives it back.  The product form
    sums dense rows, in another order than the law and after cancellations
    the law does not make (M + N E is small where M and N E are not), so
    its bound scales with the magnitude of the terms summed, both the
    product form's and the law's (law_terms)."""
    sc = CASES[case]()
    eng = Engine(sc)
    A, b, C, c, D = eng.product_form()
    n_p = eng.n_prod
    assert C.shape == (2 * n_p, eng.dim) and D.shape == (eng.dim, n_p)
    tw, ws = eng._bufs[4:6]
    rng = np.random.default_rng(3)
    for y in [eng.initial_state()] + list(rng.standard_normal((5, eng.dim))):
        ref = rhs(eng, y)
        law = np.empty(eng.dim)
        if n_p:
            z = eng._factors(y)
            assert_close(z, C @ y + c)
            tw[:], ws[:] = eng._sums(z[:n_p] * z[n_p:])
        eng._bind(y, law, sums=False)()
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


def test_operator_chunk_allocates_no_state():
    """After a warm-up chunk, one operator chunk on the 10-agent adaptive
    formation, which integrate steps by the operator, allocates less than
    two states at its peak: the returned copy of the last state is one, so
    no step keeps a state-sized row of its own."""
    eng = Engine(OPERATOR_CASES["below_bound"]())
    assert eng.operator_macs < OPERATOR_MAX_MACS and eng.n_prod
    advance, chunk = eng.operator_step(), np.empty((CHECK_CHUNK, eng.dim))
    y = advance(eng.initial_state(), chunk)
    tracemalloc.start()
    try:
        advance(y, chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eng.dim * 8 <= peak < 2 * eng.dim * 8


@pytest.mark.parametrize("case", ["bundled_known_10s", "bundled_adaptive_5s"])
def test_operator_advance_only_reads_its_input(case):
    """Both operator advances, by doubling and step by step: y is left as it
    was, also when it is a row of out; the returned state is a copy that
    the next call's out does not overwrite; and a chunk from a row of out
    is bitwise the chunk from a copy of that row."""
    eng = Engine(CASES[case]())
    advance = eng.operator_step()
    y0 = eng.initial_state()
    before = y0.copy()
    first, again = np.empty((2, CHECK_CHUNK, eng.dim))
    last = advance(y0, first)
    assert y0.tobytes() == before.tobytes()
    kept = last.copy()
    assert kept.tobytes() == first[-1].tobytes()
    advance(kept, again)
    assert kept.tobytes() == last.tobytes()
    advance(first[-1], first)
    assert first.tobytes() == again.tobytes()
    assert last.tobytes() == kept.tobytes()


def frozen(sc):
    """sc with each estimate frozen at half of its follower's row E."""
    groups = [replace(g, theta_hat0=0.5 * g.E) for g in sc.groups]
    return replace(sc, freeze_theta=True, groups=groups)


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
    for th, (_, _, th0) in zip(traj.theta_hat, eng.blocks(eng.initial_state()), strict=True):
        assert (th.view(np.int64) == th0.view(np.int64)).all()
    got = traj.velocities[-1, sc.n_l :].ravel()
    assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref)))


def test_swarm_size_known_takes_staged_step(monkeypatch):
    """A 64-agent known formation (state dim 996) is past OPERATOR_MAX_MACS:
    integrate steps it stage by stage, 4 evaluations of the law a step, and
    builds no operator: the law is bound 4 times, once per stage of the one
    staged stepper, and every evaluation comes from those bindings."""
    sc = replace(
        complete_formation(64, "known"), t_final=0.005, record_every=1
    )
    assert Engine(sc).operator_macs >= OPERATOR_MAX_MACS
    calls = {"_bind": 0, "law": 0, "product_form": 0}
    bind, product_form = Engine._bind, Engine.product_form

    def counted_bind(self, *args, **kwargs):
        calls["_bind"] += 1
        law = bind(self, *args, **kwargs)

        def counted_law():
            calls["law"] += 1
            law()

        return counted_law

    def counted_product_form(self):
        calls["product_form"] += 1
        return product_form(self)

    monkeypatch.setattr(Engine, "_bind", counted_bind)
    monkeypatch.setattr(Engine, "product_form", counted_product_form)
    traj = integrate(sc)
    assert len(traj.times) == 6
    assert calls == {"_bind": 4, "law": 4 * 5, "product_form": 0}
