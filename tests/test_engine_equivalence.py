"""The stacked engine against the per-follower, per-step reference.

`ReferenceEngine` evaluates the closed loop with dense block-diagonal
operators and a Python loop over followers; `reference_integrate` takes one
RK4 step at a time through it and checks every state as it is made.  The
engine in `sim_engine` (batched right-hand side, exact RK4 propagator in the
linear modes, chunked checks) must agree with them to 1e-10 (1 + |ref|) on
every recorded quantity, and must fail at the same step with the same
report.  The post-processing keeps its per-sample forms here too: the xi
oracle with one expm per follower and sample, and the targets localized
from the leaders at every sample.
"""

import copy
import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

from bearing_forge import bundled_scenario
from bearing_forge.errors import CollisionDetected, NonFiniteState
from bearing_forge.formation_graph import localize_followers
from bearing_forge.scenario import compile_scenario, load_scenario, parse_config
from bearing_forge.sim_engine import (
    CHECK_CHUNK,
    Engine,
    Trajectory,
    build_certificate,
    integrate,
    lyapunov_monitor,
    metrics,
    stack_follower_blocks,
    xi_oracle,
)

from conftest import base_scenario_dict, make_scenario

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
    return Trajectory(
        times=np.array(times),
        positions=arr[:, eng.i_p : eng.i_vf].reshape(S, n, d),
        velocities=velocities,
        eta=arr[:, eng.i_eta : eng.i_var],
        vartheta=arr[:, eng.i_var : eng.i_th],
        theta_hat=arr[:, eng.i_th :],
        min_dist=np.array(dists),
        step=h,
    )


def reference_xi_oracle(traj, sc):
    """Per-follower, per-sample expm(M t) xi(0) with dense xi samples."""
    d = sc.d
    eye_d = np.eye(d)
    T_blk = sla.block_diag(*[np.kron(m.T, eye_d) for m in sc.models])
    N_blk = sla.block_diag(*[np.kron(m.N.reshape(-1, 1), eye_d) for m in sc.models])
    v_f = traj.velocities[:, sc.n_l :, :].reshape(len(traj.times), -1)
    xi = traj.eta + traj.vartheta @ T_blk.T - v_f @ N_blk.T
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


def reference_lyapunov(traj, cert, sc, xi):
    """Per-sample V with the targets localized from the leaders each time."""
    lam_inv = sla.block_diag(*[np.linalg.inv(np.atleast_2d(L)) for L in sc.lambdas])
    theta_true = np.concatenate([m.E for m in sc.models])
    V = np.empty(len(traj.times))
    for s, t in enumerate(traj.times):
        p_l = sc.p_star0[: sc.n_l] + t * sc.v_c
        p_f, _ = localize_followers(sc.laplacian, p_l, sc.v_c)
        p_t = traj.positions[s, sc.n_l :, :] - p_f
        v_t = traj.velocities[s, sc.n_l :, :] - sc.v_c
        x_t = np.concatenate([p_t.ravel(), v_t.ravel()])
        th_t = theta_true - traj.theta_hat[s]
        V[s] = (
            x_t @ cert.P_c @ x_t
            + cert.gamma * (xi[s] @ cert.G_c @ xi[s])
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


def mixed_order_scenario(**controller):
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
    data["disturbances"] = MIXED_DISTURBANCES
    data["controller"].update(controller)
    data["integration"] = {"step": 1e-3, "t_final": 2.0, "record_every": 50}
    return compile_scenario(parse_config(data))


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
    # feedback_only rejects disturbances at load time, which would leave
    # every follower at order 1; swapping the mode into the compiled
    # scenario keeps the mixed-order exosystems and compensators.
    return dataclasses.replace(mixed_order_scenario(), mode="feedback_only")


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
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_trajectory_matches_reference(case):
    sc = CASES[case]()
    assert_same_trajectory(integrate(sc), reference_integrate(sc))


@pytest.mark.parametrize("case", ["mixed_known", "mixed_adaptive"])
def test_post_processing_matches_reference(case):
    """xi oracle (one expm per distinct M), Lyapunov monitor and error norms
    (closed-form targets) against their per-follower, per-sample forms."""
    sc = CASES[case]()
    traj = integrate(sc)
    ref_dev, xi = reference_xi_oracle(traj, sc)
    assert abs(xi_oracle(traj, sc) - ref_dev) <= 1e-12
    err_p = metrics(traj, sc)["err_p"]
    for s, t in enumerate(traj.times):
        p_l = sc.p_star0[: sc.n_l] + t * sc.v_c
        p_f, _ = localize_followers(sc.laplacian, p_l, sc.v_c)
        ref = np.linalg.norm(traj.positions[s, sc.n_l :, :] - p_f, axis=1)
        assert_close(err_p[s], ref)
    if sc.mode == "adaptive":
        cert = build_certificate(
            sc.laplacian.B_ff, sc.gains, *stack_follower_blocks(sc.models, sc.d)
        )
        assert_close(
            lyapunov_monitor(traj, cert, sc), reference_lyapunov(traj, cert, sc, xi)
        )


@pytest.mark.parametrize("case", sorted(CASES))
def test_rhs_matches_reference(case):
    sc = CASES[case]()
    eng, ref = Engine(sc), ReferenceEngine(sc)
    assert eng.dim == ref.dim
    np.testing.assert_array_equal(eng.d_idx, ref.d_idx)
    rng = np.random.default_rng(7)
    for y in [eng.initial_state()] + list(rng.standard_normal((5, eng.dim))):
        assert_close(eng.rhs(y), ref.rhs(y))


def test_mixed_orders_are_padded():
    eng = Engine(mixed_adaptive())
    assert eng.orders == [1, 3, 5]
    assert eng.eta_idx is not None and eng.th_idx is not None


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


@pytest.mark.parametrize("mode", ["known", "adaptive"])
def test_divergence_matches_reference(mode):
    """Gains far outside the RK4 stability region for h = 1e-3 blow up."""
    sc = make_scenario(
        geometry={"initial_positions": {"3": [1.01, 0.99]}},
        controller={"mode": mode, "kappa_p": 1e4, "kappa_v": 1e4},
        integration={"t_final": 1.0},
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteState) as ref_info:
            reference_integrate(sc)
        with pytest.raises(NonFiniteState) as got_info:
            integrate(sc)
    assert str(got_info.value) == str(ref_info.value)
    assert round(float(str(ref_info.value).split("t=")[1]) / sc.h) > CHECK_CHUNK
