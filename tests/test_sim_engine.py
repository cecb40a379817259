import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

from bearing_forge import bundled_scenario
from bearing_forge.control_laws import ControllerGains
from bearing_forge.disturbance import DisturbanceSpec, disturbance_eval
from bearing_forge.errors import CollisionDetected, NonFiniteState
from bearing_forge.formation_graph import localize_followers
from bearing_forge.internal_model import InternalModel
from bearing_forge.scenario import compile_scenario, load_scenario
from bearing_forge.sim_engine import (
    Engine,
    build_certificate,
    closed_loop_spectrum,
    integrate,
    lyapunov_monitor,
    metrics,
    _norm,
    xi_oracle,
)

from conftest import (
    assemble_A_sigma,
    certificate_for,
    dense_G_c,
    dense_Q,
    make_scenario,
    padded_state,
    padding,
    random_formation,
)
from test_decentralization import sparse_scenario
from test_engine_equivalence import ReferenceEngine


def scalar_model():
    one = np.array([1.0])
    return InternalModel(
        M=np.array([[-1.0]]), N=one, T=np.array([[1.0]]), E=one
    )


MILLI_DISTURBANCES = {
    "3": {
        "constant": [0.001, -0.0005],
        "sinusoids": [
            {"frequency": 2.0, "amplitudes": [0.001, 0.0008], "phases": [0.3, -0.5]}
        ],
    },
    "4": {
        "constant": [-0.0008, 0.0006],
        "sinusoids": [
            {"frequency": 3.0, "amplitudes": [0.0009, 0.0011], "phases": [1.0, 2.2]}
        ],
    },
}

# the DisturbanceSpec of each follower, 3 and 4, as the compile reads it
MILLI_SPECS = [
    DisturbanceSpec(
        d=2,
        C0=entry["constant"],
        frequencies=[term["frequency"] for term in entry["sinusoids"]],
        amplitudes=[term["amplitudes"] for term in entry["sinusoids"]],
        phases=[term["phases"] for term in entry["sinusoids"]],
    )
    for entry in MILLI_DISTURBANCES.values()
]

PERTURBED_GEOMETRY = {
    "initial_positions": {"3": [1.002, 0.997], "4": [-0.003, 1.004]},
    "initial_velocities": {"3": [0.503, -0.002], "4": [0.498, 0.001]},
}


class TestAssembleASigma:
    def test_scalar_exact(self):
        gains = ControllerGains(kappa_p=2.0, kappa_v=3.0)
        A = assemble_A_sigma(np.array([[1.0]]), [scalar_model()], 1, gains)
        np.testing.assert_allclose(
            A,
            [[0.0, 1.0, 0.0], [-2.0, -3.0, 1.0], [0.0, 0.0, -1.0]],
        )

    def test_spectrum_is_union(self):
        # block triangular: spectrum = feedback block union compensator block
        gains = ControllerGains(kappa_p=1.0, kappa_v=1.0)
        B_ff = np.array([[2.0, 0.0], [0.0, 3.0]])
        A = assemble_A_sigma(B_ff, [scalar_model(), scalar_model()], 1, gains)
        eig = np.sort_complex(np.linalg.eigvals(A))
        fb = np.linalg.eigvals(
            np.block([[np.zeros((2, 2)), np.eye(2)], [-B_ff, -B_ff]])
        )
        expected = np.sort_complex(np.concatenate([fb, [-1.0, -1.0]]))
        assert np.abs(eig - expected).max() <= 1e-10

    def test_hurwitz_for_square(self, square_laplacian):
        gains = ControllerGains(kappa_p=1.0, kappa_v=1.0)
        models = [scalar_model(), scalar_model()]
        A = assemble_A_sigma(square_laplacian.B_ff, models, 2, gains)
        assert np.linalg.eigvals(A).real.max() < 0


FIVE_SINUSOIDS = [
    {"frequency": float(w), "amplitudes": [0.001, 0.0008], "phases": [0.3, -0.5]}
    for w in range(1, 6)
]
# the compiled scenarios the closed forms are checked on: both bundled
# squares, the mixed-order (3, 1, 5) sparse formation in both feedforward
# modes, and the square with five sinusoids at follower 3 (order 11)
CASES = {
    "square_known": lambda: load_scenario(bundled_scenario("square_known")),
    "square_adaptive": lambda: load_scenario(bundled_scenario("square_adaptive")),
    "sparse_known": lambda: sparse_scenario("known"),
    "sparse_adaptive": lambda: sparse_scenario("adaptive"),
    "order_11": lambda: make_scenario(disturbances={"3": {"sinusoids": FIVE_SINUSOIDS}}),
}


class TestClosedLoopSpectrum:
    """closed_loop_spectrum against eigvals of the dense reference A_sigma."""

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_dense_reference(self, case):
        sc = CASES[case]()
        eig = closed_loop_spectrum(sc)
        A = assemble_A_sigma(sc.laplacian.B_ff, sc.models, sc.d, sc.gains)
        nfd = sc.n_f * sc.d
        assert eig.shape == (len(A),)
        np.testing.assert_array_equal(eig, np.sort_complex(eig))
        # the M_f lines are exactly -1, ..., -m_i, d times each
        rest = list(eig)
        for m in sc.models:
            for k in range(1, m.order + 1):
                for _ in range(sc.d):
                    rest.remove(complex(-k, 0.0))
        # the rest are the feedback roots: eigenvalues of the leading
        # 2 n_f d block, matched one to one
        dense = list(np.linalg.eigvals(A[: 2 * nfd, : 2 * nfd]))
        assert len(rest) == len(dense) == 2 * nfd
        for lam in rest:
            k = int(np.argmin(np.abs(np.array(dense) - lam)))
            assert abs(dense.pop(k) - lam) <= 1e-11 * max(1.0, abs(lam))
        full = np.linalg.eigvals(A).real.max()
        assert abs(eig.real.max() - full) <= 1e-12 * abs(full)

    @pytest.mark.parametrize("kappa_v", [1e-200, 1e200, 4e307])
    def test_extreme_gains(self, kappa_v):
        """No square of the quadratic formula overflows or underflows: at
        kappa_v = 1e-200 the roots are -kv mu / 2 +- i sqrt(kp mu), and at
        1e200 the slow roots are -kp / kv.  At 4e307, kv mu stays finite up
        to lambda_max(B_ff) = 2.71, but kv mu plus the root of the
        discriminant does not."""
        sc = CASES["square_known"]()
        sc = dataclasses.replace(sc, gains=ControllerGains(1.0, kappa_v))
        eig = closed_loop_spectrum(sc)
        assert np.isfinite(eig).all()
        mu = sc.laplacian.ff_eigenvalues
        abscissa = -0.5 * kappa_v * mu[0] if kappa_v < 1 else -1.0 / kappa_v
        assert abs(eig.real.max() - abscissa) <= 1e-15 * abs(abscissa)
        if kappa_v < 1:
            np.testing.assert_allclose(eig.imag.max(), np.sqrt(mu[-1]), rtol=1e-15)


LINEARISATION_TOL = 1e-12        # relative to the largest entry of the reference


class TestEngineLinearisation:
    """The engine's own linearisation at the formation equilibrium is
    blkdiag(A_sigma, Phi_f) in the coordinates (p~_f, v~_f, xi, vartheta),
    xi = eta + T_f vartheta - N_f v_f, with a zero block for theta_hat in
    adaptive mode: the structure that closed_loop_spectrum reads."""

    @staticmethod
    def equilibrium(sc, ref):
        """p = p*(0), v_f = v_c, eta_i = N_i kron v_c, vartheta = 0 and, in
        adaptive mode, theta_hat = E, in the packed layout of ref."""
        y = np.zeros(ref.dim)
        y[ref.i_p : ref.i_vf] = sc.p_star0.ravel()
        y[ref.i_vf : ref.i_eta] = np.tile(sc.v_c, sc.n_f)
        y[ref.i_eta : ref.i_var] = np.concatenate([np.kron(m.N, sc.v_c) for m in sc.models])
        if ref.K:
            y[ref.i_th :] = np.concatenate([m.E for m in sc.models])
        return y

    @pytest.mark.parametrize("case", [c for c in CASES if c != "order_11"])
    def test_jacobian_is_block_diagonal(self, case):
        """On the real coordinates (`Engine.real`), at a state with zero
        padding; the padding's rows of the Jacobian are exactly 0."""
        sc = CASES[case]()
        eng, ref = Engine(sc), ReferenceEngine(sc)
        A, b, C, c, D = eng.product_form()
        z = C @ padded_state(eng, self.equilibrium(sc, ref)) + c
        n_p = eng.n_prod
        z_a, z_b = z[:n_p], z[n_p:]
        J = A + D @ (z_b[:, None] * C[:n_p] + z_a[:, None] * C[n_p:])
        assert (padding(eng, J.T) == 0).all()
        keep = eng.real[sc.n_l * sc.d :]                      # drop the leaders
        J = J[np.ix_(keep, keep)]

        d, nfd, q_f = sc.d, sc.n_f * sc.d, ref.q_f
        eye = np.eye(d)
        N_f = sla.block_diag(*[np.kron(m.N.reshape(-1, 1), eye) for m in sc.models])
        T_f = sla.block_diag(*[np.kron(m.T, eye) for m in sc.models])
        Phi_f = sla.block_diag(*[np.kron(e.Phi, eye) for e in sc.exos])
        # S maps (p_f, v_f, eta, vartheta, theta_hat) to (p~_f, v~_f, xi,
        # vartheta, theta_hat), up to the constant offsets
        S = np.eye(len(J))
        S[2 * nfd : 2 * nfd + q_f, nfd : 2 * nfd] = -N_f
        S[2 * nfd : 2 * nfd + q_f, 2 * nfd + q_f : 2 * nfd + 2 * q_f] = T_f
        got = S @ J @ np.linalg.inv(S)
        want = sla.block_diag(
            assemble_A_sigma(sc.laplacian.B_ff, sc.models, d, sc.gains),
            Phi_f,
            np.zeros((ref.K, ref.K)),
        )
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= LINEARISATION_TOL * np.abs(want).max()


class TestEngineRhs:
    def test_equilibrium_invariance(self):
        """At the target with matched compensator state, errors stay zero."""
        sc = make_scenario(integration={"t_final": 1.0})
        eng = Engine(sc)
        dy = eng.rhs(eng.initial_state())
        # positions advance at v_c, velocities stay at v_c, eta consistent
        np.testing.assert_allclose(
            dy[: eng.i_vf], np.tile(sc.v_c, sc.n), atol=1e-12
        )
        np.testing.assert_allclose(dy[eng.i_vf : eng.i_eta], 0.0, atol=1e-12)

    def test_acceleration_includes_disturbance(self):
        """v_f-dot minus the control equals the exosystem disturbance output."""
        sc = make_scenario(
            geometry=PERTURBED_GEOMETRY, disturbances=MILLI_DISTURBANCES
        )
        eng = Engine(sc)
        y = eng.initial_state()
        dy = eng.rhs(y)
        var = y[eng.i_var : eng.i_th]
        d_out = var[ReferenceEngine(sc).d_idx]
        for idx, spec in enumerate(MILLI_SPECS):
            np.testing.assert_allclose(
                d_out[idx * sc.d : (idx + 1) * sc.d],
                disturbance_eval(spec, 0.0),
                atol=1e-12,
            )
        # subtracting the disturbance leaves exactly the control input
        accel = dy[eng.i_vf : eng.i_eta] - d_out
        assert np.isfinite(accel).all()

    def test_exosystem_flow_matches_closed_form(self):
        sc = make_scenario(
            geometry=PERTURBED_GEOMETRY,
            disturbances=MILLI_DISTURBANCES,
            integration={"t_final": 1.0},
        )
        traj = integrate(sc)
        for s, t in enumerate(traj.times):
            out = traj.vartheta[s, :, 0]                     # (n_f, d)
            for idx, spec in enumerate(MILLI_SPECS):
                np.testing.assert_allclose(
                    out[idx],
                    disturbance_eval(spec, t),
                    atol=1e-8,
                )


class TestIntegrate:
    def test_leaders_exact(self):
        sc = make_scenario(integration={"t_final": 2.0})
        traj = integrate(sc)
        for s, t in enumerate(traj.times):
            np.testing.assert_allclose(
                traj.positions[s, : sc.n_l],
                sc.p_star0[: sc.n_l] + t * sc.v_c,
                atol=1e-12,
            )
            np.testing.assert_allclose(
                traj.velocities[s, : sc.n_l], np.tile(sc.v_c, (sc.n_l, 1))
            )

    def test_feedback_only_decay(self):
        sc = make_scenario(
            geometry={"initial_positions": {"3": [1.05, 0.96], "4": [-0.03, 1.02]}},
            controller={"mode": "feedback_only"},
            integration={"t_final": 30.0},
        )
        traj = integrate(sc)
        mts = metrics(traj, sc)
        assert mts["terminal_err_p"] <= 1e-2 * mts["err_p_norm"][0]
        assert mts["decay_rate"] is not None and mts["decay_rate"] < 0

    def test_feedback_only_keeps_disturbance_error(self):
        """Bearing feedback alone leaves a persistent error under
        square_known's own disturbances, which the internal model rejects:
        over t > 60 s of an 80 s run, feedback_only's largest combined error
        is at least 1e3 times that of known mode."""
        late = {}
        for mode in ("feedback_only", "known"):
            sc = load_scenario(
                bundled_scenario("square_known"), {"mode": mode, "t_final": 80.0}
            )
            traj = integrate(sc)
            mts = metrics(traj, sc)
            combined = np.hypot(mts["err_p_norm"], mts["err_v_norm"])
            late[mode] = combined[traj.times > 60.0].max()
        assert late["feedback_only"] >= 1e3 * late["known"]

    def test_step_halving_agreement(self):
        t1, t2 = (
            integrate(
                make_scenario(
                    geometry=PERTURBED_GEOMETRY,
                    disturbances=MILLI_DISTURBANCES,
                    integration={"step": h, "t_final": 1.0, "record_every": 10_000},
                )
            )
            for h in (1e-3, 5e-4)
        )
        dev = np.abs(t1.positions[-1] - t2.positions[-1]).max()
        assert dev <= 1e-8

    def test_collision_detected(self):
        # follower 3 starts moving straight at leader 2
        sc = make_scenario(
            geometry={
                "initial_positions": {"3": [1.0, 0.05]},
                "initial_velocities": {"3": [0.5, -2.0]},
            },
            integration={"t_final": 1.0},
        )
        with pytest.raises(CollisionDetected) as exc_info:
            integrate(sc)
        exc = exc_info.value
        assert exc.distance < sc.collision_eps
        assert set(exc.pair) == {2, 3}

    def test_non_finite_state(self):
        # a NaN coordinate is rejected at load, so it is set after the compile
        sc = make_scenario(integration={"t_final": 0.1})
        sc.p0[2] = [float("nan"), 1.0]
        with pytest.raises(NonFiniteState):
            integrate(sc)

    def test_record_cadence(self):
        sc = make_scenario(integration={"t_final": 1.0, "record_every": 250})
        traj = integrate(sc)
        np.testing.assert_allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])


class TestXiOracle:
    def test_xi_zero_initialization(self):
        """The xi_zero policy puts the transformed state exactly on the exact
        flow (identically zero), so the oracle deviation is tiny."""
        sc = make_scenario(
            geometry=PERTURBED_GEOMETRY,
            disturbances=MILLI_DISTURBANCES,
            controller={"eta_init": "xi_zero"},
            integration={"t_final": 2.0},
        )
        traj = integrate(sc)
        assert xi_oracle(traj, sc) <= 1e-9

    def test_exact_flow_under_default_policy(self):
        sc = make_scenario(
            geometry=PERTURBED_GEOMETRY,
            disturbances=MILLI_DISTURBANCES,
            integration={"t_final": 2.0},
        )
        traj = integrate(sc)
        assert xi_oracle(traj, sc) <= 1e-8


class TestCertificate:
    def test_scalar_certificate(self):
        gains = ControllerGains(kappa_p=1.0, kappa_v=2.0)
        cert = certificate_for(np.array([[1.0]]), gains, [scalar_model()], 1)
        # Q = diag(2, 2)
        np.testing.assert_allclose(cert.lambda_min_Qc, 2.0)
        np.testing.assert_allclose(cert.P_c, [[3.0, 1.0], [1.0, 1.0]])
        assert cert.G.keys() == {1}
        np.testing.assert_allclose(cert.G[1], [[0.5]])
        # gamma exceeds the Schur threshold lam_max(PBE PBE')/lam_min(Qc)
        np.testing.assert_allclose(cert.gamma_sigma, 1.0)
        assert cert.gamma > cert.gamma_sigma

    def test_lambda_min_qc_stored(self, square_laplacian):
        """The certificate keeps the smallest eigenvalue of Q, which it
        gates on and divides by, for the oracle report to read: exactly the
        smallest of Q's eigenvalues 2 mu min(kp mu, kv mu - 1) over the
        spectrum of B_ff, and within the backward error of a stable
        eigvalsh, 1e-14 ||Q||_2, of the dense decomposition."""
        gains = ControllerGains(kappa_p=1.3, kappa_v=4.0)
        cert = certificate_for(
            square_laplacian.B_ff, gains, [scalar_model(), scalar_model()], 2
        )
        mu = square_laplacian.ff_eigenvalues
        kp, kv = gains.kappa_p, gains.kappa_v
        closed = 2.0 * mu * np.minimum(kp * mu, kv * mu - 1.0)
        assert cert.lambda_min_Qc == closed.min() > 0
        dense = np.linalg.eigvalsh(dense_Q(square_laplacian.B_ff, gains))
        assert abs(cert.lambda_min_Qc - dense[0]) <= 1e-14 * np.abs(dense).max()

    def test_lyapunov_identity(self, square_laplacian):
        """A_c' P_c + P_c A_c = -Q for the feedback block."""
        gains = ControllerGains(kappa_p=1.3, kappa_v=4.0)
        B_ff = square_laplacian.B_ff
        models = [scalar_model(), scalar_model()]
        cert = certificate_for(B_ff, gains, models, 2)
        nfd = B_ff.shape[0]
        A_c = np.block(
            [
                [np.zeros((nfd, nfd)), np.eye(nfd)],
                [-gains.kappa_p * B_ff, -gains.kappa_v * B_ff],
            ]
        )
        res = A_c.T @ cert.P_c + cert.P_c @ A_c + dense_Q(B_ff, gains)
        assert np.linalg.norm(res) <= 1e-9

    def test_qc_degenerates_at_gain_boundary(self, square_laplacian):
        """lambda_min(Q) tends to zero as kappa_v approaches 1/lambda_min(B_ff)."""
        B_ff = square_laplacian.B_ff
        lam_min = np.linalg.eigvalsh(B_ff)[0]
        models = [scalar_model(), scalar_model()]
        prev = None
        for margin in (1.0, 0.1, 0.01):
            gains = ControllerGains(kappa_p=1.0, kappa_v=(1.0 + margin) / lam_min)
            cert = certificate_for(B_ff, gains, models, 2)
            val = cert.lambda_min_Qc
            assert val > 0
            if prev is not None:
                assert val < prev
            prev = val
        assert prev < 0.05


class TestLyapunovMonitor:
    @staticmethod
    def adaptive_scenario(**overrides):
        ctrl = {"mode": "adaptive", "kappa_v": 4.0, "adaptation_rate": 50.0}
        ctrl.update(overrides.pop("controller", {}))
        return make_scenario(
            geometry=overrides.pop(
                "geometry",
                {
                    "initial_positions": {"3": [1.05, 0.96], "4": [-0.03, 1.04]},
                    "initial_velocities": {"3": [0.52, -0.01], "4": [0.48, 0.02]},
                },
            ),
            disturbances=overrides.pop("disturbances", MILLI_DISTURBANCES),
            controller=ctrl,
            **overrides,
        )

    def test_zero_at_equilibrium(self):
        """V vanishes when the state sits at the target with true parameters."""
        sc = self.adaptive_scenario(
            geometry={},
            disturbances={},
            controller={
                "eta_init": "xi_zero",
                "theta_hat_init": {"3": [1.0], "4": [1.0]},
            },
            integration={"t_final": 0.5},
        )
        traj = integrate(sc)
        cert = build_certificate(sc)
        V = lyapunov_monitor(traj, cert, sc)
        assert np.abs(V).max() <= 1e-12

    def test_initial_value_closed_form(self):
        sc = self.adaptive_scenario(integration={"t_final": 0.5})
        traj = integrate(sc)
        cert = build_certificate(sc)
        V = lyapunov_monitor(traj, cert, sc)

        p_t = (sc.p0[sc.n_l :] - sc.p_star0[sc.n_l :]).ravel()
        v_t = (sc.v_f0 - sc.v_c).ravel()
        x = np.concatenate([p_t, v_t])
        T_blk = sla.block_diag(
            *[np.kron(m.T, np.eye(sc.d)) for m in sc.models]
        )
        N_blk = sla.block_diag(
            *[np.kron(m.N.reshape(-1, 1), np.eye(sc.d)) for m in sc.models]
        )
        xi0 = (
            np.concatenate(sc.eta0)
            + T_blk @ np.concatenate([e.theta0 for e in sc.exos])
            - N_blk @ sc.v_f0.ravel()
        )
        th_t = np.concatenate(
            [m.E - t0 for m, t0 in zip(sc.models, sc.theta_hat0)]
        )
        lam_inv = sla.block_diag(*[np.linalg.inv(L) for L in sc.lambdas])
        expected = (
            x @ cert.P_c @ x
            + cert.gamma * (xi0 @ dense_G_c(cert, sc.models, sc.d) @ xi0)
            + th_t @ lam_inv @ th_t
        )
        np.testing.assert_allclose(V[0], expected, rtol=1e-10)

    def test_non_increasing(self):
        sc = self.adaptive_scenario(integration={"t_final": 5.0})
        traj = integrate(sc)
        cert = build_certificate(sc)
        V = lyapunov_monitor(traj, cert, sc)
        slack = 1e-8 * (1.0 + V[:-1])
        assert np.all(np.diff(V) <= slack)


class TestMetrics:
    def test_norm_near_float_max(self):
        """Slices whose largest magnitude is in [2^1023, 2^1024) still have
        finite norms, with no floating-point warning; ordinary slices match
        np.linalg.norm bit for bit."""
        x = np.array([
            [[1e308, 0.0], [3.0, 0.0]],
            [[9e307, 0.0], [9e307, 0.0]],
            [[0.0, 0.0], [0.0, 0.0]],
            [[3.0, 4.0], [1e-320, 12.0]],
        ])
        # underflow of the tiny entries of a scaled slice is harmless
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            rows = _norm(x, 2)
            whole = _norm(x, (1, 2))
        np.testing.assert_array_equal(rows[0], [1e308, 3.0])
        np.testing.assert_allclose(whole[1], np.sqrt(2.0) * 9e307, rtol=1e-15)
        np.testing.assert_array_equal(whole[2], 0.0)
        np.testing.assert_array_equal(rows[3], np.linalg.norm(x[3], axis=1))
        assert np.isfinite(whole).all()

    def test_min_distance_brute_force(self):
        sc = make_scenario(
            geometry=PERTURBED_GEOMETRY,
            disturbances=MILLI_DISTURBANCES,
            integration={"t_final": 1.0, "record_every": 1},
        )
        traj = integrate(sc)
        mts = metrics(traj, sc)
        brute = np.inf
        for pos in traj.positions:
            for a in range(sc.n):
                for b in range(a + 1, sc.n):
                    brute = min(brute, float(np.linalg.norm(pos[a] - pos[b])))
        # record_every=1 keeps every step, so the recorded minimum is the run minimum
        np.testing.assert_allclose(mts["min_distance"], brute, rtol=1e-12)

    def test_rate_none_when_pinned(self):
        # start exactly at the target: errors stay at machine zero, no rate fit
        sc = make_scenario(integration={"t_final": 1.0})
        traj = integrate(sc)
        mts = metrics(traj, sc)
        assert mts["terminal_err_p"] <= 1e-12
        assert mts["decay_rate"] is None


def random_complete_scenario(seed):
    """Compiled known-mode scenario on a random_formation complete graph."""
    rng = np.random.default_rng(seed)
    graph, _, pos = random_formation(rng, complete=True)
    data = {
        "graph": {
            "n_agents": graph.n,
            "dimension": graph.d,
            "leaders": list(range(1, graph.n_l + 1)),
            "edges": graph.edges.tolist(),
        },
        "geometry": {
            "desired_positions": {str(i + 1): list(p) for i, p in enumerate(pos)},
            "leader_velocity": list(rng.uniform(-1.0, 1.0, graph.d)),
        },
        "controller": {"mode": "known", "kappa_p": 1.0, "kappa_v": 1.0},
        "integration": {"t_final": 1.0},
    }
    return compile_scenario(data)


class TestTargetPositions:
    TIMES = (0.0, 0.37, 2.5, 10.0, 123.4)

    def assert_matches_localization(self, sc):
        """The rigid translation equals a fresh localization from the leaders."""
        for t in self.TIMES:
            p_l = sc.p_star0[: sc.n_l] + t * sc.v_c
            p_f = localize_followers(sc.laplacian, p_l)
            expected = np.vstack([p_l, p_f])
            got = sc.target_positions(t)
            assert got.shape == expected.shape
            assert np.abs(got - expected).max() <= 1e-12
        stacked = sc.target_positions(np.array(self.TIMES))
        for s, t in enumerate(self.TIMES):
            np.testing.assert_array_equal(stacked[s], sc.target_positions(t))

    def test_bundled_square(self):
        sc = load_scenario(bundled_scenario("square_known"))
        self.assert_matches_localization(sc)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_random_complete_graph(self, seed):
        self.assert_matches_localization(random_complete_scenario(seed))
