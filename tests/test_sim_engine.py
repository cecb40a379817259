import numpy as np
import pytest

from bearing_forge import bundled_scenario
from bearing_forge.control_laws import ControllerGains
from bearing_forge.disturbance import disturbance_eval
from bearing_forge.errors import (
    CollisionDetected,
    DimensionMismatch,
    NonFiniteState,
)
from bearing_forge.formation_graph import localize_followers
from bearing_forge.internal_model import InternalModel
from bearing_forge.scenario import compile_scenario, load_scenario, parse_config
from bearing_forge.sim_engine import (
    Engine,
    assemble_A_sigma,
    build_certificate,
    integrate,
    lyapunov_monitor,
    metrics,
    spectral_abscissa,
    stack_follower_blocks,
    xi_oracle,
)

from conftest import make_scenario, random_formation


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
        assert spectral_abscissa(A) < 0

    def test_dimension_mismatch(self):
        gains = ControllerGains(kappa_p=1.0, kappa_v=1.0)
        with pytest.raises(DimensionMismatch):
            assemble_A_sigma(np.eye(3), [scalar_model()], 2, gains)


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
        d_out = var[eng.d_idx]
        for idx, spec in enumerate(sc.specs):
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
            out = traj.vartheta[s][Engine(sc).d_idx]
            for idx, spec in enumerate(sc.specs):
                np.testing.assert_allclose(
                    out[idx * sc.d : (idx + 1) * sc.d],
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

    def test_step_halving_agreement(self):
        sc = make_scenario(
            geometry=PERTURBED_GEOMETRY,
            disturbances=MILLI_DISTURBANCES,
            integration={"t_final": 1.0, "record_every": 10_000},
        )
        t1 = integrate(sc, h=1e-3)
        t2 = integrate(sc, h=5e-4)
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
        sc = make_scenario(
            geometry={"initial_positions": {"3": [float("nan"), 1.0]}},
            integration={"t_final": 0.1},
        )
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
        M_f, E_f = stack_follower_blocks([scalar_model()], 1)
        cert = build_certificate(np.array([[1.0]]), gains, M_f, E_f)
        np.testing.assert_allclose(cert.Q_c, [[2.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(cert.P_c, [[3.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(cert.G_c, [[0.5]])
        # gamma exceeds the Schur threshold lam_max(PBE PBE')/lam_min(Qc)
        np.testing.assert_allclose(cert.gamma_sigma, 1.0)
        assert cert.gamma > cert.gamma_sigma

    def test_lyapunov_identity(self, square_laplacian):
        """A_c' P_c + P_c A_c = -Q_c for the feedback block."""
        gains = ControllerGains(kappa_p=1.3, kappa_v=4.0)
        B_ff = square_laplacian.B_ff
        models = [scalar_model(), scalar_model()]
        M_f, E_f = stack_follower_blocks(models, 2)
        cert = build_certificate(B_ff, gains, M_f, E_f)
        nfd = B_ff.shape[0]
        A_c = np.block(
            [
                [np.zeros((nfd, nfd)), np.eye(nfd)],
                [-gains.kappa_p * B_ff, -gains.kappa_v * B_ff],
            ]
        )
        res = A_c.T @ cert.P_c + cert.P_c @ A_c + cert.Q_c
        assert np.linalg.norm(res) <= 1e-9

    def test_qc_degenerates_at_gain_boundary(self, square_laplacian):
        """lambda_min(Q_c) tends to zero as kappa_v approaches 1/lambda_min(B_ff)."""
        B_ff = square_laplacian.B_ff
        lam_min = np.linalg.eigvalsh(B_ff)[0]
        models = [scalar_model(), scalar_model()]
        M_f, E_f = stack_follower_blocks(models, 2)
        prev = None
        for margin in (1.0, 0.1, 0.01):
            gains = ControllerGains(kappa_p=1.0, kappa_v=(1.0 + margin) / lam_min)
            cert = build_certificate(B_ff, gains, M_f, E_f)
            val = np.linalg.eigvalsh(cert.Q_c)[0]
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
        M_f, E_f = stack_follower_blocks(sc.models, sc.d)
        cert = build_certificate(sc.laplacian.B_ff, sc.gains, M_f, E_f)
        V = lyapunov_monitor(traj, cert, sc)
        assert np.abs(V).max() <= 1e-12

    def test_initial_value_closed_form(self):
        sc = self.adaptive_scenario(integration={"t_final": 0.5})
        traj = integrate(sc)
        M_f, E_f = stack_follower_blocks(sc.models, sc.d)
        cert = build_certificate(sc.laplacian.B_ff, sc.gains, M_f, E_f)
        V = lyapunov_monitor(traj, cert, sc)

        p_t = (sc.p0[sc.n_l :] - sc.p_star0[sc.n_l :]).ravel()
        v_t = (sc.v_f0 - sc.v_c).ravel()
        x = np.concatenate([p_t, v_t])
        import scipy.linalg as sla

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
            + cert.gamma * (xi0 @ cert.G_c @ xi0)
            + th_t @ lam_inv @ th_t
        )
        np.testing.assert_allclose(V[0], expected, rtol=1e-10)

    def test_non_increasing(self):
        sc = self.adaptive_scenario(integration={"t_final": 5.0})
        traj = integrate(sc)
        M_f, E_f = stack_follower_blocks(sc.models, sc.d)
        cert = build_certificate(sc.laplacian.B_ff, sc.gains, M_f, E_f)
        V = lyapunov_monitor(traj, cert, sc)
        slack = 1e-8 * (1.0 + V[:-1])
        assert np.all(np.diff(V) <= slack)


class TestMetrics:
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
            "edges": sorted({tuple(sorted(e)) for e in graph.edges}),
        },
        "geometry": {
            "desired_positions": {str(i + 1): list(p) for i, p in enumerate(pos)},
            "leader_velocity": list(rng.uniform(-1.0, 1.0, graph.d)),
        },
        "controller": {"mode": "known", "kappa_p": 1.0, "kappa_v": 1.0},
        "integration": {"t_final": 1.0},
    }
    return compile_scenario(parse_config(data))


class TestTargetPositions:
    TIMES = (0.0, 0.37, 2.5, 10.0, 123.4)

    def assert_matches_localization(self, sc):
        """The rigid translation equals a fresh localization from the leaders."""
        for t in self.TIMES:
            p_l = sc.p_star0[: sc.n_l] + t * sc.v_c
            p_f, _ = localize_followers(sc.laplacian, p_l, sc.v_c)
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
