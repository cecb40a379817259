"""Unit tests of the per-follower control law against hand-computed values,
and of the gain gate.  The law itself is the decentralization oracle in
test_decentralization.py; the package implements it once, in Engine._bind."""

import numpy as np
import pytest

from bearing_forge.errors import GainConditionViolated, ValidationError
from bearing_forge.formation_graph import BearingSet, SensingGraph
from bearing_forge.scenario import compile_scenario, validate_gains

from conftest import SQUARE_POSITIONS, base_scenario_dict
from test_decentralization import (
    control_adaptive,
    control_known,
    eta_dot,
    kron_apply,
    projected_errors,
    regressor,
    theta_hat_dot,
)
from test_internal_model import model_for


def simple_model(r=0):
    """The internal model of a follower with r sinusoids at 1, 2, ..."""
    return model_for(1.0 + np.arange(r))


class TestKronApply:
    def test_identity(self):
        x = np.arange(6.0)
        np.testing.assert_allclose(kron_apply(np.eye(3), x, 2), x)

    def test_matches_dense_kron(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((3, 5))
        x = rng.standard_normal(10)
        dense = np.kron(A, np.eye(2)) @ x
        np.testing.assert_allclose(kron_apply(A, x, 2), dense, atol=1e-13)


class TestProjectedErrors:
    def test_two_neighbor_example(self):
        # follower 3 sees 1 along e_x and 2 along e_y; offset (0.1, 0.2)
        graph = SensingGraph(n=3, d=2, n_l=2, edges=[(1, 3), (2, 3)])
        pos = np.array([[0.0, 0.0], [1.0, -1.0], [1.1, 0.2]])
        bearings = BearingSet(
            {(3, 1): np.array([1.0, 0.0]), (3, 2): np.array([0.0, 1.0])}
        )
        vel = np.zeros((3, 2))
        s_p, s_v = projected_errors(graph, bearings, 3, pos, vel)
        # bearing to 1 kills the x component of p_31=(1.1, 0.2); bearing to 2
        # kills the y component of p_32=(0.1, 1.2)
        np.testing.assert_allclose(s_p, [0.1, 0.2], atol=1e-14)
        np.testing.assert_allclose(s_v, [0.0, 0.0])

    def test_zero_at_target(self, square_graph, square_bearings):
        vel = np.tile([0.5, 0.0], (4, 1))
        for i in (3, 4):
            s_p, s_v = projected_errors(
                square_graph, square_bearings, i, SQUARE_POSITIONS, vel
            )
            assert np.linalg.norm(s_p) <= 1e-14
            assert np.linalg.norm(s_v) <= 1e-14

    def test_velocity_term(self, square_graph, square_bearings):
        vel = np.zeros((4, 2))
        vel[2] = [0.0, 1.0]  # agent 3 moves up; neighbors at rest
        s_p, s_v = projected_errors(
            square_graph, square_bearings, 3, SQUARE_POSITIONS, vel
        )
        assert np.linalg.norm(s_p) <= 1e-14
        # g_31 = -(1,1)/sqrt2, g_32 = (0,1), g_34 = (1,0): projections of
        # (0,1) are (-1/2,1/2), (0,0), (0,1)
        np.testing.assert_allclose(s_v, [-0.5, 1.5], atol=1e-14)

    def test_isolated_follower(self):
        graph = SensingGraph(n=3, d=2, n_l=2, edges=[(1, 2)])
        with pytest.raises(ValueError, match="no neighbors"):
            projected_errors(
                graph, BearingSet({(1, 2): np.array([1.0, 0.0])}),
                3, np.zeros((3, 2)), np.zeros((3, 2)),
            )


class TestControlKnown:
    def test_pure_feedback(self):
        model = simple_model(0)
        u = control_known(
            np.array([1.0, 0.0]),
            np.array([0.0, 1.0]),
            np.zeros(2),
            np.zeros(2),
            model,
            2.0,
            3.0,
        )
        np.testing.assert_allclose(u, [-2.0, -3.0])

    def test_feedforward_r0(self):
        # r=0: M=[-1], N=[1], E=[1]; feedforward = eta - v
        model = simple_model(0)
        eta = np.array([2.0, -1.0])
        v = np.array([0.5, 0.5])
        u = control_known(np.zeros(2), np.zeros(2), eta, v, model, 1.0, 1.0)
        np.testing.assert_allclose(u, eta - v)

    def test_adaptive_matches_known_at_truth(self):
        model = simple_model(1)
        kp, kv = 1.5, 2.5
        rng = np.random.default_rng(6)
        s_p, s_v, v = rng.standard_normal((3, 2))
        eta = rng.standard_normal(6)
        u_known = control_known(s_p, s_v, eta, v, model, kp, kv)
        u_adapt = control_adaptive(s_p, s_v, eta, v, model.E, model, kp, kv)
        np.testing.assert_allclose(u_adapt, u_known, atol=1e-12)


class TestRegressor:
    def test_zero_state(self):
        model = simple_model(1)
        rho = regressor(np.zeros(6), np.zeros(2), model)
        assert rho.shape == (2, 3)
        np.testing.assert_allclose(rho, 0.0)

    def test_factorization_identity(self):
        # rho theta~ equals ((E~ kron I) w) for any parameter error E~
        model = simple_model(1)
        rng = np.random.default_rng(8)
        eta = rng.standard_normal(6)
        v = rng.standard_normal(2)
        theta_err = rng.standard_normal(3)
        rho = regressor(eta, v, model)
        w = eta - kron_apply(model.N.reshape(-1, 1), v, 2)
        direct = kron_apply(theta_err.reshape(1, -1), w, 2)
        np.testing.assert_allclose(rho @ theta_err, direct, atol=1e-12)


class TestThetaHatDot:
    def test_scalar_example(self):
        rho = np.array([[1.0, 0.0], [0.0, 2.0]])  # d=2, k=2
        s = np.array([1.0, -1.0])
        out = theta_hat_dot(rho, s, np.zeros(2), np.eye(2))
        np.testing.assert_allclose(out, [-1.0, 2.0])

    def test_gain_scaling(self):
        rho = np.array([[1.0], [1.0]])
        out = theta_hat_dot(rho, np.array([1.0, 1.0]), np.zeros(2), 5.0 * np.eye(1))
        np.testing.assert_allclose(out, [-10.0])


class TestEtaDot:
    def test_r0_first_order(self):
        # r=0: eta_dot = -eta + u - (-1)v = -eta + u + v
        model = simple_model(0)
        eta = np.array([1.0, 2.0])
        u = np.array([0.5, -0.5])
        v = np.array([3.0, 1.0])
        np.testing.assert_allclose(eta_dot(eta, u, v, model), -eta + u + v)

    def test_matches_dense_operators(self):
        model = simple_model(1)
        rng = np.random.default_rng(12)
        eta = rng.standard_normal(6)
        u, v = rng.standard_normal((2, 2))
        dense = (
            np.kron(model.M, np.eye(2)) @ eta
            + np.kron(model.N.reshape(-1, 1), np.eye(2)) @ u
            - np.kron((model.M @ model.N).reshape(-1, 1), np.eye(2)) @ v
        )
        np.testing.assert_allclose(eta_dot(eta, u, v, model), dense, atol=1e-12)


class TestValidateGains:
    MU = (2.0, 5.0)  # ascending eigenvalues of B_ff

    def test_known_positive_gains_ok(self):
        validate_gains(1.0, 1.0, self.MU, "known")

    def test_kappa_p_zero_rejected(self):
        with pytest.raises(GainConditionViolated):
            validate_gains(0.0, 1.0, self.MU, "known")

    def test_adaptive_boundary_rejected(self):
        # kappa_v * lambda_min = 0.5 * 2 = 1 is not strictly greater than 1
        with pytest.raises(GainConditionViolated):
            validate_gains(1.0, 0.5, self.MU, "adaptive")

    def test_adaptive_just_above_boundary_ok(self):
        validate_gains(1.0, 0.55, self.MU, "adaptive")

    @pytest.mark.parametrize("mode", ["known", "adaptive", "feedback_only"])
    @pytest.mark.parametrize(
        "gains, name", [((4e307, 1.0), "kappa_p"), ((1.0, 4e307), "kappa_v")]
    )
    def test_gain_times_lambda_max_overflow_rejected(self, mode, gains, name):
        """4e307 * 2 is finite and 4e307 * 5 is not: lambda_max bounds the gain."""
        with pytest.raises(GainConditionViolated, match=(
            rf"^{name}\*lambda_max\(B_ff\) = 4e\+307\*5 overflows$"
        )):
            validate_gains(*gains, self.MU, mode)

    ASYM = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    # rank one: eigvalsh rounds its least eigenvalue to +2.7e-17, below the
    # 3 eps lambda_max = 1.7e-14 that the rounding of eigvalsh can reach
    RANK_ONE = np.outer([1.0, 4.0, 3.0], [1.0, 4.0, 3.0])

    @pytest.mark.parametrize(
        "lambdas, message",
        [
            ([([3, 5], [np.eye(1), -np.eye(1)]), ([4], [ASYM])], "4 not symmetric"),
            ([([3, 5], [np.eye(3), ASYM]), ([4], [-np.eye(1)])], "4 not positive definite"),
            ([([3], [np.eye(1)]), ([4, 5], [np.eye(3), 1e-20 * ASYM])], "5 not symmetric"),
            ([([3, 4], [RANK_ONE, np.eye(3)])], "3 not positive definite"),
        ],
        ids=["groups-out-of-order", "definite-before-symmetric", "scaled", "rank-one"],
    )
    def test_first_bad_lambda_is_named(self, lambdas, message):
        """Lambdas come in one stack per order, with their followers' ids;
        the lowest follower at fault is named, the symmetry tolerance
        scales with the entries of Lambda, and a singular Lambda whose least
        eigenvalue rounds positive is not definite."""
        lambdas = [(np.array(ids), np.stack(Lam)) for ids, Lam in lambdas]
        with pytest.raises(GainConditionViolated, match=f"^Lambda for follower {message}$"):
            validate_gains(1.0, 1.0, self.MU, "known", lambdas)

    @staticmethod
    def adaptive_scenario(lam):
        """Base square in adaptive mode, follower 3 with an order-3 model
        (one sinusoid) and adaptation gain lam."""
        data = base_scenario_dict()
        data["controller"].update(
            mode="adaptive", kappa_v=4.0, adaptation_gains={"3": lam}
        )
        data["disturbances"] = {
            "3": {
                "sinusoids": [
                    {"frequency": 2.0, "amplitudes": [1, 0], "phases": [0, 0]}
                ]
            }
        }
        return data

    def test_adaptive_asymmetric_lambda_rejected(self):
        # the off-diagonal asymmetry [[1, 0.5], [0, 1]], padded to order 3
        lam = [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        with pytest.raises(ValidationError, match=(
            "^gains: GainConditionViolated: Lambda for follower 3 not symmetric$"
        )):
            compile_scenario(self.adaptive_scenario(lam))

    def test_adaptive_indefinite_lambda_rejected(self):
        lam = (-np.eye(3)).tolist()
        with pytest.raises(ValidationError, match=(
            "^gains: GainConditionViolated: "
            "Lambda for follower 3 not positive definite$"
        )):
            compile_scenario(self.adaptive_scenario(lam))

    def test_adaptive_rank_one_lambda_rejected(self):
        """A singular Lambda is rejected at the gain gate, not later at the
        certificate's th~ term, which its inverse makes nan."""
        with pytest.raises(ValidationError, match=(
            "^gains: GainConditionViolated: "
            "Lambda for follower 3 not positive definite$"
        )):
            compile_scenario(self.adaptive_scenario(self.RANK_ONE.tolist()))
