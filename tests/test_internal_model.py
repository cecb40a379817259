from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from bearing_forge import scenario
from bearing_forge.disturbance import build_canonical
from bearing_forge.errors import NonFiniteExosystem, SingularT, ValidationError
from bearing_forge.internal_model import choose_MN, synthesize
from bearing_forge.scenario import compile_scenario

from conftest import disturbance, per_follower, stacked
from test_disturbance import derivative_ladder


def exo_for(freqs, d=1):
    """Phi (m, m) of the companion exosystem of a disturbance with the given
    frequencies."""
    r = len(freqs)
    spec = disturbance(np.ones(d), freqs, np.ones((r, d)), np.zeros((r, d)))
    return build_canonical(*stacked([spec]))[0][0]


def model_for(freqs):
    """One follower's exosystem Phi, Psi = e_1, and its internal model M, N,
    T and E from synthesize on a stack of one."""
    Phi = exo_for(freqs)
    M, N, T, E, faults = synthesize(Phi[None])
    assert faults == {}
    return SimpleNamespace(
        Phi=Phi, Psi=np.eye(len(M))[0], M=M, N=N, T=T[0], E=E[0], order=len(M)
    )


def is_controllable(M, N):
    """Eigenvector (PBH) test; robust where the Krylov matrix is ill-conditioned."""
    M = np.asarray(M, dtype=float)
    m = M.shape[0]
    for lam in np.linalg.eigvals(M):
        pencil = np.hstack([M - lam * np.eye(m), np.asarray(N).reshape(-1, 1)])
        sv = np.linalg.svd(pencil, compute_uv=False)
        if sv[-1] <= 1e-8:
            return False
    return True


class TestChooseMN:
    def test_r0(self):
        M, N = choose_MN(0)
        np.testing.assert_allclose(M, [[-1.0]])
        np.testing.assert_allclose(N, [1.0])

    def test_r1_companion(self):
        M, N = choose_MN(1)
        # (s+1)(s+2)(s+3) = s^3 + 6 s^2 + 11 s + 6
        np.testing.assert_allclose(M[-1], [-6.0, -11.0, -6.0])
        np.testing.assert_allclose(M[0], [0.0, 1.0, 0.0])
        np.testing.assert_allclose(N, [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("r", range(5))
    def test_controllable_and_hurwitz(self, r):
        M, N = choose_MN(r)
        assert is_controllable(M, N)
        assert np.linalg.eigvals(M).real.max() < 0


def kronecker_sylvester(Phi, M, N, Psi):
    """T of T Phi - M T = N Psi as the dense vec-solve
    (Phi^T kron I - I kron M) vec(T) = vec(N Psi), in m^2 unknowns."""
    m = M.shape[0]
    op = np.kron(Phi.T, np.eye(m)) - np.kron(np.eye(m), M)
    vec = np.linalg.solve(op, np.outer(N, Psi).flatten(order="F"))
    return vec.reshape((m, m), order="F")


class TestSolveSylvester:
    def test_scalar(self):
        """r = 0: T * 0 - (-1) T = 1 * 1 gives T = [[1]], and E T = Psi gives E = [1]."""
        exo = model = model_for([])
        np.testing.assert_allclose(exo.Phi, [[0.0]])
        np.testing.assert_allclose(model.T, [[1.0]])
        np.testing.assert_allclose(model.E, [1.0])
        res = model.T @ exo.Phi - model.M @ model.T - np.outer(model.N, exo.Psi)
        assert np.linalg.norm(res) == 0.0

    def test_r1_residual(self):
        exo = model = model_for([1.0])
        res = model.T @ exo.Phi - model.M @ model.T - np.outer(model.N, exo.Psi)
        assert np.linalg.norm(res) < 1e-10
        assert abs(np.linalg.det(model.T)) > 0

    @pytest.mark.parametrize("r", range(4))
    def test_matches_kronecker_solve(self, r):
        """The closed-form T against the dense Kronecker vec-solve."""
        exo = model = model_for(np.arange(1, r + 1) * 0.7)
        ref = kronecker_sylvester(exo.Phi, model.M, model.N, exo.Psi)
        np.testing.assert_allclose(model.T, ref, rtol=1e-12, atol=1e-12)

    def test_overflow_rejected(self):
        """At w = 1e150 the exosystem is finite (w^2 = 1e300) but E Phi^2
        overflows, so T cannot be formed."""
        (k, fault), = synthesize(exo_for([1e150])[None])[-1].items()
        assert k == 0 and isinstance(fault, SingularT)
        assert str(fault).startswith("O(Phi, E) overflows")

    def test_residual_gate_fires(self):
        """An exosystem outside the companion form breaks the closed form;
        the Sylvester residual check names the miss."""
        Phi = exo_for([1.0])
        for batch in ([2.0 * Phi], [Phi, 2.0 * Phi]):
            (k, fault), = synthesize(np.stack(batch))[-1].items()
            assert k == len(batch) - 1 and isinstance(fault, SingularT)
            assert str(fault).startswith("T misses T Phi - M T = N Psi: residual")


def _rational_solve(A, b):
    """x with A x = b by Gauss-Jordan elimination over Fractions."""
    n = len(A)
    aug = [list(row) + [rhs] for row, rhs in zip(A, b)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col] / aug[col][col]
                aug[i] = [a - f * c for a, c in zip(aug[i], aug[col])]
    return [aug[i][n] / aug[i][i] for i in range(n)]


def rational_internal_model(freqs):
    """(T, E) for integer frequencies, exactly, without the closed form.

    Phi is the companion with last row a (char poly s^m - sum a_k s^k).
    Column j >= 1 of T Phi - M T = N Psi reads t_{j-1} = M t_j - a_j t_{m-1},
    so every column is a polynomial in M applied to x = t_{m-1}, and column 0
    reduces to chi_Phi(M) x = -N.  E solves E T = Psi.
    """
    poly = [Fraction(1), Fraction(0)]  # s, highest power first
    for w in freqs:
        poly = np.polymul(poly, [Fraction(1), Fraction(0), Fraction(w * w)]).tolist()
    m = len(poly) - 1
    a = [-poly[m - k] for k in range(m)]  # last row of Phi
    Mf, _ = choose_MN((m - 1) // 2)
    M = [[Fraction(int(v)) for v in row] for row in Mf]
    eye = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]

    def mul(A, B):
        return [[sum(A[i][k] * B[k][j] for k in range(m)) for j in range(m)] for i in range(m)]

    chi = eye  # chi_Phi(M) = M^m - sum_k a_k M^k, by Horner
    for k in reversed(range(m)):
        chi = [[v - a[k] * e for v, e in zip(rp, re)] for rp, re in zip(mul(chi, M), eye)]
    x = _rational_solve(chi, [Fraction(0)] * (m - 1) + [Fraction(-1)])
    cols = [None] * m
    cols[m - 1] = x
    for j in range(m - 1, 0, -1):
        Mt = [sum(M[i][k] * cols[j][k] for k in range(m)) for i in range(m)]
        cols[j - 1] = [v - a[j] * xv for v, xv in zip(Mt, x)]
    T = [[cols[j][i] for j in range(m)] for i in range(m)]
    E = _rational_solve([list(col) for col in zip(*T)], [Fraction(int(i == 0)) for i in range(m)])
    return T, E


class TestClosedForm:
    @pytest.mark.parametrize(
        "freqs",
        [(), (1,), (3,), (1, 2), (2, 5), (1, 2, 3), (1, 4, 6), (1, 2, 3, 4),
         (2, 3, 5, 6), (1, 2, 3, 4, 5)],
        ids=str,
    )
    def test_matches_rational_solve(self, freqs):
        """E is the exact integer row; T is within 1e-13 of the rational
        solution of the Sylvester equation, relative to its norm.

        The error of T follows cond(T): 4.0e-14 at w = 1..5 (cond 7.5e8),
        3.2e-13 at w = (1, 2, 4, 5, 6) (cond 4.6e9)."""
        T_ref, E_ref = rational_internal_model(freqs)
        assert all(e.denominator == 1 for e in E_ref)
        model = model_for([float(w) for w in freqs])
        assert model.E.tolist() == [float(e) for e in E_ref]
        T_ref = np.array([[float(v) for v in row] for row in T_ref])
        assert np.linalg.norm(model.T - T_ref) <= 1e-13 * np.linalg.norm(T_ref)


class TestSynthesisSweep:
    def test_r0_reduces_to_scalars(self):
        model = model_for([])
        np.testing.assert_allclose(model.M, [[-1.0]])
        np.testing.assert_allclose(model.N, [1.0])
        np.testing.assert_allclose(model.T, [[1.0]])
        np.testing.assert_allclose(model.E, [1.0])

    def test_sweep(self):
        rng = np.random.default_rng(17)
        for r in range(5):
            # a moderate band keeps the derivative-ladder coordinates (scales
            # up to omega^{2r}) numerically well-conditioned at high order
            hi = 10.0 if r <= 2 else 4.0
            for _ in range(5):
                freqs = np.sort(rng.uniform(0.3, hi, size=r))
                while r > 1 and np.diff(freqs).min() < 1e-2:
                    freqs = np.sort(rng.uniform(0.3, hi, size=r))
                exo = model = model_for(freqs)
                res = model.T @ exo.Phi - model.M @ model.T - np.outer(model.N, exo.Psi)
                norm_T = np.linalg.norm(model.T)
                assert np.linalg.norm(res) <= 1e-9 * (1 + norm_T)
                sv = np.linalg.svd(model.T, compute_uv=False)
                assert sv[-1] > 1e-10 * max(1.0, sv[0])
                assert np.linalg.norm(model.E @ model.T - exo.Psi) <= 1e-8 * (
                    1 + np.linalg.norm(model.E) * norm_T
                )
                assert np.linalg.eigvals(model.M).real.max() < 0
                assert is_controllable(model.M, model.N)
        # the full band at r = 3, 4: T grows too ill-conditioned for the
        # sigma_min floor (down to 1e-17 of sigma_max at r = 4), but the
        # closed form still meets the equation and E T = Psi
        for r in (3, 4):
            for _ in range(20):
                freqs = np.sort(rng.uniform(0.3, 10.0, size=r))
                while np.diff(freqs).min() < 1e-2:
                    freqs = np.sort(rng.uniform(0.3, 10.0, size=r))
                exo = model = model_for(freqs)
                res = model.T @ exo.Phi - model.M @ model.T - np.outer(model.N, exo.Psi)
                norm_T = np.linalg.norm(model.T)
                assert np.linalg.norm(res) <= 1e-9 * (1 + norm_T)
                assert np.linalg.norm(model.E @ model.T - exo.Psi) <= 1e-8 * (
                    1 + np.linalg.norm(model.E) * norm_T
                )

    def test_spectral_disjointness(self):
        Phi = exo_for([3.0, 9.9])
        M, _ = choose_MN(2)
        eig_M = np.linalg.eigvals(M)
        eig_Phi = np.linalg.eigvals(Phi)
        assert np.abs(eig_M[:, None] - eig_Phi[None, :]).min() >= 1.0


# orders of the followers by id: every r in 0..5 twice, and no two
# followers of one order adjacent, so no order's group is consecutive
BATCH_ORDERS = [1, 0, 2, 1, 0, 2, 5, 3, 4, 5, 3, 4]


def batch_scenario(orders, seed=23, d=2):
    """Complete-graph scenario with two leaders and one follower per entry
    of orders, follower k with orders[k] random sinusoids and a random
    initial velocity (so kron(N, v) carries signed zeros)."""
    rng = np.random.default_rng(seed)
    n = len(orders) + 2
    pos = rng.uniform(-5.0, 5.0, size=(n, d))
    disturbances = {}
    for k, r in enumerate(orders):
        freqs = 0.3 + 0.4 * np.arange(r) + rng.uniform(0.0, 0.2, size=r)
        disturbances[str(k + 3)] = {
            "constant": rng.normal(size=d).tolist(),
            "sinusoids": [
                {
                    "frequency": float(w),
                    "amplitudes": rng.normal(size=d).tolist(),
                    "phases": rng.uniform(-3.0, 3.0, size=d).tolist(),
                }
                for w in freqs
            ],
        }
    return {
        "graph": {
            "n_agents": n, "dimension": d, "leaders": [1, 2],
            "edges": [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)],
        },
        "geometry": {
            "desired_positions": {str(i + 1): p.tolist() for i, p in enumerate(pos)},
            "initial_velocities": {
                str(k + 3): rng.normal(size=d).tolist() for k in range(len(orders))
            },
            "leader_velocity": [0.5, 0.0],
        },
        "disturbances": disturbances,
        "controller": {"mode": "known", "kappa_p": 1.0, "kappa_v": 1.0},
        "integration": {"step": 1e-3, "t_final": 1.0},
    }


class TestBatchedBuild:
    """compile_scenario builds all followers of one order in one pass; each
    follower's arrays keep the bits of a build of that follower alone."""

    @pytest.mark.parametrize("eta_init", ["velocity_feedforward", "xi_zero"])
    def test_bitwise_per_follower(self, eta_init):
        data = batch_scenario(BATCH_ORDERS)
        data["controller"]["eta_init"] = eta_init
        sc = compile_scenario(data)
        followers = per_follower(sc)
        assert [(f.order - 1) // 2 for f in followers] == BATCH_ORDERS
        d = sc.d
        for k, f in enumerate(followers):
            spec = _parsed(data["disturbances"][str(k + 3)])
            freqs = spec[1]
            r, m = len(freqs), 2 * len(freqs) + 1
            poly = np.array([1.0, 0.0])
            for w in freqs:
                poly = np.convolve(poly, [1.0, 0.0, w * w])
            Phi = np.eye(m, k=1)
            Phi[-1] = -poly[:0:-1]
            theta0 = np.concatenate([derivative_ladder(spec, j) for j in range(m)])
            M, N = choose_MN(r)
            O = np.empty((m, m))
            O[0] = E = Phi[-1] - M[-1]
            for j in range(1, m):
                O[j] = O[j - 1] @ Phi
            T = np.linalg.solve(O, np.eye(m))
            eta0 = np.kron(N, sc.v_f0[k])
            if eta_init == "xi_zero":
                eta0 = eta0 - (T @ theta0.reshape(m, d)).ravel()
            for got, want in [
                (f.Phi, Phi), (f.theta0, theta0), (f.T, T), (f.E, E), (f.eta0, eta0),
            ]:
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_groups_in_order_of_first_follower(self):
        """One group per order, in the order of each order's first follower,
        each with its followers' positions ascending."""
        sc = compile_scenario(batch_scenario(BATCH_ORDERS))
        assert [(g.order, g.idx.tolist()) for g in sc.groups] == [
            (3, [0, 3]), (1, [1, 4]), (5, [2, 5]), (11, [6, 9]), (7, [7, 10]),
            (9, [8, 11]),
        ]

    OVERFLOW_T = "SingularT: O(Phi, E) overflows: T is not finite, residual nan"

    @pytest.mark.parametrize(
        "faults, theta_init, named, message",
        [
            # follower 4 (r = 2) overflows its exosystem, 5 (r = 1) its T
            ({4: 1e200, 5: 1e150}, {}, 4, None),
            ({3: 1e150, 6: 1e200}, {}, 3, OVERFLOW_T),
            # both faults in the order-3 group, T's at the lower id
            ({3: 1e150, 5: 1e200}, {}, 3, OVERFLOW_T),
            ({4: 1e200}, {"5": [1.0]}, 4, None),
            ({6: 1e200}, {"3": [1.0]}, None,
             "controller.theta_hat_init[3]: expected 3 entries"),
        ],
        ids=["exo-then-T", "T-then-exo", "one-order", "exo-then-shape", "shape-then-exo"],
    )
    def test_first_faulty_follower_is_named(self, faults, theta_init, named, message):
        """Faults in different order groups, or in one: the lowest follower
        at fault is named, with the words of a follower-by-follower build.
        A frequency of 1e150 overflows O(Phi, E), one of 1e200 Phi."""
        data = batch_scenario([1, 2, 1, 2])
        for i, w in faults.items():
            data["disturbances"][str(i)]["sinusoids"][0]["frequency"] = w
        data["controller"]["theta_hat_init"] = theta_init
        if message is None:
            terms = data["disturbances"][str(named)]["sinusoids"]
            message = (
                "NonFiniteExosystem: the companion matrix or the derivatives up to "
                f"order 4 at t = 0 overflow (frequencies {[t['frequency'] for t in terms]})"
            )
        if named is not None:
            message = f"disturbances[{named}]: {message}"
        with pytest.raises(ValidationError) as info:
            compile_scenario(data)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "orders, faults",
        [
            (BATCH_ORDERS, {}),
            # one fault in each of the two groups
            ([1, 2, 1, 2], {4: 1e200, 5: 1e150}),
            # two faults in the order-3 group: T's at 3, the exosystem's at 5
            ([1, 2, 1, 2], {3: 1e150, 5: 1e200}),
        ],
        ids=["valid", "two-groups", "one-group-two-stages"],
    )
    def test_each_builder_runs_once_per_order(self, monkeypatch, orders, faults):
        """build_canonical and synthesize each run once per distinct order,
        on the order's whole batch, whether or not a follower is at fault."""
        calls = []

        def counted(name, build):
            def run(*args):
                # (g, r) frequencies of the exosystems, (g, m, m) Phi of the models
                g, k = args[1 if name == "exo" else 0].shape[:2]
                calls.append((name, g, k))
                return build(*args)
            return run

        monkeypatch.setattr(scenario, "build_canonical", counted("exo", build_canonical))
        monkeypatch.setattr(scenario, "synthesize", counted("model", synthesize))
        data = batch_scenario(orders)
        for i, w in faults.items():
            data["disturbances"][str(i)]["sinusoids"][0]["frequency"] = w
        if faults:
            with pytest.raises(ValidationError):
                compile_scenario(data)
        else:
            compile_scenario(data)
        first = list(dict.fromkeys(orders))
        assert calls == [
            call
            for r in first
            for call in (("exo", orders.count(r), r), ("model", orders.count(r), 2 * r + 1))
        ]

    def test_batch_reports_each_fault_as_alone(self):
        """In a batch with several members at fault, each at fault gets the
        fault (type and words) of a build of it alone, and every other
        member none, with the bits of its own build."""
        d, rng = 2, np.random.default_rng(5)
        freqs = [[0.4, 1.1], [1e200, 0.7], [0.9, 1.3], [1e150, 0.5], [0.5, 1e60],
                 [0.2, 2.5], [1e-200, 1e200]]
        specs = [
            disturbance(rng.normal(size=d), w, rng.normal(size=(2, d)),
                        rng.uniform(-3.0, 3.0, size=(2, d)))
            for w in freqs
        ]
        Phi, theta0, exo_faults = build_canonical(*stacked(specs))
        M, N, T, E, model_faults = synthesize(Phi)
        assert set(exo_faults) == {1, 3, 6}
        assert set(model_faults) >= set(exo_faults) and 4 in model_faults
        assert len(model_faults) < len(specs)
        for k, spec in enumerate(specs):
            Phi_k, theta0_k, exo_k = build_canonical(*stacked([spec]))
            M_k, N_k, T_k, E_k, model_k = synthesize(Phi_k)
            for got, alone in ((exo_faults, exo_k), (model_faults, model_k)):
                if k in got:
                    assert list(alone) == [0]
                    assert type(got[k]) is type(alone[0])
                    assert str(got[k]) == str(alone[0])
                else:
                    assert alone == {}
            if k not in model_faults:
                for got, want in [
                    (Phi[k], Phi_k[0]), (theta0[k], theta0_k[0]), (M, M_k), (N, N_k),
                    (T[k], T_k[0]), (E[k], E_k[0]),
                ]:
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert all(isinstance(f, NonFiniteExosystem) for f in exo_faults.values())
        assert all(isinstance(f, SingularT) for f in model_faults.values())

    def test_fault_with_xi_zero_and_given_mates(self):
        """A follower at fault with eta_init "xi_zero", and Lambda and
        theta-hat(0) given for its group mates: the one line of its fault,
        and no NumPy warning from its rows that are not finite."""
        data = batch_scenario([1, 2, 1, 2])
        # theta0 and T of follower 4 overflow only in part: T theta0 overflows
        data["disturbances"]["4"]["sinusoids"][0]["frequency"] = 1e150
        data["controller"].update(
            eta_init="xi_zero",
            theta_hat_init={"6": [0.5] * 5, "3": [0.1, 0.2, 0.3]},
            adaptation_gains={"6": (2.0 * np.eye(5)).tolist()},
        )
        terms = data["disturbances"]["4"]["sinusoids"]
        with pytest.raises(ValidationError) as info:
            compile_scenario(data)
        assert str(info.value) == (
            "disturbances[4]: NonFiniteExosystem: the companion matrix or the "
            "derivatives up to order 4 at t = 0 overflow (frequencies "
            f"{[t['frequency'] for t in terms]})"
        )


def _parsed(entry):
    """(C0, w, A, ph) of a scenario's disturbance entry."""
    terms = entry["sinusoids"]
    return disturbance(
        entry["constant"],
        [t["frequency"] for t in terms],
        [t["amplitudes"] for t in terms],
        [t["phases"] for t in terms],
    )
