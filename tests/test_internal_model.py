from fractions import Fraction

import numpy as np
import pytest

from bearing_forge.disturbance import (
    CanonicalExosystem,
    DisturbanceSpec,
    build_canonical,
)
from bearing_forge.errors import SingularT
from bearing_forge.internal_model import choose_MN, synthesize


def exo_for(freqs, d=1):
    r = len(freqs)
    spec = DisturbanceSpec(d, np.ones(d), freqs, np.ones((r, d)), np.zeros((r, d)))
    return build_canonical(spec)


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
        exo = exo_for([])
        np.testing.assert_allclose(exo.Phi, [[0.0]])
        np.testing.assert_allclose(exo.Psi, [1.0])
        model = synthesize(exo)
        np.testing.assert_allclose(model.T, [[1.0]])
        np.testing.assert_allclose(model.E, [1.0])
        res = model.T @ exo.Phi - model.M @ model.T - np.outer(model.N, exo.Psi)
        assert np.linalg.norm(res) == 0.0

    def test_r1_residual(self):
        exo = exo_for([1.0])
        model = synthesize(exo)
        res = model.T @ exo.Phi - model.M @ model.T - np.outer(model.N, exo.Psi)
        assert np.linalg.norm(res) < 1e-10
        assert abs(np.linalg.det(model.T)) > 0

    @pytest.mark.parametrize("r", range(4))
    def test_matches_kronecker_solve(self, r):
        """The closed-form T against the dense Kronecker vec-solve."""
        exo = exo_for(np.arange(1, r + 1) * 0.7)
        model = synthesize(exo)
        ref = kronecker_sylvester(exo.Phi, model.M, model.N, exo.Psi)
        np.testing.assert_allclose(model.T, ref, rtol=1e-12, atol=1e-12)

    def test_overflow_rejected(self):
        """At w = 1e150 the exosystem is finite (w^2 = 1e300) but E Phi^2
        overflows, so T cannot be formed."""
        with pytest.raises(SingularT, match="O\\(Phi, E\\) overflows"):
            synthesize(exo_for([1e150]))

    def test_residual_gate_fires(self):
        """An exosystem outside the companion form breaks the closed form;
        the Sylvester residual check names the miss."""
        exo = exo_for([1.0])
        bad = CanonicalExosystem(r=1, Phi=2.0 * exo.Phi, Psi=exo.Psi, theta0=exo.theta0)
        with pytest.raises(SingularT, match="misses T Phi - M T = N Psi: residual"):
            synthesize(bad)


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
        model = synthesize(exo_for([float(w) for w in freqs]))
        assert model.E.tolist() == [float(e) for e in E_ref]
        T_ref = np.array([[float(v) for v in row] for row in T_ref])
        assert np.linalg.norm(model.T - T_ref) <= 1e-13 * np.linalg.norm(T_ref)


class TestSynthesisSweep:
    def test_r0_reduces_to_scalars(self):
        model = synthesize(exo_for([]))
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
                exo = exo_for(freqs)
                model = synthesize(exo)
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
                exo = exo_for(freqs)
                model = synthesize(exo)
                res = model.T @ exo.Phi - model.M @ model.T - np.outer(model.N, exo.Psi)
                norm_T = np.linalg.norm(model.T)
                assert np.linalg.norm(res) <= 1e-9 * (1 + norm_T)
                assert np.linalg.norm(model.E @ model.T - exo.Psi) <= 1e-8 * (
                    1 + np.linalg.norm(model.E) * norm_T
                )

    def test_spectral_disjointness(self):
        exo = exo_for([3.0, 9.9])
        M, _ = choose_MN(2)
        eig_M = np.linalg.eigvals(M)
        eig_Phi = np.linalg.eigvals(exo.Phi)
        assert np.abs(eig_M[:, None] - eig_Phi[None, :]).min() >= 1.0
