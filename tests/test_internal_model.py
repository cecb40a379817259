import numpy as np
import pytest

from bearing_forge.disturbance import (
    DisturbanceSpec,
    SinusoidTerm,
    build_canonical,
)
from bearing_forge.errors import SingularSylvesterOperator, SingularT
from bearing_forge.internal_model import (
    choose_MN,
    compute_E,
    solve_sylvester,
    synthesize,
)


def exo_for(freqs, d=1):
    spec = DisturbanceSpec(
        d=d,
        C0=np.ones(d),
        terms=tuple(
            SinusoidTerm(w, np.ones(d), np.zeros(d)) for w in freqs
        ),
    )
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


class TestSolveSylvester:
    def test_scalar(self):
        T = solve_sylvester([[0.0]], [[-1.0]], [1.0], [1.0])
        np.testing.assert_allclose(T, [[1.0]])
        np.testing.assert_allclose(compute_E(T, [1.0]), [1.0])

    def test_r1_residual(self):
        exo = exo_for([1.0])
        M, N = choose_MN(1)
        T = solve_sylvester(exo.Phi, M, N, exo.Psi)
        res = T @ exo.Phi - M @ T - np.outer(N, exo.Psi)
        assert np.linalg.norm(res) < 1e-10
        assert abs(np.linalg.det(T)) > 0

    @pytest.mark.parametrize("r", range(4))
    def test_matches_kronecker_solve(self, r):
        """Bartels-Stewart against the dense vec-solve
        (Phi^T kron I - I kron M) vec(T) = vec(N Psi)."""
        exo = exo_for(np.arange(1, r + 1) * 0.7)
        M, N = choose_MN(r)
        m = M.shape[0]
        op = np.kron(exo.Phi.T, np.eye(m)) - np.kron(np.eye(m), M)
        ref = np.linalg.solve(op, np.outer(N, exo.Psi).flatten(order="F"))
        T = solve_sylvester(exo.Phi, M, N, exo.Psi)
        np.testing.assert_allclose(
            T, ref.reshape((m, m), order="F"), rtol=1e-12, atol=1e-12
        )

    def test_overlapping_spectra_rejected(self):
        with pytest.raises(SingularSylvesterOperator):
            solve_sylvester([[0.0]], [[0.0]], [1.0], [1.0])


class TestComputeE:
    def test_identity_scaled(self):
        E = compute_E(2.0 * np.eye(3), [1.0, 0.0, 0.0])
        np.testing.assert_allclose(E, [0.5, 0.0, 0.0])

    def test_random_consistency(self):
        rng = np.random.default_rng(2)
        T = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        Psi = np.array([1.0, 0.0, 0.0])
        E = compute_E(T, Psi)
        assert np.linalg.norm(E @ T - Psi) <= 1e-9

    def test_singular_rejected(self):
        with pytest.raises(SingularT):
            compute_E(np.zeros((2, 2)), [1.0, 0.0])


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

    def test_spectral_disjointness(self):
        exo = exo_for([3.0, 9.9])
        M, _ = choose_MN(2)
        eig_M = np.linalg.eigvals(M)
        eig_Phi = np.linalg.eigvals(exo.Phi)
        assert np.abs(eig_M[:, None] - eig_Phi[None, :]).min() >= 1.0
