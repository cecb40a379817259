"""Internal-model synthesis: (M, N), the Sylvester solution T, and E = Psi T^{-1}.

The compensator embeds a Hurwitz controllable pair (M, N) of the same
dimension 2r+1 as the companion exosystem.  The unique solution T of
T Phi - M T = N Psi is nonsingular because (Phi, Psi) is observable and the
spectra of M and Phi are disjoint; E = Psi T^{-1} is the feedforward row
that reconstructs the disturbance from the compensator state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import SingularSylvesterOperator, SingularT

SPECTRAL_GAP_TOL = 1e-9
SINGULAR_T_TOL = 1e-10


@dataclass(frozen=True)
class InternalModel:
    """Per-follower internal-model data (all for the scalar companion block)."""

    M: np.ndarray   # (m, m), Hurwitz
    N: np.ndarray   # (m,), column of the controllable pair
    T: np.ndarray   # (m, m), nonsingular Sylvester solution
    E: np.ndarray   # (m,), row Psi T^{-1}

    @property
    def order(self):
        return self.M.shape[0]


def choose_MN(r):
    """Deterministic Hurwitz controllable pair of dimension m = 2r+1.

    M is the companion matrix of prod_{k=1..m} (s + k), so its spectrum is
    {-1, ..., -m}: real, Hurwitz, and disjoint from the purely imaginary
    spectrum of any companion exosystem.  N = e_m makes (M, N) controllable.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    m = 2 * r + 1
    coeffs = np.poly(np.arange(-1, -m - 1, -1))  # monic, [1, c_1, ..., c_m]
    M = np.zeros((m, m))
    if m > 1:
        M[np.arange(m - 1), np.arange(1, m)] = 1.0
    M[-1, :] = -coeffs[1:][::-1]
    N = np.zeros(m)
    N[-1] = 1.0
    return M, N


def solve_sylvester(Phi, M, N, Psi):
    """Solve T Phi - M T = N Psi by the Bartels-Stewart method.

    Raises SingularSylvesterOperator when the spectra of M and Phi overlap
    and SingularT when the solution is numerically singular.
    """
    Phi = np.asarray(Phi, dtype=float)
    M = np.asarray(M, dtype=float)
    N = np.asarray(N, dtype=float).reshape(-1, 1)
    Psi = np.asarray(Psi, dtype=float).reshape(1, -1)
    eig_M = np.linalg.eigvals(M)
    eig_Phi = np.linalg.eigvals(Phi)
    gap = np.abs(eig_M[:, None] - eig_Phi[None, :]).min()
    if gap < SPECTRAL_GAP_TOL:
        raise SingularSylvesterOperator(
            f"spectra of M and Phi overlap (min gap {gap:.3e})"
        )
    # (-M) T + T Phi = N Psi
    T = sla.solve_sylvester(-M, Phi, N @ Psi)
    sv = np.linalg.svd(T, compute_uv=False)
    if sv[-1] <= SINGULAR_T_TOL * max(1.0, sv[0]):
        raise SingularT(f"Sylvester solution has sigma_min = {sv[-1]:.3e}")
    return T


def compute_E(T, Psi):
    """Row E = Psi T^{-1} via a linear solve (no explicit inverse)."""
    T = np.asarray(T, dtype=float)
    Psi = np.asarray(Psi, dtype=float).reshape(-1)
    sv = np.linalg.svd(T, compute_uv=False)
    if sv[-1] <= SINGULAR_T_TOL * max(1.0, sv[0]):
        raise SingularT(f"T has sigma_min = {sv[-1]:.3e}")
    # E T = Psi  <=>  T^T E^T = Psi^T
    return np.linalg.solve(T.T, Psi)


def synthesize(exosystem):
    """Full internal model for a canonical exosystem."""
    M, N = choose_MN(exosystem.r)
    T = solve_sylvester(exosystem.Phi, M, N, exosystem.Psi)
    E = compute_E(T, exosystem.Psi)
    return InternalModel(M=M, N=N, T=T, E=E)
