"""Internal-model synthesis: (M, N), the Sylvester solution T, and E = Psi T^{-1}.

The compensator embeds a Hurwitz controllable pair (M, N) of the order m = 2r+1
of the companion exosystem (Phi, Psi).  T Phi - M T = N Psi has one solution T,
and it is nonsingular (de Souza & Bhattacharyya, LAA 1981), because the
construction guarantees the hypotheses: sigma(M) = {-1, ..., -m} is disjoint
from sigma(Phi) = {0, +-i w_j}, (M, e_m) is controllable, (Phi, e_1) is
observable.  E = Psi T^{-1} reconstructs the disturbance from the compensator.
"""

from dataclasses import dataclass

import numpy as np

from .disturbance import companion
from .errors import SingularT

RESIDUAL_TOL = 1e-12  # ||T Phi - M T - N Psi|| <= RESIDUAL_TOL ||T|| (||Phi|| + ||M||)


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


def poles(m):
    """sigma(M) of the order-m internal model: -1, ..., -m (choose_MN)."""
    return -np.arange(1.0, m + 1)


def choose_MN(r):
    """Deterministic Hurwitz controllable pair of dimension m = 2r+1: M is the
    companion matrix of prod (s - lambda) over the poles lambda, N = e_m."""
    if r < 0:
        raise ValueError("r must be >= 0")
    m = 2 * r + 1
    return companion(np.poly(poles(m))), np.eye(m)[-1]


def synthesize(exosystem):
    """Internal model of a canonical exosystem, in closed form.  M and Phi are
    companions with one superdiagonal, N = e_m and Psi = e_1, so E T = Psi turns
    the equation into T Phi = (M + N E) T: E = Phi[-1] - M[-1] (M + N E = Phi),
    and E Phi^k T = e_{k+1} makes T the inverse of O(Phi, E), rows E Phi^k.
    Raises SingularT when O or T is not finite or T misses the equation."""
    Phi, Psi = exosystem.Phi, exosystem.Psi
    M, N = choose_MN(exosystem.r)
    m = M.shape[0]
    O = np.empty((m, m))
    O[0] = E = Phi[-1] - M[-1]
    with np.errstate(all="ignore"):  # an overflow fails the check below
        for k in range(1, m):
            O[k] = O[k - 1] @ Phi
        finite = np.isfinite(O).all()
        T = np.linalg.solve(O, np.eye(m)) if finite else O
        res = np.linalg.norm(T @ Phi - M @ T - np.outer(N, Psi))
        tol = RESIDUAL_TOL * np.linalg.norm(T) * (np.linalg.norm(Phi) + np.linalg.norm(M))
    if not (finite and np.isfinite(T).all() and res <= tol):
        raise SingularT(
            f"T misses T Phi - M T = N Psi: residual {res:.3e}, limit {tol:.3e}"
            if finite else f"O(Phi, E) overflows: T is not finite, residual {res:.3e}"
        )
    return InternalModel(M=M, N=N, T=T, E=E)
