"""Internal-model synthesis: (M, N), the Sylvester solution T, and E = Psi T^{-1}.

The compensator embeds a Hurwitz controllable pair (M, N) of the order m = 2r+1
of the companion exosystem (Phi, Psi).  T Phi - M T = N Psi has one solution T,
and it is nonsingular (de Souza & Bhattacharyya, LAA 1981), because the
construction guarantees the hypotheses: sigma(M) = {-1, ..., -m} is disjoint
from sigma(Phi) = {0, +-i w_j}, (M, e_m) is controllable, (Phi, e_1) is
observable.  E = Psi T^{-1} reconstructs the disturbance from the compensator.
"""

import numpy as np

from .disturbance import companion
from .errors import SingularT

RESIDUAL_TOL = 1e-12  # ||T Phi - M T - N Psi|| <= RESIDUAL_TOL ||T|| (||Phi|| + ||M||)


class FollowerGroup:
    """The followers of one order m = 2r+1, their controllers stacked: g
    followers at the ascending positions idx among the followers, sharing
    M and N (choose_MN), each with its exosystem, internal model, initial
    states and adaptation gain as one row of each stack."""

    def __init__(self, idx, M, N, Phi, T, E, theta0, eta0, theta_hat0, Lam):
        self.idx = idx                  # (g,) positions among the followers
        self.M = M                      # (m, m), Hurwitz
        self.N = N                      # (m,), column of the controllable pair
        self.Phi = Phi                  # (g, m, m) companion exosystem matrices
        self.T = T                      # (g, m, m) nonsingular Sylvester solutions
        self.E = E                      # (g, m) rows Psi T^{-1}
        self.theta0 = theta0            # (g, m, d) initial exosystem states
        self.eta0 = eta0                # (g, m, d) initial compensator states
        self.theta_hat0 = theta_hat0    # (g, m) initial estimates of the rows E
        self.Lam = Lam                  # (g, m, m) adaptation gains

    @property
    def order(self):
        return self.M.shape[0]


def poles(m):
    """sigma(M) of the order-m internal model: -1, ..., -m (choose_MN)."""
    return -np.arange(1.0, m + 1)


def choose_MN(r):
    """Deterministic Hurwitz controllable pair of dimension m = 2r+1: M is the
    companion matrix of prod (s - lambda) over the poles lambda, N = e_m."""
    m = 2 * r + 1
    return companion(np.poly(poles(m))), np.eye(m)[-1]


def synthesize(Phi):
    """(M, N, T, E, faults) of the internal models of a stack Phi (g, m, m)
    of companion exosystems of one order, in closed form and in one pass:
    M and N are shared, T (g, m, m) and E (g, m) are stacks.  M and Phi
    are companions with one superdiagonal, N = e_m and Psi = e_1, so E T =
    Psi turns the equation into T Phi = (M + N E) T: E = Phi[-1] - M[-1]
    (M + N E = Phi), and E Phi^k T = e_{k+1} makes T the inverse of
    O(Phi, E), rows E Phi^k.  faults maps the position of each exosystem
    whose O or T is not finite or whose T misses the equation to the
    SingularT that a synthesis of that exosystem alone gives."""
    m = Phi.shape[-1]
    (M, N), Psi = choose_MN((m - 1) // 2), np.eye(m)[0]
    O = np.empty(Phi.shape)
    O[:, 0] = E = Phi[:, -1] - M[-1]
    with np.errstate(all="ignore"):  # an overflow fails the check below
        for k in range(1, m):
            O[:, k] = (O[:, k - 1, None] @ Phi)[:, 0]
        finite = np.isfinite(O).all(axis=(1, 2))
        # an O that is not finite is solved as I, and T keeps O in its place
        eye, keep = np.broadcast_to(np.eye(m), O.shape), finite[:, None, None]
        T = np.where(keep, np.linalg.solve(np.where(keep, O, eye), eye), O)
        res = np.linalg.norm(T @ Phi - M @ T - np.outer(N, Psi), axis=(1, 2))
        tol = RESIDUAL_TOL * np.linalg.norm(T, axis=(1, 2)) * (
            np.linalg.norm(Phi, axis=(1, 2)) + np.linalg.norm(M)
        )
    ok = finite & np.isfinite(T).all(axis=(1, 2)) & (res <= tol)
    return M, N, T, E, {
        k: SingularT(
            f"T misses T Phi - M T = N Psi: residual {res[k]:.3e}, limit {tol[k]:.3e}"
            if finite[k] else
            f"O(Phi, E) overflows: T is not finite, residual {res[k]:.3e}"
        )
        for k in np.flatnonzero(~ok).tolist()
    }
