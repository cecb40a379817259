"""Closed-loop assembly, fixed-step integration, and proof-derived oracles.

Leaders translate at the common velocity v_c; each follower is a double
integrator driven by its control input plus an exosystem-generated
disturbance.  The engine integrates the full stack

    [p (all agents) | v_f | eta_f | vartheta_f | theta_hat_f]

with classical RK4, enforces the no-collision assumption at every step, and
exposes the quantities the stability proofs reason about: the closed-loop
system matrix, the xi-transformation, and the Lyapunov certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    CertificateFailed,
    CollisionDetected,
    DimensionMismatch,
    NonFiniteState,
)

DEFAULT_STEP = 1e-3
DEFAULT_COLLISION_EPS = 1e-3
CHECK_CHUNK = 64                 # steps propagated between vectorised state checks


@dataclass
class CompiledScenario:
    """Everything the engine needs, synthesized once at load time."""

    graph: object
    bearings: object
    laplacian: object
    p_star0: np.ndarray          # (n, d) target configuration at t=0
    v_c: np.ndarray              # (d,)
    p0: np.ndarray               # (n, d) initial positions
    v_f0: np.ndarray             # (n_f, d) initial follower velocities
    mode: str                    # "known" | "adaptive" | "feedback_only"
    gains: object
    specs: list                  # per-follower DisturbanceSpec
    exos: list                   # per-follower CanonicalExosystem
    models: list                 # per-follower InternalModel
    eta0: list                   # per-follower initial compensator state
    theta_hat0: list             # per-follower initial estimates of the row E
    lambdas: list                # per-follower adaptation-gain matrices
    freeze_theta: bool = False
    h: float = DEFAULT_STEP
    t_final: float = 10.0
    record_every: int = 100
    collision_eps: float = DEFAULT_COLLISION_EPS
    output_dir: str = "out"
    oracles: bool = False

    @property
    def n(self):
        return self.graph.n

    @property
    def d(self):
        return self.graph.d

    @property
    def n_l(self):
        return self.graph.n_l

    @property
    def n_f(self):
        return self.graph.n_f

    def target_positions(self, t):
        """Target configuration at time t, shape (n, d), or (len(t), n, d)
        for an array of times.  The bearing Laplacian annihilates
        translations, so the target moves rigidly:
        p*(t) = p*(0) + t (1 kron v_c)."""
        return self.p_star0 + np.multiply.outer(t, self.v_c)[..., None, :]


@dataclass
class Trajectory:
    """Recorded samples of one simulation run."""

    times: np.ndarray            # (S,)
    positions: np.ndarray        # (S, n, d)
    velocities: np.ndarray       # (S, n, d); leaders at v_c
    eta: np.ndarray              # (S, q_f)
    vartheta: np.ndarray         # (S, q_f)
    theta_hat: np.ndarray        # (S, K); K = sum of orders, 0 outside adaptive mode
    min_dist: np.ndarray         # (S,)
    step: float = 0.0


@dataclass
class LyapunovCertificate:
    """Constants of the Lyapunov argument for the adaptive closed loop."""

    Q_c: np.ndarray
    P_c: np.ndarray
    G_c: np.ndarray
    gamma: float
    gamma_sigma: float


def stack_follower_blocks(models, d):
    """Block-diagonal (M_f, E_f) over the followers, each block kron'd with I_d."""
    M_f = sla.block_diag(*[np.kron(m.M, np.eye(d)) for m in models])
    E_f = sla.block_diag(*[np.kron(m.E.reshape(1, -1), np.eye(d)) for m in models])
    return M_f, E_f


def assemble_A_sigma(B_ff, models, d, gains):
    """Closed-loop system matrix [[0, I, 0], [-kp B_ff, -kv B_ff, E_f], [0, 0, M_f]]."""
    B_ff = np.asarray(B_ff, dtype=float)
    nfd = B_ff.shape[0]
    if B_ff.shape[0] != B_ff.shape[1]:
        raise DimensionMismatch("B_ff must be square")
    if nfd != len(models) * d:
        raise DimensionMismatch(
            f"B_ff is {nfd}x{nfd} but {len(models)} models in dimension {d} "
            f"need {len(models) * d}"
        )
    M_f, E_f = stack_follower_blocks(models, d)
    q_f = M_f.shape[0]
    if E_f.shape != (nfd, q_f):
        raise DimensionMismatch(
            f"E_f has shape {E_f.shape}, expected ({nfd}, {q_f})"
        )
    A = np.zeros((2 * nfd + q_f, 2 * nfd + q_f))
    A[:nfd, nfd : 2 * nfd] = np.eye(nfd)
    A[nfd : 2 * nfd, :nfd] = -gains.kappa_p * B_ff
    A[nfd : 2 * nfd, nfd : 2 * nfd] = -gains.kappa_v * B_ff
    A[nfd : 2 * nfd, 2 * nfd :] = E_f
    A[2 * nfd :, 2 * nfd :] = M_f
    return A


def spectral_abscissa(A):
    """Maximum real part of the eigenvalues."""
    return float(np.linalg.eigvals(A).real.max())


def _pad_index(sizes, width):
    """Flat positions of a packed stack of (size_i, width) blocks inside the
    zero-padded (len(sizes), max(sizes), width) array; None when the sizes
    are equal and the packed stack already has the padded layout."""
    if len(set(sizes)) == 1:
        return None
    stride = max(sizes) * width
    return np.concatenate(
        [i * stride + np.arange(s * width) for i, s in enumerate(sizes)]
    )


def _padded(mats, rows, cols):
    """Stack 2-D blocks into a zero-padded (len(mats), rows, cols) array."""
    out = np.zeros((len(mats), rows, cols))
    for i, a in enumerate(mats):
        out[i, : a.shape[0], : a.shape[1]] = a
    return out


class Engine:
    """The closed loop in stacked per-follower form.

    Follower i's compensator and exosystem states are (m_i, d) blocks and its
    estimate of the feedforward row E_i is a row of m_i entries.  They are
    held zero-padded to the largest order, as (n_f, m_max, d) and
    (n_f, 1, m_max) arrays, next to the stacked (n_f, m_max, m_max) matrices
    M, Phi and Lambda, so that each per-follower product of the control law
    is one batched matmul.  Padded
    rows and columns are zero and never reach the packed state.
    """

    def __init__(self, sc: CompiledScenario):
        n, d, n_l, n_f = sc.n, sc.d, sc.n_l, sc.n_f
        self.sc = sc
        self.n, self.d, self.n_l, self.n_f = n, d, n_l, n_f
        self.orders = [m.order for m in sc.models]
        self.q_f = sum(self.orders) * d
        self.adaptive = sc.mode == "adaptive"
        self.K = sum(self.orders) if self.adaptive else 0

        B = sc.laplacian.B
        self.Bf = B[n_l * d :, :]                       # follower rows, acts on full stacks
        self.vc_tile = np.tile(sc.v_c, n_l)

        m_max = self.m_max = max(self.orders)
        self.eta_idx = _pad_index(self.orders, d)
        self.M3 = _padded([m.M for m in sc.models], m_max, m_max)
        self.N3 = _padded([m.N.reshape(-1, 1) for m in sc.models], m_max, 1)
        self.MN3 = _padded(
            [(m.M @ m.N).reshape(-1, 1) for m in sc.models], m_max, 1
        )
        self.Phi3 = _padded([e.Phi for e in sc.exos], m_max, m_max)
        if self.adaptive:
            self.th_idx = _pad_index(self.orders, 1)
            self.neg_Lam3 = -_padded(
                [np.atleast_2d(L) for L in sc.lambdas], m_max, m_max
            )
        elif sc.mode == "known":
            self.E3 = _padded([m.E.reshape(1, -1) for m in sc.models], 1, m_max)
        else:  # feedback_only: the same loop with a zero feedforward row
            self.E3 = np.zeros((n_f, 1, m_max))
        # index of the signal block (first d entries) of each follower's vartheta
        idx = []
        off = 0
        for m in self.orders:
            idx.extend(range(off, off + d))
            off += m * d
        self.d_idx = np.array(idx, dtype=int)

        # state layout offsets
        self.i_p = 0
        self.i_vf = n * d
        self.i_eta = self.i_vf + n_f * d
        self.i_var = self.i_eta + self.q_f
        self.i_th = self.i_var + self.q_f
        self.dim = self.i_th + self.K

    def initial_state(self):
        sc = self.sc
        y = np.zeros(self.dim)
        y[self.i_p : self.i_vf] = sc.p0.ravel()
        y[self.i_vf : self.i_eta] = sc.v_f0.ravel()
        y[self.i_eta : self.i_var] = np.concatenate(sc.eta0)
        y[self.i_var : self.i_th] = np.concatenate([e.theta0 for e in sc.exos])
        if self.K:
            y[self.i_th :] = np.concatenate(sc.theta_hat0)
        return y

    def _blocks(self, x, idx, rows, cols):
        """Packed per-follower blocks -> padded (n_f, rows, cols) array."""
        if idx is None:
            return x.reshape(self.n_f, rows, cols)
        buf = np.zeros(self.n_f * rows * cols)
        buf[idx] = x
        return buf.reshape(self.n_f, rows, cols)

    @staticmethod
    def _packed(a, idx):
        """Padded per-follower array -> packed flat blocks."""
        flat = a.reshape(-1)
        return flat if idx is None else flat[idx]

    def rhs(self, y):
        sc = self.sc
        d, n_f = self.d, self.n_f
        p = y[self.i_p : self.i_vf]
        v_f = y[self.i_vf : self.i_eta]
        eta = self._blocks(y[self.i_eta : self.i_var], self.eta_idx, self.m_max, d)
        var = self._blocks(y[self.i_var : self.i_th], self.eta_idx, self.m_max, d)

        s_p = self.Bf @ p
        s_v = self.Bf @ np.concatenate([self.vc_tile, v_f])
        v3 = v_f.reshape(n_f, 1, d)
        w = eta - self.N3 * v3                           # (n_f, m_max, d)

        dy = np.empty(self.dim)
        fb = (-sc.gains.kappa_p * s_p - sc.gains.kappa_v * s_v).reshape(n_f, 1, d)
        if not self.adaptive:
            u = fb + self.E3 @ w                         # (n_f, 1, d)
        else:
            th = self._blocks(y[self.i_th :], self.th_idx, 1, self.m_max)
            u = fb + th @ w
            if sc.freeze_theta:
                dy[self.i_th :] = 0.0
            else:
                s = (s_p + s_v).reshape(n_f, d, 1)
                dth = self.neg_Lam3 @ (w @ s)            # (n_f, m_max, 1)
                dy[self.i_th :] = self._packed(dth, self.th_idx)

        dy[self.i_p : self.i_p + self.n_l * d] = self.vc_tile
        dy[self.i_p + self.n_l * d : self.i_vf] = v_f
        dy[self.i_vf : self.i_eta] = (u + var[:, :1, :]).ravel()
        dy[self.i_eta : self.i_var] = self._packed(
            self.M3 @ eta + self.N3 * u - self.MN3 * v3, self.eta_idx
        )
        dy[self.i_var : self.i_th] = self._packed(self.Phi3 @ var, self.eta_idx)
        return dy

    def rk4(self, h):
        """One classical RK4 step of size h, taken stage by stage through rhs."""
        rhs = self.rhs

        def step(y):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        return step

    def propagator(self, h):
        """(R, r) such that one RK4 step of size h is exactly y+ = R y + r.

        Only for the affine closed loop y' = A y + b of the known and
        feedback_only modes: R = I + hA S and r = h S b with
        S = I + hA/2 (I + hA/3 (I + hA/4)).  A and b are probed from rhs
        (dim + 1 calls), so the control law keeps a single implementation.
        """
        b = self.rhs(np.zeros(self.dim))
        A = np.empty((self.dim, self.dim))
        e = np.zeros(self.dim)
        for j in range(self.dim):
            e[j] = 1.0
            A[:, j] = self.rhs(e) - b
            e[j] = 0.0
        hA = h * A
        eye = np.eye(self.dim)
        S = eye + hA @ (eye + hA @ (eye + hA / 4.0) / 3.0) / 2.0
        return eye + hA @ S, h * (S @ b)


@np.errstate(over="ignore", invalid="ignore")
def integrate(sc: CompiledScenario, h=None):
    """Run the closed loop with classical RK4 and record a Trajectory.

    States are propagated CHECK_CHUNK steps at a time, and then every step
    of the chunk is checked at once.  Raises NonFiniteState on divergence
    and CollisionDetected when two agents come within the collision
    threshold, at the first step that fails; a step that fails both reports
    the divergence.  Overflow on the way to a non-finite state is expected
    there, so NumPy's overflow and invalid-value warnings are silenced.
    """
    h = sc.h if h is None else h
    if h <= 0:
        raise ValueError("h must be positive")

    eng = Engine(sc)
    n_steps = int(round(sc.t_final / h))
    n, d = eng.n, eng.d
    iu, ju = np.triu_indices(n, 1)

    def check(block, first):
        """Minimum pair distance of each state block[c], taken at step
        first + c; raises at the first state that fails."""
        rows = block.shape[0]
        pm = block[:, eng.i_p : eng.i_vf].reshape(rows, n, d)
        sq = 0.0
        for a in range(d):  # per coordinate, to avoid a (rows, pairs, d) gather
            x = pm[:, :, a]
            diff = x[:, iu] - x[:, ju]
            sq = sq + diff * diff
        dist = np.sqrt(sq)
        k = dist.argmin(axis=1)
        dmin = dist[np.arange(rows), k]
        diverged = ~np.isfinite(block).all(axis=1)
        failed = diverged | (dmin < sc.collision_eps)
        if failed.any():
            c = int(failed.argmax())
            t = (first + c) * h
            if diverged[c]:
                raise NonFiniteState(f"non-finite state component at t={t:.6f}")
            pair = (int(iu[k[c]]) + 1, int(ju[k[c]]) + 1)
            raise CollisionDetected(t, pair, float(dmin[c]))
        return dmin

    rec_steps = np.append(np.arange(0, n_steps, sc.record_every), n_steps)
    samples = np.empty((rec_steps.size, eng.dim))
    dists = np.empty(rec_steps.size)

    if eng.adaptive:
        advance = eng.rk4(h)
    else:
        R, r = eng.propagator(h)

        def advance(y):
            return R @ y + r

    y = eng.initial_state()
    samples[0] = y
    dists[0] = check(y[None, :], 0)[0]
    s = 1
    block = np.empty((CHECK_CHUNK, eng.dim))
    done = 0
    while done < n_steps:
        rows = min(CHECK_CHUNK, n_steps - done)
        for c in range(rows):
            y = advance(y)
            block[c] = y
        try:
            dmin = check(block[:rows], done + 1)
        except NonFiniteState:
            if eng.adaptive:
                raise
            # RK4 stage values are of the order of the state over h, so a
            # step taken stage by stage overflows up to several steps before
            # the propagated state does.  Replay the run that way to report
            # the step at which the stages first leave the finite range.
            step_rk4, y = eng.rk4(h), eng.initial_state()
            for step in range(1, done + rows + 1):
                y = step_rk4(y)
                check(y[None, :], step)
            raise
        while s < rec_steps.size and rec_steps[s] <= done + rows:
            samples[s] = block[rec_steps[s] - done - 1]
            dists[s] = dmin[rec_steps[s] - done - 1]
            s += 1
        done += rows

    S = rec_steps.size
    positions = samples[:, eng.i_p : eng.i_vf].reshape(S, n, d)
    velocities = np.empty((S, n, d))
    velocities[:, : eng.n_l, :] = sc.v_c
    velocities[:, eng.n_l :, :] = samples[:, eng.i_vf : eng.i_eta].reshape(
        S, eng.n_f, d
    )
    return Trajectory(
        times=rec_steps * h,
        positions=positions,
        velocities=velocities,
        eta=samples[:, eng.i_eta : eng.i_var],
        vartheta=samples[:, eng.i_var : eng.i_th],
        theta_hat=samples[:, eng.i_th :],
        min_dist=dists,
        step=h,
    )


def _xi_samples(traj, sc):
    """xi_i(t) = eta_i + (T kron I) vartheta_i - (N kron I) v_i at each sample."""
    S, d = len(traj.times), sc.d
    xi = np.empty_like(traj.eta)
    off = 0
    for i, model in enumerate(sc.models):
        m = model.order
        blk = slice(off, off + m * d)
        eta = traj.eta[:, blk].reshape(S, m, d)
        var = traj.vartheta[:, blk].reshape(S, m, d)
        v = traj.velocities[:, sc.n_l + i, None, :]
        xi[:, blk] = (eta + model.T @ var - model.N[:, None] * v).reshape(S, m * d)
        off += m * d
    return xi


def xi_oracle(traj, sc):
    """Max deviation of the transformed state from its exact flow exp(M t) xi(0).

    Followers with the same M share one expm(M t) per sample, applied to all
    of their xi(0) blocks in one product.
    """
    xi = _xi_samples(traj, sc)
    S, d = len(traj.times), sc.d
    groups = {}
    off = 0
    for model in sc.models:
        m = model.order
        cols = groups.setdefault(model.M.tobytes(), (model.M, []))[1]
        cols.extend(range(off, off + m * d))
        off += m * d
    max_dev = 0.0
    for M, cols in groups.values():
        m = M.shape[0]
        # (S, g, m, d) -> (S, m, g d): column block j holds follower j's xi
        X = xi[:, cols].reshape(S, -1, m, d).transpose(0, 2, 1, 3).reshape(S, m, -1)
        for t, row in zip(traj.times, X):
            err = (row - sla.expm(M * t) @ X[0]).reshape(m, -1, d)
            max_dev = max(max_dev, float(np.sqrt((err * err).sum(axis=(0, 2))).max()))
    return max_dev


def build_certificate(B_ff, gains, M_f, E_f):
    """Lyapunov certificate for the adaptive closed loop.

    Q_c = blkdiag(2 kp B_ff^2, 2 (kv B_ff^2 - B_ff)), P_c solves the Lyapunov
    identity with the feedback block, G_c solves G M_f + M_f^T G = -I, and
    gamma exceeds the Schur-complement threshold by 1 percent.
    """
    B_ff = np.asarray(B_ff, dtype=float)
    nfd = B_ff.shape[0]
    B2 = B_ff @ B_ff
    kp, kv = gains.kappa_p, gains.kappa_v
    Q_c = sla.block_diag(2.0 * kp * B2, 2.0 * (kv * B2 - B_ff))
    P_c = np.block([[(kp + kv) * B2, B_ff], [B_ff, B_ff]])
    for name, mat in (("Q_c", Q_c), ("P_c", P_c)):
        if np.linalg.eigvalsh(mat)[0] <= 0:
            raise CertificateFailed(f"{name} is not positive definite")
    q_f = M_f.shape[0]
    # G M_f + M_f^T G = -I  solved as a dense continuous Lyapunov equation
    G_c = sla.solve_continuous_lyapunov(M_f.T, -np.eye(q_f))
    G_c = 0.5 * (G_c + G_c.T)
    if np.linalg.eigvalsh(G_c)[0] <= 0:
        raise CertificateFailed("G_c is not positive definite")
    PBE = P_c[:, nfd:] @ E_f                     # P_c B_c E_f with B_c = [0; I]
    gamma_sigma = float(
        np.linalg.eigvalsh(PBE @ PBE.T)[-1] / np.linalg.eigvalsh(Q_c)[0]
    )
    return LyapunovCertificate(
        Q_c=Q_c, P_c=P_c, G_c=G_c, gamma=1.01 * gamma_sigma, gamma_sigma=gamma_sigma
    )


def lyapunov_monitor(traj, certificate, sc):
    """Per-sample value of V = x~' P_c x~ + gamma xi' G_c xi + th~' Lam^-1 th~.

    The true value of each estimate is the follower's row E (the simulation
    knows the frequencies even when the controller does not).
    """
    S, n_l = len(traj.times), sc.n_l
    xi = _xi_samples(traj, sc)
    lam_inv = sla.block_diag(*[np.linalg.inv(np.atleast_2d(L)) for L in sc.lambdas])
    theta_true = np.concatenate([m.E for m in sc.models])
    p_t = traj.positions[:, n_l:, :] - sc.target_positions(traj.times)[:, n_l:, :]
    v_t = traj.velocities[:, n_l:, :] - sc.v_c
    x_t = np.concatenate([p_t.reshape(S, -1), v_t.reshape(S, -1)], axis=1)
    th_t = theta_true - traj.theta_hat

    def quad(X, Q):
        return ((X @ Q) * X).sum(axis=1)

    return (
        quad(x_t, certificate.P_c)
        + certificate.gamma * quad(xi, certificate.G_c)
        + quad(th_t, lam_inv)
    )


def metrics(traj, sc):
    """Error time series, terminal errors, decay-rate fit, and min distance."""
    S, n_l = len(traj.times), sc.n_l
    dp = traj.positions[:, n_l:, :] - sc.target_positions(traj.times)[:, n_l:, :]
    dv = traj.velocities[:, n_l:, :] - sc.v_c
    err_p = np.linalg.norm(dp, axis=2)
    err_v = np.linalg.norm(dv, axis=2)
    err_p_norm = np.linalg.norm(err_p, axis=1)
    err_v_norm = np.linalg.norm(err_v, axis=1)
    combined = np.hypot(err_p_norm, err_v_norm)

    # least-squares exponential-rate fit over the final half of the run
    half = S // 2
    t_fit = traj.times[half:]
    c_fit = combined[half:]
    mask = c_fit > 1e-300
    rate = None
    if mask.sum() >= 2 and c_fit[mask].max() > 1e-12:
        rate = float(np.polyfit(t_fit[mask], np.log(c_fit[mask]), 1)[0])

    return {
        "err_p": err_p,
        "err_v": err_v,
        "err_p_norm": err_p_norm,
        "err_v_norm": err_v_norm,
        "terminal_err_p": float(err_p_norm[-1]),
        "terminal_err_v": float(err_v_norm[-1]),
        "decay_rate": rate,
        "min_distance": float(traj.min_dist.min()),
    }
