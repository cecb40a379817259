"""Closed-loop assembly, fixed-step integration, and proof-derived oracles.

Leaders translate at the common velocity v_c; each follower is a double
integrator driven by its control input plus an exosystem-generated
disturbance.  The engine integrates the full stack

    [p (all agents) | v_f | eta_f | vartheta_f | theta_hat_f]

with classical RK4, enforces the no-collision assumption at every step and
between steps, and
exposes the quantities the stability proofs reason about: the closed-loop
spectrum, the xi-transformation, and the Lyapunov certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateFailed, CollisionDetected, NonFiniteState
from .internal_model import poles
from .rk4_operator import multiply_adds, operator_step, probe

# integrate advances CHECK_CHUNK states at a time, by doubling in the linear
# modes (a power of two, so a chunk takes one matrix-vector and
# log2(CHECK_CHUNK) matrix products), and then checks the chunk's states and
# the segments between them in one pass
CHECK_CHUNK = 64
# relative slack of the broad phase's bound on pair distances, far above the
# rounding of the few operations that form it
_REACH_SLACK = 1e-12
# integrate takes Engine.operator_step when one step of it costs fewer
# multiply-adds (Engine.operator_macs, from rk4_operator.multiply_adds) than
# this, and the staged Engine.rk4 otherwise: the dense operators grow as
# dim^2 and n_prod * dim, the staged step roughly as dim.  Set from the
# crossover measured by scripts/stepper_sweep.py, recorded in
# BENCH_stepper_crossover.json.
OPERATOR_MAX_MACS = 400_000

# Pade-13 coefficients b_0..b_13 and the 1-norm below which the unscaled
# approximant meets double precision (Higham, SIAM J. Matrix Anal. Appl.
# 26(4), 2005, Table 2.3 and eq. 2.4)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


@dataclass
class CompiledScenario:
    """Everything the engine needs, synthesized once at load time."""

    graph: object
    laplacian: object
    p_star0: np.ndarray          # (n, d) target configuration at t=0
    v_c: np.ndarray              # (d,)
    p0: np.ndarray               # (n, d) initial positions
    v_f0: np.ndarray             # (n_f, d) initial follower velocities
    mode: str                    # "known" | "adaptive" | "feedback_only"
    gains: object
    exos: list                   # per-follower CanonicalExosystem
    models: list                 # per-follower InternalModel
    eta0: list                   # per-follower initial compensator state
    theta_hat0: list             # per-follower initial estimates of the row E
    lambdas: list                # per-follower adaptation-gain matrices
    freeze_theta: bool
    h: float
    t_final: float
    record_every: int
    collision_eps: float
    output_dir: str
    oracles: bool

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

    @property
    def state_dim(self):
        """Length of the engine's state [p | v_f | eta | vartheta | theta_hat],
        each follower's blocks padded to the largest order (Engine)."""
        k = self.n_f * max(m.order for m in self.models)
        adaptive = self.mode == "adaptive"
        return (self.n + self.n_f + 2 * k) * self.d + (k if adaptive else 0)

    @property
    def n_steps(self):
        return round(self.t_final / self.h)

    @property
    def n_samples(self):
        """States integrate records: every record_every-th step, and the last."""
        return -(-self.n_steps // self.record_every) + 1

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
    eta: np.ndarray              # (S, n_f, m_max, d), follower i's in rows :m_i
    vartheta: np.ndarray         # (S, n_f, m_max, d), as eta
    theta_hat: np.ndarray        # (S, n_f, m_max) in adaptive mode, (S, n_f, 0) otherwise
    min_dist: np.ndarray         # (S,)


@dataclass
class LyapunovCertificate:
    """Constants of the Lyapunov argument for the adaptive closed loop."""

    P_c: np.ndarray
    G: dict                      # order m -> G_i (m, m); G_c = blkdiag(G_i kron I_d)
    gamma: float
    gamma_sigma: float
    lambda_min_Qc: float         # smallest eigenvalue of Q (build_certificate)


def _balance(A):
    """Power-of-two scales D such that D^-1 A D has rows and columns of
    comparable 2-norm (Parlett-Reinsch, the scaling of LAPACK gebal): sweep
    the indices, scaling column i by f and row i by 1/f, until no sweep cuts
    a row-plus-column norm by 5 %.  Scaling by powers of two is exact."""
    B = A.copy()
    D = np.ones(len(B))
    converged = False
    while not converged:
        converged = True
        for i in range(len(B)):
            c, r = np.linalg.norm(B[:, i]), np.linalg.norm(B[i, :])
            if c == 0.0 or r == 0.0:
                continue
            f = np.exp2(np.round(0.5 * np.log2(r / c)))
            if c * f + r / f < 0.95 * (c + r):
                D[i] *= f
                B[i, :] /= f
                B[:, i] *= f
                converged = False
    return D


def _expm(A):
    """exp(A) of a stack (S, m, m) by Pade-13 scaling and squaring (Higham
    2005), each matrix scaled by its own power of two."""
    norm = np.abs(A).sum(axis=-2).max(axis=-1)
    s = np.ceil(np.log2(np.maximum(norm / _THETA13, 1.0))).astype(int)
    A = A / np.exp2(s)[:, None, None]
    b = _PADE13
    eye = np.eye(A.shape[-1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (
        A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
        + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye
    )
    V = (
        A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
        + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye
    )
    X = np.linalg.solve(V - U, V + U)
    for k in range(int(s.max(initial=0))):
        sq = s > k
        X[sq] = X[sq] @ X[sq]
    return X


def _flow(M, times):
    """exp(M t) for each t in times, (S, m, m), as D exp(t D^-1 M D) D^-1
    with M balanced once: the companion M has a 1-norm of 1.5e8 at r = 5
    (130 balanced), and scaling and squaring the unbalanced M loses up to
    11 digits."""
    D = _balance(M)
    B = M / D[:, None] * D
    return D[:, None] * _expm(np.multiply.outer(times, B)) / D


def closed_loop_spectrum(sc):
    """Eigenvalues of the closed loop
    A_sigma = [[0, I, 0], [-kp B_ff, -kv B_ff, E_f], [0, 0, M_f]], in
    np.sort_complex order.

    A_sigma is block triangular, so its spectrum is that of M_f, which is
    internal_model.poles(m_i), d times each, for every follower i, together
    with the two roots of lambda^2 + kv mu lambda + kp mu = 0 for each
    eigenvalue mu of B_ff.  With b = kv mu and c = kp mu, the discriminant
    is taken as (b - 2 sqrt c)(b + 2 sqrt c), so that no square overflows.
    Of a real pair, the root of larger magnitude is taken from the quadratic
    formula and the other is c divided by it, so that neither loses digits
    to cancellation; a complex pair is -b/2 +- i sqrt(4c - b^2)/2.  Real
    roots have an imaginary part of +0.
    """
    mu = sc.laplacian.ff_eigenvalues
    b, c = sc.gains.kappa_v * mu, sc.gains.kappa_p * mu
    s = 2.0 * np.sqrt(c)
    real = b >= s
    root = np.sqrt(np.abs(b - s)) * np.sqrt(b + s)           # sqrt|b^2 - 4c|
    big = -0.5 * b - 0.5 * root                              # b + root may overflow
    lam = np.empty((2, len(mu)), dtype=complex)
    lam.real = np.where(real, [big, c / big], -0.5 * b)
    lam.imag = np.where(real, 0.0, [0.5 * root, -0.5 * root])
    M_f = [np.repeat(poles(m.order), sc.d) for m in sc.models]
    return np.sort_complex(np.concatenate([lam.ravel(), *M_f]))


def _padded(mats, rows, cols):
    """Stack 2-D blocks into a zero-padded (len(mats), rows, cols) array."""
    out = np.zeros((len(mats), rows, cols))
    for i, a in enumerate(mats):
        out[i, : a.shape[0], : a.shape[1]] = a
    return out


class Engine:
    """The closed loop in stacked per-follower form.

    Follower i's compensator and exosystem states are (m_i, d) blocks and its
    estimate of the feedforward row E_i is a row of m_i entries.  The state
    holds them zero-padded to the largest order, as flat (n_f, m_max, d) and
    (n_f, 1, m_max) arrays, next to the stacked (n_f, m_max, m_max) matrices
    M, Phi and Lambda, so that each per-follower product of the control law
    is one batched matmul on a reshape of the state.  The padded rows and
    columns of the matrices are zero, so padding entries that start at 0
    stay exactly 0; `real` lists the other coordinates.

    `rhs` is composed of `_readouts` (s, w and θ̂, affine in the state) and
    `_law`, which is affine jointly in the state and in the sums θ̂ w and
    w s of the adaptive products: with the sums at zero it is the affine
    part of the closed loop, and their coefficients scatter the products.
    `operator_step` probes these pieces, with the products written out by
    `_factors` and summed by `_sums`.
    """

    def __init__(self, sc: CompiledScenario):
        n, d, n_l, n_f = sc.n, sc.d, sc.n_l, sc.n_f
        self.sc = sc
        self.n, self.d, self.n_l, self.n_f = n, d, n_l, n_f
        self.orders = [m.order for m in sc.models]
        self.adaptive = sc.mode == "adaptive"

        B = sc.laplacian.B
        self.Bf = B[n_l * d :, :]                       # follower rows, acts on full stacks
        self.vc_tile = np.tile(sc.v_c, n_l)
        # s_v = B_f v splits into the follower-velocity columns and the
        # leaders' constant share
        self.Bf_v = np.ascontiguousarray(self.Bf[:, n_l * d :])
        self.s_vc = self.Bf[:, : n_l * d] @ self.vc_tile

        m_max = self.m_max = max(self.orders)
        self.M3 = _padded([m.M for m in sc.models], m_max, m_max)
        self.N3 = _padded([m.N.reshape(-1, 1) for m in sc.models], m_max, 1)
        self.Phi3 = _padded([e.Phi for e in sc.exos], m_max, m_max)
        if self.adaptive:
            # a frozen estimate is the adaptive law with zero gain
            self.neg_Lam3 = (0.0 if sc.freeze_theta else -1.0) * _padded(
                [np.atleast_2d(L) for L in sc.lambdas], m_max, m_max
            )
        elif sc.mode == "known":
            self.E3 = _padded([m.E.reshape(1, -1) for m in sc.models], 1, m_max)
        else:  # feedback_only: the same loop with a zero feedforward row
            self.E3 = np.zeros((n_f, 1, m_max))

        # state layout offsets
        k = n_f * m_max
        self.i_p = 0
        self.i_vf = n * d
        self.i_eta = self.i_vf + n_f * d
        self.i_var = self.i_eta + k * d
        self.i_th = self.i_var + k * d
        self.dim = self.i_th + (k if self.adaptive else 0)

        # the real (non-padding) coordinates, in the packed order of the
        # scenario's initial values: each follower's m_i rows of its blocks
        rows = np.arange(m_max) < np.array(self.orders)[:, None]    # (n_f, m_max)
        blocks = np.flatnonzero(np.repeat(rows, d, axis=1))
        real = [np.arange(self.i_eta), self.i_eta + blocks, self.i_var + blocks]
        if self.adaptive:
            real.append(self.i_th + np.flatnonzero(rows))
        self.real = np.concatenate(real)

        # the adaptive products θ̂_ik w_ika and w_ika s_ia, one of each per
        # compensator coordinate
        self.n_prod = 2 * k * d if self.adaptive else 0
        self.operator_macs = multiply_adds(self.dim, self.n_prod)

    def initial_state(self):
        """The packed initial state scattered into its real coordinates."""
        sc = self.sc
        y = np.zeros(self.dim)
        y[self.real] = np.concatenate(
            [sc.p0.ravel(), sc.v_f0.ravel(), *sc.eta0, *[e.theta0 for e in sc.exos]]
            + (sc.theta_hat0 if self.adaptive else [])
        )
        return y

    def _readouts(self, y):
        """The inputs of the law, affine in y: s_p = B_f p and s_v = B_f v,
        each (n_f d,), w = eta - N v_f (n_f, m_max, d), and θ̂ (n_f, 1, m_max)
        in adaptive mode (None otherwise)."""
        d = self.d
        v_f = y[self.i_vf : self.i_eta]
        eta = y[self.i_eta : self.i_var].reshape(self.n_f, self.m_max, d)
        s_p = self.Bf @ y[self.i_p : self.i_vf]
        s_v = self.Bf_v @ v_f + self.s_vc
        w = eta - self.N3 * v_f.reshape(self.n_f, 1, d)
        th = y[self.i_th :].reshape(self.n_f, 1, self.m_max) if self.adaptive else None
        return s_p, s_v, w, th

    def _law(self, y, s_p, s_v, w, tw=None, ws=None):
        """The control law from its readouts, affine jointly in y and in the
        sums of the adaptive products, which enter only here: tw = θ̂ w
        (n_f, 1, d) adds to the input u = -kp s_p - kv s_v (+ E w outside
        adaptive mode), and ws = w s (n_f, m_max, 1) drives dθ̂ = -Λ w s.
        An absent sum is zero; with both absent this is the affine part of
        the closed loop."""
        d = self.d
        gains = self.sc.gains
        u = (-gains.kappa_p * s_p - gains.kappa_v * s_v).reshape(self.n_f, 1, d)
        if not self.adaptive:
            u = u + self.E3 @ w                          # (n_f, 1, d)
        elif tw is not None:
            u = u + tw
        var = y[self.i_var : self.i_th].reshape(self.n_f, self.m_max, d)
        dy = np.empty(self.dim)
        dy[self.i_p : self.i_p + self.n_l * d] = self.vc_tile
        dy[self.i_p + self.n_l * d : self.i_vf] = y[self.i_vf : self.i_eta]
        dy[self.i_vf : self.i_eta] = (u + var[:, :1, :]).ravel()
        # eta' = M eta + N u - M N v_f = M w + N u
        dy[self.i_eta : self.i_var] = (self.M3 @ w + self.N3 * u).ravel()
        dy[self.i_var : self.i_th] = (self.Phi3 @ var).ravel()
        dy[self.i_th :] = 0.0 if ws is None else (self.neg_Lam3 @ ws).ravel()
        return dy

    def rhs(self, y):
        s_p, s_v, w, th = self._readouts(y)
        if not self.adaptive:
            return self._law(y, s_p, s_v, w)
        ws = w @ (s_p + s_v).reshape(self.n_f, self.d, 1)
        return self._law(y, s_p, s_v, w, th @ w, ws)

    def _factors(self, s_p, s_v, w, th):
        """[z_a; z_b], the flat factors of the n_prod adaptive products
        p = z_a * z_b: first θ̂_ik w_ika, then w_ika s_ia."""
        th_b = np.broadcast_to(th.transpose(0, 2, 1), w.shape)
        s_b = np.broadcast_to((s_p + s_v).reshape(self.n_f, 1, self.d), w.shape)
        return np.concatenate([th_b, w, w, s_b], axis=None)

    def _sums(self, P):
        """The per-follower sums of the flat products P that `_law` takes:
        θ̂ w (n_f, 1, d) and w s (n_f, m_max, 1)."""
        tw, ws = (x.reshape(self.n_f, self.m_max, self.d) for x in np.split(P, 2))
        return tw.sum(axis=1, keepdims=True), ws.sum(axis=2, keepdims=True)

    def rk4(self):
        """The chunk advance of classical RK4 steps of size sc.h, each taken
        stage by stage through rhs."""
        rhs, h = self.rhs, self.sc.h

        def advance(y, out):
            for c in range(len(out)):
                k1 = rhs(y)
                k2 = rhs(y + 0.5 * h * k1)
                k3 = rhs(y + 0.5 * h * k2)
                k4 = rhs(y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                out[c] = y
            return y

        return advance

    def product_form(self):
        """(A, b, C, c, D) such that rhs(y) = A y + b + D (z_a * z_b) with
        [z_a; z_b] = C y + c, the n_prod adaptive products written out (the
        known and feedback_only modes have none, and C, c and D are empty).

        Each is probed from the pieces of rhs: dim + 1 calls of the affine
        part and of the readouts, and n_prod + 1 of the law at y = 0 with the
        sums of unit products, so the control law keeps one implementation.
        """
        dim, n_p = self.dim, self.n_prod
        b, A = probe(lambda y: self._law(y, *self._readouts(y)[:3]), dim)
        if not n_p:
            return A, b, np.zeros((0, dim)), np.zeros(0), np.zeros((dim, 0))
        c, C = probe(lambda y: self._factors(*self._readouts(y)), dim)
        zero = np.zeros(dim)
        at_zero = self._readouts(zero)[:3]
        D = probe(lambda P: self._law(zero, *at_zero, *self._sums(P)), n_p)[1]
        return A, b, C, c, D

    def operator_step(self):
        """The chunk advance of classical RK4 steps of size sc.h in product
        coordinates, exact up to rounding: `rk4_operator.operator_step` of
        the `product_form`."""
        return operator_step(*self.product_form(), self.sc.h)


@np.errstate(over="ignore", invalid="ignore")
def integrate(sc: CompiledScenario):
    """Run the closed loop with classical RK4 and record a Trajectory.

    The stepper is Engine.operator_step when one step of it costs fewer
    multiply-adds than OPERATOR_MAX_MACS, and the staged Engine.rk4
    otherwise.  It advances CHECK_CHUNK states at a time, and then the chunk
    is checked in one pass (`check`).  Raises NonFiniteState on divergence
    and CollisionDetected when two agents come within the collision
    threshold, at the first step that fails or between two steps that do
    not, whichever comes first; a step that fails both ways reports the
    divergence.  Overflow on the way to a non-finite state is expected
    there, so NumPy's overflow and invalid-value warnings are silenced.
    """
    h, eps = sc.h, sc.collision_eps
    eng = Engine(sc)
    n_steps, n, d = sc.n_steps, eng.n, eng.d
    iu, ju = np.triu_indices(n, 1)
    sqrt_d = math.sqrt(d)

    def positions_of(states):
        return states[..., eng.i_p : eng.i_vf].reshape(*states.shape[:-1], n, d)

    def distances(pm, i=iu, j=ju):
        """Distances of the pairs (i, j) in each position stack pm (..., n, d),
        the squares summed one coordinate after another."""
        diff = pm[..., i, :] - pm[..., j, :]
        sq = diff * diff
        acc = sq[..., 0]
        for a in range(1, d):
            acc = acc + sq[..., a]
        return np.sqrt(acc)

    def check(prev, bound, block, first):
        """Clear the states block[c], taken at step first + c, and the
        segments between consecutive states, from prev (step first - 1, no
        two agents closer than bound) of divergence and contact, and return
        a bound for the last state; raise at the first failure.

        A broad phase clears pairs without forming their distances.  Let
        delta_i be agent i's largest displacement over the chunk, relative
        to agent 1 (a common translation moves no pair); agent i stays
        within it on the segments too, as a ball is convex.  So a pair
        d0 apart at prev, with d0 - delta_i - delta_j at or above the
        threshold, never comes within it.  A relative slack keeps each bound
        below any distance the exact test could round to.  First, bound and
        the largest delta_i clear every pair at once; otherwise d0 is formed,
        and the pairs it does not clear are tested at every state, and
        between states by the closest approach on each segment, a clamped
        quadratic in the segment's parameter (Ericson, Real-Time Collision
        Detection, 2004, ch. 5).
        """
        rows = len(block)
        p0, pm = positions_of(prev), positions_of(block)
        moved = pm - p0
        moved = moved - moved[:, :1]
        lo, hi = 1.0 - _REACH_SLACK, 1.0 + _REACH_SLACK
        # sqrt(d) times the largest coordinate step bounds every delta_i; a
        # NaN (a non-finite state) fails the test
        low = bound * lo - 2.0 * sqrt_d * np.abs(moved).max() * hi
        if low >= eps and math.isfinite(block.sum()):
            return low
        d0 = distances(p0)
        delta = np.sqrt((moved * moved).sum(axis=2).max(axis=0))
        reach = delta[iu] + delta[ju]
        near = ~(d0 * lo - reach * hi >= eps)
        i, j = iu[near], ju[near]
        dist = distances(pm, i, j)                        # (rows, candidates)
        failed = ~np.isfinite(block).all(axis=1) | (dist < eps).any(axis=1)
        stop = int(failed.argmax()) if failed.any() else rows

        # segment c runs from state c - 1 (prev for c = 0) to state c; those
        # up to the first failing state are tested, inside only, as their
        # ends are states
        rel = pm[:stop, i] - pm[:stop, j]                 # (stop, candidates, d)
        a = np.concatenate([(p0[i] - p0[j])[None], rel[:-1]])[:stop]
        e = rel - a
        ee = (e * e).sum(axis=2)
        s = np.divide(-(a * e).sum(axis=2), ee, out=np.zeros_like(ee), where=ee > 0)
        gap = a + s[..., None] * e
        closest = np.sqrt((gap * gap).sum(axis=2))
        touch = (s > 0) & (s < 1) & (closest < eps)
        if touch.any():
            c = int(touch.any(axis=1).argmax())
            k = int(np.where(touch[c], closest[c], np.inf).argmin())
            raise CollisionDetected(
                (first + c - 1) * h,
                (int(i[k]) + 1, int(j[k]) + 1),
                float(closest[c, k]),
                until=(first + c) * h,
            )
        if stop < rows:
            t = (first + stop) * h
            if not np.isfinite(block[stop]).all():
                raise NonFiniteState(f"non-finite state component at t={t:.6f}")
            k = int(dist[stop].argmin())
            raise CollisionDetected(
                t, (int(i[k]) + 1, int(j[k]) + 1), float(dist[stop, k])
            )
        return distances(pm[-1]).min()

    rec_steps = np.minimum(np.arange(sc.n_samples) * sc.record_every, n_steps)
    samples = np.empty((rec_steps.size, eng.dim))
    dists = np.empty(rec_steps.size)
    block = np.empty((CHECK_CHUNK, eng.dim))

    def run(advance):
        """Fill samples and dists, a chunk at a time through advance.  All
        pair distances are formed only at the recorded states, and where
        the broad phase cannot clear a chunk."""
        y = eng.initial_state()
        samples[0] = y
        dists[0] = bound = distances(positions_of(y)).min()
        bound = check(y, bound, y[None, :], 0)
        s, done = 1, 0
        while done < n_steps:
            rows = min(CHECK_CHUNK, n_steps - done)
            chunk = block[:rows]
            y_next = advance(y, chunk)
            bound = check(y, bound, chunk, done + 1)
            end = int(rec_steps.searchsorted(done + rows, side="right"))
            if end > s:
                rec = rec_steps[s:end] - done - 1
                samples[s:end] = chunk[rec]
                dists[s:end] = distances(positions_of(chunk[rec])).min(axis=1)
            s, y, done = end, y_next, done + rows

    operator = eng.operator_macs < OPERATOR_MAX_MACS
    try:
        run(eng.operator_step() if operator else eng.rk4())
    except NonFiniteState:
        if not operator:
            raise
        # While the state grows without bound, the operator step and the
        # stage-by-stage step round differently and leave the finite range
        # at different steps: RK4 stage values are of the order of the state
        # over h, and the operator's dense products can seed adaptive terms
        # that the staged step keeps at exactly zero.  The staged run is the
        # reference, so it is replayed from the start; it then fails at its
        # own step (or completes).
        run(eng.rk4())

    # the Trajectory's arrays are views of the recorded states
    S, n_f = rec_steps.size, eng.n_f
    velocities = np.empty((S, n, d))
    velocities[:, : eng.n_l, :] = sc.v_c
    velocities[:, eng.n_l :, :] = samples[:, eng.i_vf : eng.i_eta].reshape(S, n_f, d)
    blocks = (S, n_f, eng.m_max, d)
    return Trajectory(
        times=rec_steps * h,
        positions=positions_of(samples),
        velocities=velocities,
        eta=samples[:, eng.i_eta : eng.i_var].reshape(blocks),
        vartheta=samples[:, eng.i_var : eng.i_th].reshape(blocks),
        theta_hat=samples[:, eng.i_th :].reshape(S, n_f, -1),
        min_dist=dists,
    )


def _by_order(models):
    """Follower indices grouped by order, {m: [i, ...]}: choose_MN makes M_i
    and N_i depend only on the order m_i."""
    groups = {}
    for i, model in enumerate(models):
        groups.setdefault(model.order, []).append(i)
    return groups


def _xi_by_order(traj, sc):
    """Per order m, with the g followers idx of that order: (m, idx, xi),
    where xi (S, g, m, d) is xi_i(t) = eta_i + T_i vartheta_i - N v_i at
    each sample, from the first m rows of their padded blocks."""
    v_f = traj.velocities[:, sc.n_l :, None, :]                # (S, n_f, 1, d)
    for m, idx in _by_order(sc.models).items():
        T = np.stack([sc.models[i].T for i in idx])
        N = sc.models[idx[0]].N[:, None]
        eta, var = traj.eta[:, idx, :m], traj.vartheta[:, idx, :m]
        yield m, idx, eta + T @ var - N * v_f[:, idx]


def _norm(x, axis):
    """2-norm along axis (an int or a tuple) with no overflow or underflow in
    the squares: each slice is first scaled by 2^-e, for 2^e just above its
    largest magnitude, and the root scaled back by 2^e.  The power of two is
    never formed (2^1024 is not a float), and the scaling is exact, so the
    result is np.linalg.norm's bit for bit wherever that neither overflows
    nor underflows."""
    e = np.frexp(np.abs(x).max(axis=axis, keepdims=True))[1]
    y = np.ldexp(x, -e)
    return np.ldexp(np.sqrt((y * y).sum(axis=axis)), np.squeeze(e, axis))


def xi_oracle(traj, sc):
    """Max deviation of the transformed state from its exact flow exp(M t) xi(0).

    Followers of one order share M, and one batched expm(M t) over the
    samples.
    """
    max_dev = 0.0
    for _, idx, xi in _xi_by_order(traj, sc):
        err = xi - _flow(sc.models[idx[0]].M, traj.times)[:, None] @ xi[0]
        max_dev = max(max_dev, float(_norm(err, (2, 3)).max()))
    return max_dev


def check_certificate(gains, mu_1, models):
    """(lambda_min(Q), {m: G_i}) with the two positivity checks of
    build_certificate, which compile_scenario runs at load in adaptive mode;
    mu_1 = lambda_min(B_ff).  G_i solves G M_i + M_i^T G = -I once per order
    (_by_order), as (I kron M_i^T + M_i^T kron I) vec(G_i) = -vec(I).
    Raises CertificateFailed."""
    kp, kv = gains.kappa_p, gains.kappa_v
    lam_Q = 2.0 * mu_1 * min(kp * mu_1, kv * mu_1 - 1.0)
    if not lam_Q > 0:
        raise CertificateFailed(f"Q is not positive definite (lambda_min {lam_Q:.3e})")
    G = {}
    for m, idx in _by_order(models).items():
        M, eye = models[idx[0]].M, np.eye(m)
        op = np.kron(eye, M.T) + np.kron(M.T, eye)
        G_m = np.linalg.solve(op, -eye.ravel()).reshape(m, m)
        G[m] = G_m = 0.5 * (G_m + G_m.T)
        # eigvalsh is backward stable: its eigenvalues are those of G within
        # m eps lambda_max (Weyl), so a smaller lambda_min has no certain sign
        lam = np.linalg.eigvalsh(G_m)
        if not lam[0] > m * np.finfo(float).eps * lam[-1]:
            raise CertificateFailed(f"G_c is not positive definite at order {m}")
    return lam_Q, G


def build_certificate(sc):
    """Lyapunov certificate of the adaptive loop from B_ff's cached spectrum.

    P_c solves A_c^T P_c + P_c A_c = -Q for the feedback block, where
    Q = blkdiag(2 kp B_ff^2, 2 (kv B_ff^2 - B_ff)) has the eigenvalues
    2 kp mu^2 and 2 mu (kv mu - 1) for each eigenvalue mu of B_ff, both
    least at the smallest, mu_1, once kv mu_1 > 1 (the gain gate).  In the
    eigenbasis of B_ff, P_c's 2 x 2 blocks [[(kp + kv) mu^2, mu], [mu, mu]]
    are positive definite when (kp + kv) mu_1 > 1: lambda_min(Q) > 0 covers it.
    P_c B_c = [B_ff; B_ff] for B_c = [0; I], so the Schur threshold
    is gamma_sigma = 2 lambda_max(B_ff W B_ff) / lambda_min(Q), with
    W = E_f E_f^T = diag(|E_i|^2 kron 1_d); gamma exceeds it by 1 percent.
    G_c = blkdiag(G_i kron I_d) solves G M_f + M_f^T G = -I and is kept as
    its G_i per order; lambda_min(Q) and G_i come from check_certificate.
    """
    B_ff, mu = sc.laplacian.B_ff, float(sc.laplacian.ff_eigenvalues[0])
    kp, kv = sc.gains.kappa_p, sc.gains.kappa_v
    lam_Q, G = check_certificate(sc.gains, mu, sc.models)
    e2 = np.repeat([model.E @ model.E for model in sc.models], sc.d)
    gamma_sigma = float(2.0 * np.linalg.eigvalsh((B_ff * e2) @ B_ff)[-1] / lam_Q)
    return LyapunovCertificate(
        P_c=np.block([[(kp + kv) * (B_ff @ B_ff), B_ff], [B_ff, B_ff]]),
        G=G,
        gamma=1.01 * gamma_sigma,
        gamma_sigma=gamma_sigma,
        lambda_min_Qc=lam_Q,
    )


def _tracking_error(traj, sc):
    """p~ = p_f - p*_f(t) and v~ = v_f - v_c, each (S, n_f, d); inf beyond
    float range."""
    with np.errstate(over="ignore"):
        p_t = traj.positions - sc.target_positions(traj.times)
        return p_t[:, sc.n_l :], traj.velocities[:, sc.n_l :] - sc.v_c


@np.errstate(over="ignore", invalid="ignore")
def lyapunov_monitor(traj, certificate, sc):
    """Per-sample value of V = x~' P_c x~ + gamma xi' G_c xi + th~' Lam^-1 th~.

    The xi and th~ terms are summed per order: xi_i' (G_i kron I_d) xi_i and
    th~_i' Lam_i^-1 th~_i, with Lam_i^-1 from one batched inverse of the
    stacked Lam_i, applied to every sample in one batched product.  The
    true value of each estimate is the follower's row E (the simulation
    knows the frequencies even when the controller does not).  A value
    beyond float range comes out inf or nan, without NumPy warnings.
    """
    S = len(traj.times)
    p_t, v_t = _tracking_error(traj, sc)
    x_t = np.concatenate([p_t.reshape(S, -1), v_t.reshape(S, -1)], axis=1)
    V_xi = V_th = 0.0
    for m, idx, xi in _xi_by_order(traj, sc):
        V_xi = V_xi + np.einsum("sgak,sgak->s", xi, certificate.G[m] @ xi)
        th_t = np.stack([sc.models[i].E for i in idx]) - traj.theta_hat[:, idx, :m]
        Lam = np.stack([sc.lambdas[i] for i in idx])
        Lam_inv = np.linalg.inv(Lam)
        V_th = V_th + np.einsum("sga,gsa->s", th_t, th_t.transpose(1, 0, 2) @ Lam_inv)
    V_x = ((x_t @ certificate.P_c) * x_t).sum(axis=1)
    return V_x + certificate.gamma * V_xi + V_th


def metrics(traj, sc):
    """Error time series, terminal errors, decay-rate fit, and min distance."""
    dp, dv = _tracking_error(traj, sc)
    # a norm beyond float range is inf
    with np.errstate(over="ignore"):
        err_p = _norm(dp, 2)
        err_v = _norm(dv, 2)
        err_p_norm = _norm(err_p, 1)
        err_v_norm = _norm(err_v, 1)
    combined = np.hypot(err_p_norm, err_v_norm)

    # least-squares exponential-rate fit over the final half of the run
    half = len(traj.times) // 2
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
