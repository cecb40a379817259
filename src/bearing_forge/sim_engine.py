"""Closed-loop assembly, fixed-step integration, and proof-derived oracles.

Leaders translate at the common velocity v_c; each follower is a double
integrator driven by its control input plus an exosystem-generated
disturbance.  The engine integrates the full stack

    [p (all agents) | v_f | eta_f | vartheta_f | theta_hat_f]

with classical RK4, enforces the no-collision assumption at every step and
between steps, and exposes the run-time oracles of the stability proofs: the
xi-transformation and the Lyapunov monitor.  Only the `run` command imports
this module; the spectrum and certificate gates of the load are in scenario,
and the monitor reads the certificate the load made (sc.certificate).
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .errors import CollisionDetected, NonFiniteState
# integrate advances CHECK_CHUNK states at a time, and then checks the
# chunk's states and the segments between them in one pass
from .rk4_operator import BLOCK as CHECK_CHUNK, multiply_adds, operator_step, probe

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


class Trajectory:
    """Recorded samples of one simulation run."""

    def __init__(self, times, positions, velocities, eta, vartheta, theta_hat, min_dist):
        self.times = times              # (S,)
        self.positions = positions      # (S, n, d)
        self.velocities = velocities    # (S, n, d); leaders at v_c
        self.eta = eta                  # per group of sc.groups, (S, g, m, d)
        self.vartheta = vartheta        # per group, (S, g, m, d)
        self.theta_hat = theta_hat      # per group, (S, g, m) in adaptive mode, (S, g, 0) otherwise
        self.min_dist = min_dist        # (S,)


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


class Engine:
    """The closed loop in stacked per-group form.

    Follower i's compensator and exosystem states are (m_i, d) blocks and its
    estimate of the feedforward row E_i is a row of m_i entries.  The state
    holds them unpadded: each FollowerGroup's η blocks as one contiguous
    (g, m, d) block, group after group in sc.groups order, and so its ϑ
    blocks and θ̂ rows; `blocks` gives a state's per-group views.  Each
    per-follower product of the law is one batched matmul per group, with
    the group's own Φ and Λ stacks.  M depends only on the order
    (choose_MN), so M w is one GEMM per group on its (g, m d) view of w.
    N_i = e_{m_i}, so N v_f and N u touch only row m_i - 1 of each block
    (`last_v` in follower order, `last_u` in group order).  [s; u] comes
    out in group order, from B_f's follower rows taken in that order, so
    only v_f' = u + Psi ϑ gathers u into follower order (`order`), and only
    where the two orders differ.

    The law has one implementation, `_bind`, which binds it once to a state
    buffer and a slope buffer: every view is made there, and a call is a
    flat run of `out=` writes into the engine's buffers.  `rk4` binds it to
    its current and stage states once per stepper, so a staged step
    allocates no state-sized array.  The law is affine jointly in the state
    and in the sums θ̂ w and w s of the adaptive products, which it can hold
    as they stand: `product_form` probes it so, with the products written
    out by `_factors` and summed by `_sums`.
    """

    def __init__(self, sc):
        n, d, n_l, n_f = sc.n, sc.d, sc.n_l, sc.n_f
        self.sc = sc
        self.n, self.d, self.n_l, self.n_f = n, d, n_l, n_f
        self.adaptive = sc.mode == "adaptive"

        # the followers in group order and the first of each one's K rows of
        # d entries in eta; per group, its followers' and its rows' spans
        followers = np.concatenate([g.idx for g in sc.groups])
        orders = np.concatenate([np.full(len(g.idx), g.order) for g in sc.groups])
        first = self._first = np.cumsum(orders) - orders
        self.K = K = int(orders.sum())
        self._spans = [
            (f0, f0 + len(g.idx), first[f0], first[f0] + len(g.idx) * g.order)
            for g, f0 in zip(sc.groups, np.cumsum([0] + [len(g.idx) for g in sc.groups]))
        ]

        def flat(rows):
            return (rows[:, None] * d + np.arange(d)).ravel()

        # B_f's follower rows in group order, transposed; order gathers [s; u]
        # into follower order, None where the two orders agree
        self.BfT = sc.laplacian.B[n_l * d + flat(followers)].T
        at = np.argsort(followers)
        self.order = None if (at == np.arange(n_f)).all() else flat(at)

        # state layout offsets
        self.i_p, self.i_vf, self.i_eta = 0, n * d, (n + n_f) * d
        self.i_var, self.i_th = self.i_eta + K * d, self.i_eta + 2 * K * d
        self.dim = sc.state_dim
        self.cuts = (self.i_vf, self.i_eta, self.i_var, self.i_th)

        # flat offsets of row m_i - 1 (N_i = e_{m_i}) in eta, in follower
        # order for N v_f and in group order for N u; of row 0 of each
        # follower's vartheta, which drives its velocity; and the follower
        # of each row, in group order
        last = first + orders - 1
        self.last_v, self.last_u = flat(last[at]), flat(last)
        self.var0 = self.i_var + flat(first[at])
        self._owner = np.repeat(np.arange(n_f), orders)

        # the adaptive products θ̂_ik w_ika and w_ika s_ia, one of each per
        # compensator coordinate
        self.n_prod = 2 * K * d if self.adaptive else 0
        self.operator_macs = multiply_adds(self.dim, self.n_prod)

        # the law's buffers: [p; v] (the leaders' v is v_c), [s_p; s_v],
        # [s; u], w, the sums θ̂ w and w s, N v_f or N u as a flat (K, d)
        # block, zero but at the last rows, and u in follower order
        self._bufs = (
            np.empty((2, n * d)), *np.empty((2, 2, n_f * d)), np.empty((K, d)),
            np.empty((n_f, 1, d)), np.empty((K, 1)), np.zeros(K * d), np.empty(n_f * d),
        )
        self._bufs[0][1, : n_l * d] = np.tile(sc.v_c, n_l)
        # the adaptive products' factors (_factors), flat and as their four
        # (K, d) parts
        z = np.empty((4, K, d))
        self._z = (z.reshape(-1), *z)

    def initial_state(self):
        """The scenario's initial values, each group's blocks as they are."""
        groups = self.sc.groups
        return np.concatenate([
            self.sc.p0.ravel(), self.sc.v_f0.ravel(),
            *(g.eta0.ravel() for g in groups), *(g.theta0.ravel() for g in groups),
            *(g.theta_hat0.ravel() for g in groups if self.adaptive),
        ])

    def blocks(self, x):
        """Per group of sc.groups, the views (eta, vartheta, theta_hat) of
        its followers' blocks in the states x (..., dim): (..., g, m, d),
        (..., g, m, d) and (..., g, m), or (..., g, 0) outside adaptive
        mode."""
        lead, d, i_eta, i_var, i_th = x.shape[:-1], self.d, self.i_eta, self.i_var, self.i_th
        return [(
            x[..., i_eta + r0 * d : i_eta + r1 * d].reshape(*lead, f1 - f0, -1, d),
            x[..., i_var + r0 * d : i_var + r1 * d].reshape(*lead, f1 - f0, -1, d),
            x[..., i_th + r0 : i_th + r0 + (r1 - r0) * self.adaptive].reshape(*lead, f1 - f0, -1),
        ) for f0, f1, r0, r1 in self._spans]

    def _bind(self, y, dy, sums=True):
        """The law bound to y and dy, C-contiguous arrays of dim floats: a
        function of no arguments that writes dy/dt at y into dy and only
        reads y.  [s_p; s_v] = [p; v] B_f^T is one GEMM, [s; u] =
        [[1, 1], [-kp, -kv]] [s_p; s_v] one more, and w = eta - N v_f.
        tw = θ̂ w (E w outside adaptive mode) adds to u, and ws = w s drives
        dθ̂ = -Λ ws; with sums false, the adaptive law takes tw and ws as
        they stand in their buffers."""
        d, sc, adaptive, order = self.d, self.sc, self.adaptive, self.order
        PV, S, SU, w, tw, ws, N_x, u_f = self._bufs
        BfT, last_v, last_u, var0 = self.BfT, self.last_v, self.last_u, self.var0
        G2, form = np.array([[1.0, 1.0], [-sc.kappa_p, -sc.kappa_v]]), sums or not adaptive
        p, v_f, eta = np.split(y, self.cuts)[:3]
        dy_p, dy_vf, dy_eta = np.split(dy, self.cuts)[:3]
        s, u = SU
        u3 = u.reshape(self.n_f, 1, d)
        u_f = u if order is None else u_f
        # per group: θ̂ w (E w) and w s; eta' = M eta + N u - M N v_f =
        # M w + N u, M w one GEMM; and vartheta' = Φ ϑ and θ̂' = -Λ ws, a
        # frozen estimate the adaptive law with zero gain
        products, compensator, rest = [], [], []
        gain = 0.0 if sc.freeze_theta else -1.0
        for g, (f0, f1, r0, r1), (_, var, th), (deta, dvar, dth) in zip(
            sc.groups, self._spans, self.blocks(y), self.blocks(dy)
        ):
            n_g, m = f1 - f0, g.order
            w_g, ws_g, rows = w[r0:r1].reshape(n_g, m, d), ws[r0:r1].reshape(n_g, m, 1), (n_g, -1)
            # feedback_only has the zero feedforward row
            coef = th if adaptive else g.E if sc.mode == "known" else np.zeros_like(g.E)
            if form:
                products.append(partial(np.matmul, coef.reshape(n_g, 1, m), w_g, out=tw[f0:f1]))
                if adaptive:
                    s_g = s[f0 * d : f1 * d].reshape(n_g, d, 1)
                    products.append(partial(np.matmul, w_g, s_g, out=ws_g))
            MT = np.kron(g.M, np.eye(d)).T.copy()
            compensator.append(partial(np.matmul, w_g.reshape(rows), MT, out=deta.reshape(rows)))
            rest.append(partial(np.matmul, g.Phi, var, out=dvar))
            if adaptive:
                rest.append(partial(np.matmul, gain * g.Lam, ws_g, out=dth.reshape(n_g, m, 1)))
        p_row, v, v_row, w_flat = PV[0], PV[1], PV[1, self.n_l * d :], w.reshape(-1)
        PV_dot, G2_dot = PV.dot, G2.dot

        def law():
            np.copyto(p_row, p)
            np.copyto(v_row, v_f)
            PV_dot(BfT, S)
            G2_dot(S, SU)
            N_x[last_v] = v_f
            np.subtract(eta, N_x, out=w_flat)
            for product in products:
                product()
            np.add(u3, tw, out=u3)
            if order is not None:
                np.take(u, order, out=u_f)
            np.add(u_f, y[var0], out=dy_vf)
            np.copyto(dy_p, v)
            for Mw in compensator:
                Mw()
            N_x[last_u] = u
            np.add(dy_eta, N_x, out=dy_eta)
            for product in rest:
                product()

        return law

    def _factors(self, y):
        """[z_a; z_b], the flat factors of the n_prod adaptive products
        p = z_a * z_b at the law's last evaluation, on y: first θ̂_ik w_ika,
        then w_ika s_ia, written into one buffer, which is returned."""
        SU, w = self._bufs[2:4]
        z, th_z, w_a, w_b, s_z = self._z
        np.copyto(th_z, y[self.i_th :, None])
        np.copyto(w_a, w)
        np.copyto(w_b, w)
        np.take(SU[0].reshape(self.n_f, self.d), self._owner, axis=0, out=s_z)
        return z

    def _sums(self, P):
        """The per-follower sums of the flat products P that the law takes:
        θ̂ w (n_f, 1, d) and w s (K, 1)."""
        tw, ws = (x.reshape(self.K, self.d) for x in np.split(P, 2))
        return np.add.reduceat(tw, self._first, axis=0)[:, None], ws.sum(axis=1, keepdims=True)

    def rk4(self):
        """The chunk advance of classical RK4 steps of size sc.h, taken stage
        by stage through the law bound once to the current and stage states
        and the slopes k1..k4.  y + (h/6)(k1 + 2 k2 + 2 k3 + k4) is formed in
        place in that association order, so the states are bitwise those of
        RK4 on the law with fresh arrays.  The input is only read, and the
        last state is returned as a copy, which the next chunk's out may
        overwrite."""
        h, half, sixth = self.sc.h, 0.5 * self.sc.h, self.sc.h / 6.0
        y, stage, k1, k2, k3, k4 = np.empty((6, self.dim))
        f1, f2, f3, f4 = map(self._bind, (y, stage, stage, stage), (k1, k2, k3, k4))

        def advance(y0, out):
            np.copyto(y, y0)
            for row in out:
                f1()
                np.add(y, np.multiply(k1, half, out=stage), out=stage)
                f2()
                np.add(y, np.multiply(k2, half, out=stage), out=stage)
                f3()
                np.add(y, np.multiply(k3, h, out=stage), out=stage)
                f4()
                acc = np.add(k1, np.multiply(k2, 2.0, out=k2), out=k1)
                np.add(acc, np.multiply(k3, 2.0, out=k3), out=acc)
                np.add(acc, k4, out=acc)
                np.add(y, np.multiply(acc, sixth, out=acc), out=y)
                np.copyto(row, y)
            return y.copy()

        return advance

    def product_form(self):
        """(A, b, C, c, D) such that dy/dt = A y + b + D (z_a * z_b) with
        [z_a; z_b] = C y + c, the n_prod adaptive products written out (the
        known and feedback_only modes have none, and C, c and D are empty).

        Each is probed from the law bound with its sums held, so the control
        law keeps one implementation: dim + 1 calls with the sums at zero,
        each read out as [dy; z], as the held law forms w and s, which
        `_factors` reads; and n_prod + 1 at y = 0 with the sums of unit
        products.
        """
        dim, n_p = self.dim, self.n_prod
        y, dy = np.zeros((2, dim))
        held = self._bind(y, dy, sums=False)
        tw, ws = self._bufs[4:6]

        def at(x):
            y[:] = x
            held()
            return dy

        tw[:] = ws[:] = 0.0
        readout = (lambda x: np.concatenate([at(x), self._factors(y)])) if n_p else at
        f0, F = probe(readout, dim)
        A, b, C, c = F[:dim], f0[:dim], F[dim:], f0[dim:]
        if not n_p:
            return A, b, C, c, np.zeros((dim, 0))

        def summed(P):
            tw[:], ws[:] = self._sums(P)
            return at(0.0)

        D = probe(summed, n_p)[1]
        return A, b, C, c, D

    def operator_step(self):
        """The chunk advance of classical RK4 steps of size sc.h in product
        coordinates, exact up to rounding: `rk4_operator.operator_step` of
        the `product_form`."""
        return operator_step(*self.product_form(), self.sc.h)


@np.errstate(over="ignore", invalid="ignore")
def integrate(sc):
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
    eta, vartheta, theta_hat = zip(*eng.blocks(samples))
    return Trajectory(
        rec_steps * h, positions_of(samples), velocities, eta, vartheta, theta_hat, dists
    )


def _xi_by_order(traj, sc):
    """Per group g: (g, xi), where xi (S, g, m, d) is
    xi_i(t) = eta_i + T_i vartheta_i - N v_i at each sample, from the
    group's blocks of the Trajectory."""
    v_f = traj.velocities[:, sc.n_l :, None, :]                # (S, n_f, 1, d)
    for g, eta, var in zip(sc.groups, traj.eta, traj.vartheta):
        yield g, eta + g.T @ var - g.N[:, None] * v_f[:, g.idx]


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
    for g, xi in _xi_by_order(traj, sc):
        err = xi - _flow(g.M, traj.times)[:, None] @ xi[0]
        max_dev = max(max_dev, float(_norm(err, (2, 3)).max()))
    return max_dev


def _tracking_error(traj, sc):
    """p~ = p_f - p*_f(t) and v~ = v_f - v_c, each (S, n_f, d); inf beyond
    float range."""
    with np.errstate(over="ignore"):
        p_t = traj.positions - sc.target_positions(traj.times)
        return p_t[:, sc.n_l :], traj.velocities[:, sc.n_l :] - sc.v_c


@np.errstate(over="ignore", invalid="ignore")
def lyapunov_monitor(traj, sc):
    """Per-sample V = x~' P x~ + gamma xi' G_c xi + th~' Lam^-1 th~ with
    the constants of sc.certificate (scenario.LyapunovCertificate).  For
    x~ = [p~; v~], x~' P x~ is (kp + kv) |B_ff p~|^2 + (2 p~ + v~)' B_ff v~,
    from the products B_ff p~ and B_ff v~ of all samples.  The xi and th~
    terms are summed per order, each one batched product over the samples.
    The true value of each estimate is the follower's row E (the simulation
    knows the frequencies even when the controller does not).  A value
    beyond float range comes out inf or nan, without NumPy warnings.
    """
    cert, S, B_ff = sc.certificate, len(traj.times), sc.laplacian.B_ff
    gamma = cert.gamma  # its first use takes an eigvalsh: before the samples' arrays
    p_t, v_t = (x.reshape(S, -1) for x in _tracking_error(traj, sc))
    Bp, Bv = p_t @ B_ff, v_t @ B_ff
    V_x = (sc.kappa_p + sc.kappa_v) * (Bp * Bp).sum(1)
    V_x += ((2.0 * p_t + v_t) * Bv).sum(1)
    V_xi = V_th = 0.0
    for (g, xi), th in zip(_xi_by_order(traj, sc), traj.theta_hat):
        m = g.order
        V_xi = V_xi + np.einsum("sgak,sgak->s", xi, cert.G[m] @ xi)
        th_t = g.E - th
        V_th = V_th + np.einsum(
            "sga,gsa->s", th_t, th_t.transpose(1, 0, 2) @ cert.Lam_inv[m]
        )
    return V_x + gamma * V_xi + V_th


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
