"""Shared fixtures: the unit-square formation, scenario builders, and the
dense matrices that the closed forms of the spectrum and of the Lyapunov
certificate are checked against."""

import copy
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla

from bearing_forge.formation_graph import (
    BearingSet,
    SensingGraph,
    build_bearing_laplacian,
)
from bearing_forge.scenario import check_certificate, compile_scenario

SQUARE_POSITIONS = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
SQUARE_EDGES = [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (2, 4)]


@pytest.fixture
def square_graph():
    return SensingGraph(n=4, d=2, n_l=2, edges=SQUARE_EDGES)


@pytest.fixture
def square_bearings(square_graph):
    return BearingSet.from_positions(square_graph, SQUARE_POSITIONS)


@pytest.fixture
def square_laplacian(square_graph, square_bearings):
    return build_bearing_laplacian(square_graph, square_bearings)


def base_scenario_dict():
    """Minimal unit-square scenario; tests mutate copies of this."""
    return {
        "graph": {
            "n_agents": 4,
            "dimension": 2,
            "leaders": [1, 2],
            "edges": [list(e) for e in SQUARE_EDGES],
        },
        "geometry": {
            "desired_positions": {
                "1": [0, 0],
                "2": [1, 0],
                "3": [1, 1],
                "4": [0, 1],
            },
            "leader_velocity": [0.5, 0],
        },
        "disturbances": {},
        "controller": {"mode": "known", "kappa_p": 1.0, "kappa_v": 1.0},
        "integration": {"step": 1e-3, "t_final": 2.0, "record_every": 100},
    }


def make_scenario(**sections):
    """Compile a scenario built from the base dict with section overrides.

    Each keyword replaces or deep-merges (one level) the matching section.
    """
    data = copy.deepcopy(base_scenario_dict())
    for key, value in sections.items():
        if isinstance(value, dict) and key in data:
            data[key] = {**data[key], **value}
        else:
            data[key] = value
    return compile_scenario(data)


def replace(obj, **changes):
    """A shallow copy of obj with the named attributes replaced; a name obj
    does not have raises TypeError, as dataclasses.replace does."""
    unknown = sorted(changes.keys() - vars(obj).keys())
    if unknown:
        raise TypeError(f"{type(obj).__name__} has no attribute {', '.join(unknown)}")
    new = copy.copy(obj)
    vars(new).update(changes)
    return new


def random_formation(rng, n=None, d=None, n_l=2, complete=True):
    """Generic random formation: positions plus a (complete by default) graph."""
    n = n if n is not None else int(rng.integers(4, 9))
    d = d if d is not None else int(rng.choice([2, 3]))
    while True:
        pos = rng.uniform(-5, 5, size=(n, d))
        diffs = pos[:, None, :] - pos[None, :, :]
        dist = np.linalg.norm(diffs, axis=-1) + np.eye(n)
        if dist.min() > 0.3:
            break
    if complete:
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    else:
        edges = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if rng.random() < 0.6:
                    edges.append((i, j))
        if not edges:
            edges = [(1, 2)]
    graph = SensingGraph(n=n, d=d, n_l=n_l, edges=edges)
    bearings = BearingSet.from_positions(graph, pos)
    return graph, bearings, pos


def assemble_A_sigma(B_ff, models, d, kp, kv):
    """Dense closed-loop matrix [[0, I, 0], [-kp B_ff, -kv B_ff, E_f], [0, 0, M_f]]
    on (p~_f, v~_f, xi), with M_f = blkdiag(M_i kron I_d) and
    E_f = blkdiag(E_i kron I_d): the reference for `closed_loop_spectrum`."""
    B_ff = np.asarray(B_ff, dtype=float)
    nfd = B_ff.shape[0]
    M_f = sla.block_diag(*[np.kron(m.M, np.eye(d)) for m in models])
    E_f = sla.block_diag(*[np.kron(m.E.reshape(1, -1), np.eye(d)) for m in models])
    q_f = M_f.shape[0]
    A = np.zeros((2 * nfd + q_f, 2 * nfd + q_f))
    A[:nfd, nfd : 2 * nfd] = np.eye(nfd)
    A[nfd : 2 * nfd, :nfd] = -kp * B_ff
    A[nfd : 2 * nfd, nfd : 2 * nfd] = -kv * B_ff
    A[nfd : 2 * nfd, 2 * nfd :] = E_f
    A[2 * nfd :, 2 * nfd :] = M_f
    return A


def dense_P_c(B_ff, kp, kv):
    """P_c = [[(kp + kv) B_ff^2, B_ff], [B_ff, B_ff]], the certificate's form
    of the tracking error, which the package never forms, assembled densely."""
    return np.block([[(kp + kv) * (B_ff @ B_ff), B_ff], [B_ff, B_ff]])


def dense_Q(B_ff, kp, kv):
    """Q = blkdiag(2 kp B_ff^2, 2 (kv B_ff^2 - B_ff)), the right side of the
    certificate's Lyapunov identity, assembled densely."""
    B2 = B_ff @ B_ff
    return sla.block_diag(2.0 * kp * B2, 2.0 * (kv * B2 - B_ff))


def disturbance(C0, w=(), A=(), ph=()):
    """One disturbance as the scenario parser returns it: C0 (d,), w (r,),
    and A and ph (r, d)."""
    C0, w = np.asarray(C0, dtype=float), np.asarray(w, dtype=float)
    A, ph = (np.reshape(np.asarray(x, dtype=float), (len(w), len(C0))) for x in (A, ph))
    return C0, w, A, ph


def stacked(dists):
    """build_canonical's arguments for disturbances of one order: C0 (g, d),
    w (g, r), A and ph (g, r, d)."""
    return tuple(np.array(x) for x in zip(*dists))


def rhs(eng, y, out=None):
    """The closed loop's dy/dt at y, written into out (a C-contiguous array
    of eng.dim floats) when it is given and a fresh array otherwise; y is
    only read.  The law bound to y and out, called once."""
    dy = np.empty(eng.dim) if out is None else out
    eng._bind(y, dy)()
    return dy


def reference_order(eng):
    """The engine-state index of each coordinate of the packed state
    [p | v_f | eta | vartheta | theta_hat] of the dense references, each
    follower's blocks in follower order: a permutation of the engine's
    state, whose blocks run group by group (Engine.blocks)."""
    index = np.arange(eng.dim)
    parts = [[None] * eng.n_f for _ in range(3)]
    for g, views in zip(eng.sc.groups, eng.blocks(index)):
        for part, view in zip(parts, views):
            for j, k in enumerate(g.idx):
                part[k] = view[j].ravel()
    return np.concatenate([index[: eng.i_eta], *(x for part in parts for x in part)])


def per_follower_blocks(blocks, sc):
    """A Trajectory's per-group blocks (its eta, vartheta or theta_hat) as
    one array (S, m_i, ...) per follower, in follower order."""
    out = [None] * sc.n_f
    for g, b in zip(sc.groups, blocks):
        for j, k in enumerate(g.idx):
            out[k] = b[:, j]
    return out


def trajectory_fields(traj):
    """(name, array) of each array of a Trajectory, its per-group blocks
    one by one."""
    for name, value in vars(traj).items():
        if isinstance(value, tuple):
            for j, x in enumerate(value):
                yield f"{name}[{j}]", x
        else:
            yield name, value


def per_follower(sc):
    """Each follower's controller as a record, in follower order, sliced from
    the compiled scenario's groups: order, M, N, Psi = e_1, Phi, T, E, Lam
    and theta_hat0, and theta0 and eta0 flat (m d,), the packed layout of
    the dense references."""
    out = [None] * sc.n_f
    for g in sc.groups:
        for j, k in enumerate(g.idx):
            out[k] = SimpleNamespace(
                order=g.order, M=g.M, N=g.N, Psi=np.eye(g.order)[0],
                Phi=g.Phi[j], T=g.T[j], E=g.E[j],
                Lam=g.Lam[j], theta_hat0=g.theta_hat0[j],
                theta0=g.theta0[j].ravel(), eta0=g.eta0[j].ravel(),
            )
    return out


def dense_G_c(cert, models, d):
    """G_c = blkdiag(G_i kron I_d) assembled from the certificate's G_i per
    order, for the per-follower records models (per_follower)."""
    return sla.block_diag(*[np.kron(cert.G[m.order], np.eye(d)) for m in models])


def certificate_for(B_ff, kp, kv, models, d):
    """check_certificate for a given B_ff and per-follower models of one
    order (records with M and E), on stand-ins for the Laplacian and the
    follower group that carry only what the certificate reads, with every
    Lam_i = I and theta_hat_i(0) = 0."""
    B_ff = np.asarray(B_ff, dtype=float)
    (m,), n_f = {model.order for model in models}, len(models)
    group = SimpleNamespace(
        idx=np.arange(n_f), order=m, M=models[0].M,
        E=np.stack([model.E for model in models]),
        theta_hat0=np.zeros((n_f, m)), Lam=np.broadcast_to(np.eye(m), (n_f, m, m)),
    )
    laplacian = SimpleNamespace(
        B_ff=B_ff, ff_eigenvalues=np.linalg.eigvalsh(B_ff), n_f=n_f, n_l=1, d=d
    )
    return check_certificate(kp, kv, laplacian, [group])
