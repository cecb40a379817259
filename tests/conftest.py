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
from bearing_forge.scenario import compile_scenario
from bearing_forge.sim_engine import build_certificate

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


def assemble_A_sigma(B_ff, models, d, gains):
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
    A[nfd : 2 * nfd, :nfd] = -gains.kappa_p * B_ff
    A[nfd : 2 * nfd, nfd : 2 * nfd] = -gains.kappa_v * B_ff
    A[nfd : 2 * nfd, 2 * nfd :] = E_f
    A[2 * nfd :, 2 * nfd :] = M_f
    return A


def dense_Q(B_ff, gains):
    """Q = blkdiag(2 kp B_ff^2, 2 (kv B_ff^2 - B_ff)), the right side of the
    certificate's Lyapunov identity, assembled densely."""
    B2 = B_ff @ B_ff
    return sla.block_diag(
        2.0 * gains.kappa_p * B2, 2.0 * (gains.kappa_v * B2 - B_ff)
    )


def padded_state(eng, packed):
    """The engine state whose real coordinates (`Engine.real`) hold the
    packed state [p | v_f | eta | vartheta | theta_hat], zero elsewhere."""
    y = np.zeros(packed.shape[:-1] + (eng.dim,))
    y[..., eng.real] = packed
    return y


def padding(eng, states):
    """The padding entries of engine states (..., eng.dim)."""
    return np.delete(states, eng.real, axis=-1)


def dense_G_c(cert, models, d):
    """G_c = blkdiag(G_i kron I_d) assembled from the certificate's G_i per
    order."""
    return sla.block_diag(*[np.kron(cert.G[m.order], np.eye(d)) for m in models])


def certificate_for(B_ff, gains, models, d):
    """build_certificate for a given B_ff, on a stand-in for the compiled
    scenario that carries only what the certificate reads."""
    B_ff = np.asarray(B_ff, dtype=float)
    laplacian = SimpleNamespace(B_ff=B_ff, ff_eigenvalues=np.linalg.eigvalsh(B_ff))
    return build_certificate(
        SimpleNamespace(laplacian=laplacian, gains=gains, models=models, d=d)
    )
