"""Sensing graphs, bearing algebra, and the bearing Laplacian.

Agents are indexed 1..n with leaders occupying 1..n_l and followers
n_l+1..n.  The bearing Laplacian is the nd x nd block matrix whose
off-diagonal (i, j) block is -P_{g*_ij} for each sensing edge and whose
diagonal block is the sum of the incident projectors.  Its follower-follower
partition governs whether the target formation is uniquely localizable from
the leader anchors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateBearing,
    MissingBearing,
    NonUnitInput,
    NotLocalizable,
)

SEPARATION_EPS = 1e-9
LOCALIZABILITY_TOL = 1e-10


def unit_bearing(p_i, p_j, eps=SEPARATION_EPS):
    """Unit vector pointing from agent j toward agent i: (p_i - p_j)/||p_i - p_j||."""
    p_i = np.asarray(p_i, dtype=float)
    p_j = np.asarray(p_j, dtype=float)
    diff = p_i - p_j
    norm = np.linalg.norm(diff)
    if not eps < norm < np.inf:  # inf: the distance is beyond float range
        raise DegenerateBearing(
            f"points coincide within {eps:g} or are too far apart: "
            f"||p_i - p_j|| = {norm:.3e}"
        )
    return diff / norm


def projector(g, tol=1e-9):
    """Orthogonal projector I - g g^T onto the complement of the unit vector g."""
    g = np.asarray(g, dtype=float)
    norm = np.linalg.norm(g)
    if abs(norm - 1.0) > tol:
        raise NonUnitInput(f"||g|| = {norm:.12f}, expected 1 within {tol:g}")
    return np.eye(g.size) - np.outer(g, g)


@dataclass(frozen=True)
class SensingGraph:
    """Undirected sensing graph with a leader/follower partition.

    Parameters
    ----------
    n : total agent count (>= 3)
    d : ambient dimension (>= 2)
    n_l : leader count; leaders are agents 1..n_l, followers n_l+1..n
    edges : iterable of (i, j) pairs, 1-based, stored symmetrically
    """

    n: int
    d: int
    n_l: int
    edges: frozenset = field(default_factory=frozenset)

    def __init__(self, n, d, n_l, edges):
        if n < 3:
            raise ValueError(f"need at least 3 agents, got n={n}")
        if d < 2:
            raise ValueError(f"need dimension >= 2, got d={d}")
        if not 1 <= n_l < n:
            raise ValueError(f"leader count must satisfy 1 <= n_l < n, got {n_l}")
        sym = set()
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop at agent {i}")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i},{j}) references an unknown agent")
            sym.add((i, j))
            sym.add((j, i))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n_l", n_l)
        object.__setattr__(self, "edges", frozenset(sym))

    @property
    def n_f(self):
        return self.n - self.n_l

    @property
    def followers(self):
        return range(self.n_l + 1, self.n + 1)

    def neighbors(self, i):
        return sorted(j for (a, j) in self.edges if a == i)


class BearingSet:
    """Desired unit bearings per edge, stored with g_ji = -g_ij."""

    def __init__(self, bearings):
        self._g = {}
        with np.errstate(over="ignore"):  # a huge entry has norm inf: rejected
            for (i, j), g in bearings.items():
                g = np.asarray(g, dtype=float)
                norm = np.linalg.norm(g)
                if abs(norm - 1.0) > 1e-9:
                    raise NonUnitInput(
                        f"bearing for edge ({i},{j}) has norm {norm:.12f}"
                    )
                g = g / norm
                stored = self._g.get((i, j))
                if stored is not None and np.linalg.norm(stored - g) > 1e-9:
                    raise ValueError(f"conflicting bearings for edge ({i},{j})")
                self._g[(i, j)] = g
                self._g[(j, i)] = -g

    @classmethod
    def from_positions(cls, graph, positions):
        """Derive bearings from a concrete configuration.

        positions : (n, d) array, agent k at row k-1.
        """
        positions = np.asarray(positions, dtype=float)
        bearings = {}
        with np.errstate(over="ignore"):  # a distance beyond float range: rejected
            for (i, j) in graph.edges:
                if (j, i) not in bearings:
                    bearings[(i, j)] = unit_bearing(positions[i - 1], positions[j - 1])
        return cls(bearings)

    def __contains__(self, edge):
        return edge in self._g

    def __getitem__(self, edge):
        try:
            return self._g[edge]
        except KeyError:
            raise MissingBearing(f"no desired bearing for edge {edge}") from None


@dataclass(frozen=True)
class BearingLaplacian:
    """The nd x nd bearing Laplacian and its leader/follower partition."""

    B: np.ndarray
    n: int
    d: int
    n_l: int

    @property
    def n_f(self):
        return self.n - self.n_l

    @property
    def B_fl(self):
        k = self.n_l * self.d
        return self.B[k:, :k]

    @property
    def B_ff(self):
        k = self.n_l * self.d
        return self.B[k:, k:]


def build_bearing_laplacian(graph, bearings):
    """Assemble the bearing Laplacian from a graph and its desired bearings."""
    n, d = graph.n, graph.d
    B = np.zeros((n * d, n * d))
    for (i, j) in graph.edges:
        if i >= j:
            continue
        P = projector(bearings[(i, j)])
        bi = slice((i - 1) * d, i * d)
        bj = slice((j - 1) * d, j * d)
        B[bi, bj] -= P
        B[bj, bi] -= P
        B[bi, bi] += P
        B[bj, bj] += P
    return BearingLaplacian(B=B, n=n, d=d, n_l=graph.n_l)


def localize_followers(laplacian, p_l_star):
    """Solve the localization problem: follower anchors from leader anchors.

    Returns p_f* = -B_ff^{-1} B_fl p_l* as an (n_f, d) array.
    """
    d = laplacian.d
    n_f = laplacian.n_f
    p_l = np.asarray(p_l_star, dtype=float).reshape(-1)
    if p_l.size != laplacian.n_l * d:
        raise ValueError(
            f"expected {laplacian.n_l * d} leader coordinates, got {p_l.size}"
        )
    B_ff = laplacian.B_ff
    B_fl = laplacian.B_fl
    smin = np.linalg.svd(B_ff, compute_uv=False)[-1] if B_ff.size else 0.0
    if smin < LOCALIZABILITY_TOL:
        raise NotLocalizable(
            f"smallest singular value of B_ff is {smin:.3e} < {LOCALIZABILITY_TOL:g}"
        )
    p_f = np.linalg.solve(B_ff, -B_fl @ p_l)
    residual = np.linalg.norm(B_ff @ p_f + B_fl @ p_l)
    if residual > 1e-8 * (1.0 + np.linalg.norm(p_l)):
        raise NotLocalizable(f"localization residual {residual:.3e} too large")
    return p_f.reshape(n_f, d)
