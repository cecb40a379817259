"""Sensing graphs, bearing algebra, and the bearing Laplacian.

Agents are indexed 1..n with leaders occupying 1..n_l and followers
n_l+1..n.  A sensing graph holds its k undirected edges once, as a (k, 2)
array of 1-based pairs (i, j) with i < j in lexicographic order, and a
bearing set holds the (k, d) unit bearings g_ij of its edges in the same
order (g_ji = -g_ij is implied).  Every edge-wise quantity is computed over
all edges at once: the bearings of a configuration are one difference, one
norm and one division, and the bearing Laplacian, the nd x nd block matrix
whose off-diagonal (i, j) block is -P_{g*_ij} = g g^T - I for each sensing
edge and whose diagonal block is the sum of the incident projectors, is
scattered from the (k, d, d) stack of projectors.  Its follower-follower
partition B_ff governs whether the target formation is uniquely localizable
from the leader anchors; its eigenvalues are computed once, for that gate,
the gain gate, the closed-loop spectrum and the Lyapunov certificate.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import (
    DegenerateBearing,
    MissingBearing,
    NonUnitInput,
    NotLocalizable,
)

SEPARATION_EPS = 1e-9
LOCALIZABILITY_TOL = 1e-10
UNIT_TOL = 1e-9                  # largest | ||g|| - 1 | of a given bearing


def _keys(edges):
    """One int64 key per (i, j) row of positive ids, ordered as the pairs
    are in lexicographic order."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return (edges[:, 0] << 32) | edges[:, 1]


def _pairs(keys):
    """The (k, 2) pairs of the given keys."""
    return np.column_stack((keys >> 32, keys & 0xFFFFFFFF))


def _runs(keys):
    """The stable sort order of keys, and a mask over it that is True at
    the last entry of each distinct key.  (np.unique would do, but the
    first call of it in a process costs about 15 ms on NumPy 2.4.)"""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    last = np.ones(len(keys), dtype=bool)
    last[:-1] = ordered[1:] != ordered[:-1]
    return order, last


def _norms(x):
    """2-norm of each row of the (k, d) array x, taken as np.linalg.norm
    takes it of one vector (the square root of a dot product), to the bit."""
    return np.sqrt((x[:, None, :] @ x[:, :, None]).reshape(len(x)))


def _unit_rows(diff, edges):
    """Rows of diff divided by their norms; raises DegenerateBearing naming
    the first of the aligned edges whose norm is not in
    (SEPARATION_EPS, inf).  A norm beyond float range is inf."""
    with np.errstate(over="ignore"):
        norm = _norms(diff)
    bad = ~((norm > SEPARATION_EPS) & (norm < np.inf))
    if bad.any():
        k = int(bad.argmax())
        raise DegenerateBearing(
            f"edge ({edges[k, 0]},{edges[k, 1]}): points coincide within "
            f"{SEPARATION_EPS:g} or are too far apart: ||p_i - p_j|| = {norm[k]:.3e}"
        )
    return diff / norm[:, None]


class SensingGraph:
    """Undirected sensing graph with a leader/follower partition; the
    scenario parser checks every parameter.

    Parameters
    ----------
    n : total agent count (>= 3)
    d : ambient dimension (>= 2)
    n_l : leader count, 1 <= n_l < n; leaders are agents 1..n_l, followers
        n_l+1..n
    edges : iterable of (i, j) pairs of agents i != j, 1-based, in either
        orientation; stored as the read-only (k, 2) array of the distinct
        edges as pairs i < j, in lexicographic order
    """

    def __init__(self, n, d, n_l, edges):
        given = np.array(list(edges) or np.empty((0, 2)), dtype=np.int64)
        keys = _keys(np.sort(given, axis=1))
        order, last = _runs(keys)
        pairs = _pairs(keys[order[last]])
        pairs.flags.writeable = False
        self.n, self.d, self.n_l, self.edges = n, d, n_l, pairs

    @property
    def n_f(self):
        return self.n - self.n_l

    @property
    def followers(self):
        return range(self.n_l + 1, self.n + 1)


class BearingSet:
    """Desired unit bearings: row k of the (k, d) array `g` is g_ij for row
    k, (i, j) with i < j, of the (k, 2) array `edges`; g_ji = -g_ij."""

    def __init__(self, bearings):
        """bearings : {(i, j): g_ij}, or a sequence of ((i, j), g_ij) pairs
        that may repeat an edge, each edge in either orientation.  Each
        bearing must be unit within UNIT_TOL, and is then normalized; the
        first that is not is named.  The entries of an edge must agree
        within 1e-9; the first pair that does not is named by its later
        entry.  Of agreeing entries the last is kept."""
        pairs = list(bearings.items() if isinstance(bearings, dict) else bearings)
        given = [edge for edge, _ in pairs]
        g = np.array([np.asarray(v, dtype=float) for _, v in pairs])
        g = g.reshape(len(given), -1) if given else np.zeros((0, 0))
        with np.errstate(over="ignore"):  # a huge entry has norm inf: not unit
            norm = _norms(g)
        bad = ~(np.abs(norm - 1.0) <= UNIT_TOL)
        if bad.any():
            k = int(bad.argmax())
            i, j = given[k]
            raise NonUnitInput(f"bearing for edge ({i},{j}) has norm {norm[k]:.12f}")
        edges = np.array(given or np.empty((0, 2)), dtype=np.int64)
        g = np.where((edges[:, 0] > edges[:, 1])[:, None], -g, g)   # as g_ij, i < j
        unit = g / norm[:, None]
        keys = _keys(np.sort(edges, axis=1))
        # the stable order puts the entries of an edge side by side, in the
        # order given
        order, last = _runs(keys)
        same = ~last[:-1]
        a, b = order[:-1][same], order[1:][same]
        clash = b[np.linalg.norm(unit[b] - unit[a], axis=1) > 1e-9]
        if clash.size:
            i, j = given[clash.min()]
            raise ValueError(f"conflicting bearings for edge ({i},{j})")
        self._keep(_pairs(keys[order[last]]), g[order[last]])

    def _keep(self, edges, g):
        """Store the (k, 2) pairs i < j, in lexicographic order, and the
        aligned (k, d) bearings g_ij, each row normalized (the rows are
        unit within UNIT_TOL, so this is one rounding step)."""
        self.edges = edges
        self.g = g / _norms(g)[:, None]

    @classmethod
    def from_positions(cls, graph, positions):
        """Derive bearings from a concrete configuration.

        positions : (n, d) array, agent k at row k-1.  Raises
        DegenerateBearing naming the first edge, in the graph's order, whose
        endpoints coincide or are too far apart.  The unit bearings are
        normalized once more, as given bearings are: one more rounding
        step, kept so that no result moves in its last bit.
        """
        positions = np.asarray(positions, dtype=float)
        edges = graph.edges
        with np.errstate(over="ignore"):  # a distance beyond float range: rejected
            g = _unit_rows(positions[edges[:, 0] - 1] - positions[edges[:, 1] - 1], edges)
        out = cls.__new__(cls)    # the checks of __init__ hold by construction
        out._keep(edges, g)
        return out

    def along(self, graph):
        """(k, d) bearings g_ij of the graph's edges, in its order; raises
        MissingBearing naming the first edge without one."""
        mine, keys = _keys(self.edges), _keys(graph.edges)
        idx = np.searchsorted(mine, keys)
        found = idx < len(mine)
        found[found] = mine[idx[found]] == keys[found]
        if not found.all():
            i, j = graph.edges[found.argmin()]
            raise MissingBearing((int(i), int(j)))
        return self.g[idx].reshape(len(idx), graph.d)


class BearingLaplacian:
    """The nd x nd bearing Laplacian and its leader/follower partition."""

    def __init__(self, B, n, d, n_l):
        self.B, self.n, self.d, self.n_l = B, n, d, n_l

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

    @cached_property
    def ff_eigenvalues(self):
        """Ascending eigenvalues of the symmetric B_ff, computed once."""
        return np.linalg.eigvalsh(self.B_ff)


def build_bearing_laplacian(graph, bearings):
    """Assemble the bearing Laplacian from a graph and its desired bearings:
    -P_ij into the (i, j) and (j, i) blocks of an (n, n, d, d) array, each
    diagonal block the negated sum of the other blocks of its row (the sum
    of the incident projectors), reshaped to nd x nd."""
    n, d = graph.n, graph.d
    g = bearings.along(graph)
    P = np.eye(d) - g[:, :, None] * g[:, None, :]
    i, j = graph.edges[:, 0] - 1, graph.edges[:, 1] - 1
    blocks = np.zeros((n, n, d, d))
    blocks[i, j] = -P
    blocks[j, i] = -P
    blocks[np.arange(n), np.arange(n)] = -blocks.sum(axis=1)
    B = blocks.transpose(0, 2, 1, 3).reshape(n * d, n * d)
    return BearingLaplacian(B=B, n=n, d=d, n_l=graph.n_l)


def localize_followers(laplacian, p_l_star):
    """Solve the localization problem: follower anchors from the (n_l, d)
    leader anchors p_l*.

    Returns p_f* = -B_ff^{-1} B_fl p_l* as an (n_f, d) array.  Raises
    NotLocalizable when lambda_min(B_ff) < LOCALIZABILITY_TOL.
    """
    p_l = np.asarray(p_l_star, dtype=float).reshape(-1)
    B_ff = laplacian.B_ff
    B_fl = laplacian.B_fl
    lam_min = laplacian.ff_eigenvalues[0]
    if not lam_min >= LOCALIZABILITY_TOL:
        raise NotLocalizable(
            f"smallest eigenvalue of B_ff is {lam_min:.3e} < {LOCALIZABILITY_TOL:g}"
        )
    p_f = np.linalg.solve(B_ff, -B_fl @ p_l)
    residual = np.linalg.norm(B_ff @ p_f + B_fl @ p_l)
    if residual > 1e-8 * (1.0 + np.linalg.norm(p_l)):
        raise NotLocalizable(f"localization residual {residual:.3e} too large")
    return p_f.reshape(laplacian.n_f, laplacian.d)
