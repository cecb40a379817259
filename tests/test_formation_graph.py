import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bearing_forge.errors import (
    DegenerateBearing,
    MissingBearing,
    NonUnitInput,
    NotLocalizable,
)
from bearing_forge.formation_graph import (
    BearingSet,
    SensingGraph,
    build_bearing_laplacian,
    localize_followers,
    projector,
    unit_bearing,
)

from conftest import SQUARE_POSITIONS, random_formation


def unit_vectors(d):
    return (
        st.lists(st.floats(-1, 1, allow_nan=False), min_size=d, max_size=d)
        .map(np.array)
        .filter(lambda v: np.linalg.norm(v) > 1e-3)
        .map(lambda v: v / np.linalg.norm(v))
    )


class TestUnitBearing:
    def test_axis_aligned(self):
        np.testing.assert_allclose(unit_bearing([1, 0], [0, 0]), [1, 0])

    def test_axis_aligned_sign(self):
        np.testing.assert_allclose(unit_bearing([0, 0], [0, 2]), [0, -1])

    def test_normalization(self):
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(unit_bearing([1, 1], [0, 0]), [s, s])

    def test_coincident_points(self):
        with pytest.raises(DegenerateBearing):
            unit_bearing([1.0, 2.0], [1.0, 2.0])


class TestProjector:
    def test_e1(self):
        np.testing.assert_allclose(projector([1, 0]), [[0, 0], [0, 1]])

    def test_e2(self):
        np.testing.assert_allclose(projector([0, 1]), [[1, 0], [0, 0]])

    def test_diagonal(self):
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(
            projector([s, s]), [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15
        )

    def test_non_unit_rejected(self):
        with pytest.raises(NonUnitInput):
            projector([1.0, 1.0])

    @settings(max_examples=200)
    @given(g=st.one_of(unit_vectors(2), unit_vectors(3)))
    def test_idempotent_symmetric_annihilating(self, g):
        P = projector(g)
        assert np.linalg.norm(P @ P - P) <= 1e-12
        assert np.linalg.norm(P - P.T) <= 1e-12
        assert np.linalg.norm(P @ g) <= 1e-12


class TestBearingLaplacian:
    def test_single_edge_expansion(self):
        graph = SensingGraph(n=3, d=2, n_l=1, edges=[(1, 2)])
        bearings = BearingSet({(1, 2): np.array([1.0, 0.0])})
        L = build_bearing_laplacian(graph, bearings)
        P = np.array([[0.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(L.B[:2, :2], P)
        np.testing.assert_allclose(L.B[:2, 2:4], -P)
        np.testing.assert_allclose(L.B[2:4, :2], -P)
        np.testing.assert_allclose(L.B[2:4, 2:4], P)
        np.testing.assert_allclose(L.B[4:, :], 0.0)

    def test_square_localizable(self, square_laplacian):
        smin = np.linalg.svd(square_laplacian.B_ff, compute_uv=False)[-1]
        assert smin > 1e-8

    def test_ff_eigenvalues_computed_once(self, square_laplacian):
        """B_ff's ascending eigenvalues are computed on first use and kept."""
        ev = square_laplacian.ff_eigenvalues
        assert square_laplacian.ff_eigenvalues is ev
        np.testing.assert_array_equal(ev, np.linalg.eigvalsh(square_laplacian.B_ff))
        assert np.all(np.diff(ev) >= 0)

    def test_missing_bearing(self, square_graph):
        partial = BearingSet({(1, 2): np.array([1.0, 0.0])})
        with pytest.raises(MissingBearing):
            build_bearing_laplacian(square_graph, partial)

    def test_partition_transpose(self, square_laplacian):
        """B is symmetric, so its leader-follower blocks are transposes."""
        np.testing.assert_array_equal(square_laplacian.B, square_laplacian.B.T)

    def test_null_space_square(self, square_laplacian):
        for v in ([1.0, 0.0], [0.0, 1.0]):
            stacked = np.tile(v, square_laplacian.n)
            assert np.linalg.norm(square_laplacian.B @ stacked) <= 1e-10

    def test_random_properties(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            graph, bearings, pos = random_formation(rng, complete=False)
            L = build_bearing_laplacian(graph, bearings)
            assert np.linalg.norm(L.B - L.B.T) <= 1e-12
            assert np.linalg.eigvalsh(L.B)[0] >= -1e-10
            v = rng.standard_normal(graph.d)
            assert np.linalg.norm(L.B @ np.tile(v, graph.n)) <= 1e-10 * (
                1 + np.linalg.norm(v)
            )
            # the generating configuration satisfies all bearing constraints
            assert np.linalg.norm(L.B @ pos.ravel()) <= 1e-10 * (
                1 + np.linalg.norm(pos)
            )


class TestLocalizeFollowers:
    def test_square_recovery(self, square_laplacian):
        p_f = localize_followers(square_laplacian, SQUARE_POSITIONS[:2])
        np.testing.assert_allclose(p_f, SQUARE_POSITIONS[2:], atol=1e-10)

    def test_collinear_not_localizable(self):
        graph = SensingGraph(n=3, d=2, n_l=2, edges=[(1, 3), (2, 3)])
        bearings = BearingSet(
            {(3, 1): np.array([1.0, 0.0]), (3, 2): np.array([-1.0, 0.0])}
        )
        L = build_bearing_laplacian(graph, bearings)
        np.testing.assert_allclose(L.B_ff, [[0.0, 0.0], [0.0, 2.0]], atol=1e-15)
        with pytest.raises(NotLocalizable):
            localize_followers(L, np.array([[0.0, 0.0], [2.0, 0.0]]))

    def test_not_localizable_names_smallest_eigenvalue(self):
        """The gate names the smallest eigenvalue of B_ff and the tolerance."""
        graph = SensingGraph(n=3, d=2, n_l=2, edges=[(1, 3), (2, 3)])
        bearings = BearingSet(
            {(3, 1): np.array([1.0, 0.0]), (3, 2): np.array([-1.0, 0.0])}
        )
        L = build_bearing_laplacian(graph, bearings)
        with pytest.raises(
            NotLocalizable, match=r"^smallest eigenvalue of B_ff is \S+ < 1e-10$"
        ):
            localize_followers(L, np.array([[0.0, 0.0], [2.0, 0.0]]))

    def test_random_recovery(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            graph, bearings, pos = random_formation(rng, complete=True)
            L = build_bearing_laplacian(graph, bearings)
            p_f = localize_followers(L, pos[: graph.n_l])
            assert np.linalg.norm(p_f - pos[graph.n_l :]) <= 1e-8


def seeded_formation(n, d, complete, seed):
    """Graph, bearings and positions of n agents drawn in [-5, 5]^d; the
    sparse graph keeps each pair with probability 0.3, and at least (1, 2)."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-5, 5, size=(n, d))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if not complete:
        pairs = [e for e in pairs if rng.random() < 0.3] or [(1, 2)]
    rng.shuffle(pairs)                      # the graph orders its edges itself
    graph = SensingGraph(n=n, d=d, n_l=2, edges=[(j, i) for i, j in pairs[::2]] + pairs[1::2])
    return graph, BearingSet.from_positions(graph, pos), pos


def reference_laplacian(graph, bearings):
    """The bearing Laplacian one edge at a time, from the single-edge helpers."""
    n, d = graph.n, graph.d
    B = np.zeros((n * d, n * d))
    for i, j in graph.edges.tolist():
        P = projector(bearings[(i, j)])
        bi = slice((i - 1) * d, i * d)
        bj = slice((j - 1) * d, j * d)
        B[bi, bj] -= P
        B[bj, bi] -= P
        B[bi, bi] += P
        B[bj, bj] += P
    return B


FORMATIONS = [
    (n, d, complete, seed)
    for seed, (n, d, complete) in enumerate(
        (n, d, c) for n in (3, 8, 64) for d in (2, 3) for c in (True, False)
    )
]


class TestEdgeAlgebra:
    """The whole-array edge algebra against its per-edge definition."""

    @pytest.mark.parametrize("n, d, complete, seed", FORMATIONS)
    def test_matches_per_edge_reference(self, n, d, complete, seed):
        graph, bearings, pos = seeded_formation(n, d, complete, seed)
        B = build_bearing_laplacian(graph, bearings).B
        ref = reference_laplacian(graph, bearings)
        assert np.all(np.abs(B - ref) <= 1e-14 * (1.0 + np.abs(ref)))
        np.testing.assert_array_equal(B, B.T)
        ones = np.kron(np.ones((n, 1)), np.eye(d))          # 1 kron I_d
        assert np.abs(B @ ones).max() <= 1e-12
        assert np.abs(B @ pos.ravel()).max() <= 1e-12
        # a subgraph takes its own edges' bearings out of the larger set
        sub = SensingGraph(n=n, d=d, n_l=2, edges=graph.edges[1::2])
        B_sub = build_bearing_laplacian(sub, bearings).B
        ref_sub = reference_laplacian(sub, bearings)
        assert np.all(np.abs(B_sub - ref_sub) <= 1e-14 * (1.0 + np.abs(ref_sub)))
        for i, j in graph.edges.tolist():
            np.testing.assert_array_equal(bearings[(j, i)], -bearings[(i, j)])
            np.testing.assert_allclose(
                bearings[(i, j)], unit_bearing(pos[i - 1], pos[j - 1]), rtol=0, atol=1e-15
            )

    def test_graph_stores_canonical_edges(self):
        graph = SensingGraph(n=4, d=2, n_l=1, edges=[(3, 1), (1, 2), (2, 1), (4, 2)])
        np.testing.assert_array_equal(graph.edges, [[1, 2], [1, 3], [2, 4]])
        assert not graph.edges.flags.writeable
        assert graph.neighbors(1) == [2, 3] and graph.neighbors(2) == [1, 4]

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(1, 2), (3, 3), (1, 9)], "self-loop at agent 3"),
            ([(1, 2), (1, 9), (3, 3)], r"edge \(1,9\) references an unknown agent"),
        ],
    )
    def test_graph_names_first_bad_edge(self, edges, message):
        with pytest.raises(ValueError, match=message):
            SensingGraph(n=4, d=2, n_l=1, edges=edges)

    def test_degenerate_names_first_edge(self):
        graph = SensingGraph(n=5, d=2, n_l=1, edges=[(5, 4), (4, 2), (2, 1), (1, 4)])
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(
            DegenerateBearing,
            match=r"^edge \(2,4\): points coincide within 1e-09 or are too far "
            r"apart: \|\|p_i - p_j\|\| = 0\.000e\+00$",
        ):
            BearingSet.from_positions(graph, pos)

    def test_non_unit_names_edge(self):
        with pytest.raises(
            NonUnitInput, match=r"^bearing for edge \(3,2\) has norm 2\.000000000000$"
        ):
            BearingSet({(1, 2): [1.0, 0.0], (3, 2): [2.0, 0.0], (1, 3): [3.0, 0.0]})

    def test_conflict_names_later_entry(self):
        """Of two conflicting edges, the one whose second entry comes first."""
        with pytest.raises(ValueError, match=r"^conflicting bearings for edge \(2,1\)$"):
            BearingSet(
                {(1, 2): [1.0, 0.0], (2, 3): [1.0, 0.0], (2, 1): [1.0, 0.0],
                 (3, 2): [1.0, 0.0]}
            )

    def test_non_unit_checked_first(self):
        """A non-unit entry is named even when a conflicting pair precedes it."""
        with pytest.raises(NonUnitInput, match=r"edge \(2,3\)"):
            BearingSet({(1, 2): [1.0, 0.0], (2, 1): [1.0, 0.0], (2, 3): [2.0, 0.0]})

    def test_both_orientations_agree(self):
        s = BearingSet({(1, 2): [1.0, 0.0], (2, 1): [-1.0, 0.0], (3, 1): [0.0, 1.0]})
        np.testing.assert_array_equal(s.edges, [[1, 2], [1, 3]])
        np.testing.assert_array_equal(s[(1, 3)], [0.0, -1.0])
        assert (3, 1) in s and (2, 3) not in s

    def test_missing_names_first_edge(self, square_graph):
        partial = BearingSet({(1, 2): np.array([1.0, 0.0])})
        with pytest.raises(MissingBearing, match=r"^no desired bearing for edge \(1, 3\)$"):
            build_bearing_laplacian(square_graph, partial)
        with pytest.raises(MissingBearing, match=r"^no desired bearing for edge \(4, 2\)$"):
            partial[(4, 2)]
