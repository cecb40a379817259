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

    def test_random_recovery(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            graph, bearings, pos = random_formation(rng, complete=True)
            L = build_bearing_laplacian(graph, bearings)
            p_f = localize_followers(L, pos[: graph.n_l])
            assert np.linalg.norm(p_f - pos[graph.n_l :]) <= 1e-8
