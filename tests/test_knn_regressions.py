"""Regression tests for the kNN search's known failure modes.

1. **Gather leaf-centre distances** — the gather used to rank candidates
   by distance to the *leaf box geometry* instead of the primitive
   coordinate.  For point-leaf trees the two coincide, which is why the
   original suite never caught it; any tree whose leaf boxes have extent
   (centres displaced from the primitives) got wrong k-th radii.
2. **Window bound placement** — each query's search radius is the k-th
   distance inside a window of the Morton-sorted leaf order.  Queries
   outside the scene box, ``k == n`` (the window is the whole set) and
   coincident points (a zero radius) are the placements that can go
   wrong; on degenerate (collinear, planar) data the bound must stay
   tight, which the gather's ``distance_evals`` measure.
3. **Degenerate-dimension density estimate** — ``_initial_radius``
   (Borůvka's zero-core search floor) multiplied all scene extents, so
   collinear / axis-aligned data (a zero extent) produced a near-zero
   radius.

Each test here fails on the corresponding faulty code.
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.bvh.aabb import boxes_from_points
from repro.bvh.builder import build_bvh
from repro.bvh.knn import _initial_radius, core_distances, knn_radii
from repro.device.device import Device


@pytest.fixture
def rng():
    return np.random.default_rng(3)


def _point_tree(pts):
    lo, hi = boxes_from_points(pts)
    return build_bvh(lo, hi)


class TestBoxLeafGather:
    """Bug 1: distances must be measured to the primitive coordinates."""

    def _box_tree(self, pts, rng):
        # leaf boxes anchored at the primitive but extended away from it,
        # so every box centre is displaced from the point it contains —
        # exactly the geometry that exposes centre-distance ranking
        offsets = rng.uniform(0.3, 0.9, pts.shape)
        return build_bvh(pts, pts + offsets)

    def test_kth_radii_match_kdtree(self, rng):
        pts = rng.uniform(0, 10, (200, 2))
        tree = self._box_tree(pts, rng)
        for k in (1, 4, 9):
            got = knn_radii(tree, pts, k, points=pts)
            want = cKDTree(pts).query(pts, k=k)[0]
            want = want if k == 1 else want[:, -1]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_external_queries_on_box_leaves(self, rng):
        pts = rng.uniform(0, 5, (150, 3))
        queries = rng.uniform(0, 5, (40, 3))
        tree = self._box_tree(pts, rng)
        got = knn_radii(tree, queries, 5, points=pts)
        want = cKDTree(pts).query(queries, k=5)[0][:, -1]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_points_required_for_box_leaves(self, rng):
        pts = rng.uniform(0, 5, (50, 2))
        tree = self._box_tree(pts, rng)
        with pytest.raises(ValueError, match="non-degenerate leaf boxes"):
            knn_radii(tree, pts, 3)

    def test_points_shape_checked(self, rng):
        pts = rng.uniform(0, 5, (50, 2))
        tree = _point_tree(pts)
        with pytest.raises(ValueError, match="shape"):
            knn_radii(tree, pts, 3, points=pts[:10])

    def test_points_bit_neutral_on_point_leaves(self, rng):
        pts = rng.uniform(0, 5, (120, 2))
        tree = _point_tree(pts)
        np.testing.assert_array_equal(
            knn_radii(tree, pts, 6), knn_radii(tree, pts, 6, points=pts)
        )

    def test_exact_counting_never_undershoots(self, rng):
        # the window bound and the gather both measure *points*, not leaf
        # boxes: a box-based bound would undershoot the k-th neighbour
        pts = rng.uniform(0, 4, (80, 2))
        tree = self._box_tree(pts, rng)
        got = core_distances(tree, pts, 10)  # points= is implied
        want = cKDTree(pts).query(pts, k=10)[0][:, -1]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestWindowPlacement:
    """Bug 2: the window bound must hold wherever a query lands."""

    def test_external_queries_outside_scene_box(self, rng):
        pts = rng.uniform(0, 5, (200, 2))
        # far outside on every side: their Morton codes clamp to the
        # root box's faces, and the window there must still bound
        queries = np.concatenate(
            [rng.uniform(-20, -6, (20, 2)), rng.uniform(11, 30, (20, 2)),
             np.array([[2.5, 100.0], [-50.0, 2.5]])]
        )
        tree = _point_tree(pts)
        got = knn_radii(tree, queries, 7)
        want = cKDTree(pts).query(queries, k=7)[0][:, -1]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 9, 40])
    def test_k_equals_n_primitives(self, rng, n):
        pts = rng.uniform(0, 3, (n, 3))
        queries = np.concatenate([pts, rng.uniform(-1, 4, (5, 3))])
        tree = _point_tree(pts)
        got = knn_radii(tree, queries, n)
        want = cKDTree(pts).query(queries, k=n)[0]
        want = want if n == 1 else want[:, -1]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            core_distances(tree, pts, n), want[:n], rtol=1e-12, atol=1e-12
        )

    def test_large_external_batch_bounds_held_pairs(self, rng):
        # external queries clamp to the root box's faces, where the window
        # bound is loose: the gather's held (query, distance) pairs must
        # stay bounded by one chunk of queries, not by the whole batch
        pts = rng.uniform(0, 1, (400, 2))
        queries = rng.uniform(-3, 4, (4000, 2))
        tree = _point_tree(pts)
        peaks = {}
        for chunk in (256, None):
            dev = Device()
            got = knn_radii(tree, queries, 5, device=dev, chunk_size=chunk)
            assert dev.memory.live_by_tag["knn_pairs"] == 0
            peaks[chunk] = dev.memory.peak_by_tag["knn_pairs"]
        want = cKDTree(pts).query(queries, k=5)[0][:, -1]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert peaks[256] <= 256 * pts.shape[0] * 16
        assert peaks[256] * 8 <= peaks[None]


class TestDegenerateDensityEstimate:
    """Bug 3: zero-extent dimensions must not zero the radius guess."""

    def test_collinear_estimate_uses_line_density(self, rng):
        n = 128
        x = np.sort(rng.uniform(0, 10, n))
        pts = np.column_stack([x, np.full(n, 3.0)])  # zero y-extent
        tree = _point_tree(pts)
        spread = x[-1] - x[0]
        r0 = _initial_radius(tree, 4)
        # 1-d density scale of the occupied subspace, not ~0 from the
        # collapsed dimension
        assert r0 == pytest.approx(spread * 4 / n)

    def test_collinear_rounds_bounded(self, rng):
        n, k = 256, 4
        x = np.sort(rng.uniform(0, 10, n))
        pts = np.column_stack([np.full(n, 1.0), x])
        tree = _point_tree(pts)
        dev = Device()
        got = knn_radii(tree, pts, k, device=dev)
        want = cKDTree(pts).query(pts, k=k)[0][:, -1]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        # the window bound on a line stays within a small factor of k
        # points per query; a scene-scale radius gathers O(n) each
        assert dev.profile()["knn_gather"]["counters"]["distance_evals"] <= 8 * n * k

    def test_axis_aligned_3d(self, rng):
        # a planar point set embedded in 3-d: one degenerate extent
        n = 150
        pts = np.column_stack(
            [rng.uniform(0, 5, n), rng.uniform(0, 5, n), np.zeros(n)]
        )
        tree = _point_tree(pts)
        dev = Device()
        got = knn_radii(tree, pts, 6, device=dev)
        want = cKDTree(pts).query(pts, k=6)[0][:, -1]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert dev.profile()["knn_gather"]["counters"]["distance_evals"] <= 8 * n * 6

    def test_all_coincident(self):
        pts = np.ones((16, 2))
        tree = _point_tree(pts)
        assert _initial_radius(tree, 4) == 1e-12
        np.testing.assert_array_equal(knn_radii(tree, pts, 16), 0.0)
        # zero window radii still gather every coincident point; an
        # external query measures its true distance to them
        queries = np.array([[1.0, 1.0], [4.0, 5.0], [-2.0, 1.0]])
        for k in (1, 5, 16):
            want = cKDTree(pts).query(queries, k=k)[0]
            want = want if k == 1 else want[:, -1]
            np.testing.assert_allclose(
                knn_radii(tree, queries, k), want, rtol=1e-12, atol=1e-12
            )
