"""Batched k-nearest-neighbour queries on the linear BVH.

The hierarchical variant (HDBSCAN, built on the paper's DBSCAN* — Section
2.1) needs each point's *core distance*: the distance to its ``k``-th
nearest neighbour.  ArborX ships a nearest search whose per-query bound
only shrinks; the batched equivalent here is a **certified per-query
bound plus one radius gather**:

1. **window bound** — each query takes the ``2k+1`` primitives around its
   place in the tree's Morton-sorted leaf order (placed by the Morton
   code of its position, quantised with the root box, so a primitive
   lands among its own duplicates).  Any ``k`` primitives bound the
   ``k``-th-nearest distance from above, so the window's ``k``-th
   smallest distance is a certified search radius — and Z-curve
   neighbours are mostly spatial neighbours, so it is tight;
2. **gather** — a wavefront traversal at those per-query radii collects
   (query, distance) pairs, and a segmented selection extracts the
   ``k``-th smallest per query, one block of ``chunk_size`` queries at a
   time.

Each query's radius is its own, so each query's gather hits are
independent of chunking and query order.  Per-query radii always run
the single traversal engine (see :func:`for_each_leaf_hit`).

Distances are always measured to the *primitive coordinates*: for trees
whose leaves are zero-extent point boxes those coincide with the leaf
AABBs, but for general boxes the caller must pass ``points`` (one
coordinate per primitive, in the caller's primitive numbering) so the
gather ranks true point distances rather than leaf-box geometry.
"""

from __future__ import annotations

import numpy as np

from repro.bvh.morton import morton_codes
from repro.bvh.traversal import DEFAULT_CHUNK_SIZE, ROUND_UP, for_each_leaf_hit
from repro.bvh.tree import BVH
from repro.device.device import Device, default_device


def _initial_radius(tree: BVH, k: int) -> float:
    """Density-based starting radius: the scene volume spread over the
    primitives suggests the k-point ball scale.

    Degenerate (zero-extent) dimensions carry no volume — collinear or
    axis-aligned data lives in a lower-dimensional subspace, so the
    density estimate uses only the extents that are actually positive.
    """
    extent = tree.node_hi[tree.root] - tree.node_lo[tree.root]
    positive = extent[extent > 0]
    if positive.size == 0:
        return 1e-12  # all primitives coincide; any radius finds them
    volume = float(np.prod(positive))
    n = tree.n_primitives
    return max((volume * k / max(n, 1)) ** (1.0 / positive.size), 1e-12)


def _points_by_position(tree: BVH, points: np.ndarray | None) -> np.ndarray:
    """Primitive coordinates indexed by *sorted leaf position*.

    Without ``points`` the tree must have zero-extent (point) leaves —
    the only case where leaf geometry determines the primitive
    coordinate.  With ``points`` (per-primitive coordinates in the
    caller's numbering) any leaf boxes are accepted.
    """
    n_int = tree.n_internal
    if points is None:
        leaf_lo = tree.node_lo[n_int:]
        leaf_hi = tree.node_hi[n_int:]
        if leaf_lo.shape[0] and not np.array_equal(leaf_lo, leaf_hi):
            raise ValueError(
                "knn_radii on a tree with non-degenerate leaf boxes requires "
                "points= (per-primitive coordinates); leaf AABBs do not "
                "determine primitive positions"
            )
        return leaf_lo
    points = np.ascontiguousarray(points, dtype=np.float64)
    expected = (tree.n_primitives, tree.dim)
    if points.shape != expected:
        raise ValueError(f"points must have shape {expected}; got {points.shape}")
    return points[tree.order]


#: Window distance evaluations computed per vectorised block; bounds the
#: ``(block, 2k+1, d)`` scratch of the window bound for any ``m`` and ``k``.
_WINDOW_BLOCK_PAIRS = 1 << 18


def _window_radii(
    tree: BVH, queries: np.ndarray, pts_by_pos: np.ndarray, positions: np.ndarray, k: int
) -> np.ndarray:
    """Certified per-query search radius: the ``k``-th smallest distance
    to the ``2k+1`` primitives around each query's sorted position (the
    whole set when it is smaller), rounded up for the engine's squared
    test."""
    n = tree.n_primitives
    width = min(2 * k + 1, n)
    lo = np.clip(positions - k, 0, n - width)
    kth = np.empty(queries.shape[0], dtype=np.float64)
    block = max(1, _WINDOW_BLOCK_PAIRS // width)
    for s in range(0, queries.shape[0], block):
        window = lo[s : s + block, None] + np.arange(width)
        diff = queries[s : s + block, None, :] - pts_by_pos[window]
        d2 = np.einsum("mwd,mwd->mw", diff, diff)
        kth[s : s + block] = np.partition(d2, k - 1, axis=1)[:, k - 1]
    return np.sqrt(kth) * ROUND_UP


def knn_radii(
    tree: BVH,
    queries: np.ndarray,
    k: int,
    device: Device | None = None,
    chunk_size: int | None = DEFAULT_CHUNK_SIZE,
    points: np.ndarray | None = None,
    query_order: str = "input",
    watchdog=None,
) -> np.ndarray:
    """Distance from each query to its ``k``-th nearest primitive.

    A query that is itself a primitive counts itself (distance 0) — so for
    core distances, ``k = minpts`` matches the repository's "a point is
    its own neighbour" convention.  Requires ``k <= n_primitives``.

    Parameters
    ----------
    chunk_size:
        Queries gathered per traversal launch (``None`` or ``<= 0``: all
        at once); bounds the (query, distance) pairs held for the
        selection.  Each query searches at its own radius, so the hits
        do not depend on it.
    points:
        ``(n_primitives, d)`` primitive coordinates in the caller's
        numbering.  Required when the tree's leaf boxes have extent;
        optional (and bit-neutral) for point-leaf trees.
    watchdog:
        Optional zero-argument callable polled once per gather wavefront
        step; aborts by raising (deadline enforcement).

    Returns the ``(m,)`` float64 radii.
    """
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != tree.dim:
        raise ValueError(
            f"queries must be (m, {tree.dim}); got shape {queries.shape}"
        )
    if k < 1:
        raise ValueError(f"k must be >= 1; got {k}")
    if k > tree.n_primitives:
        raise ValueError(
            f"k={k} exceeds the number of primitives ({tree.n_primitives})"
        )
    m = queries.shape[0]
    if m == 0:
        return np.zeros(0, dtype=np.float64)
    dev = default_device(device)
    pts_by_pos = _points_by_position(tree, points)
    degenerate_leaves = np.array_equal(
        tree.node_lo[tree.n_internal :], tree.node_hi[tree.n_internal :]
    )
    with dev.kernel("knn_window", threads=m):
        # Place each query in the sorted leaf order by its Morton code,
        # quantised with the root box (queries outside it clamp to its
        # faces).  Any placement gives a certified bound; this one puts
        # the window among the query's Z-curve neighbours.
        codes = morton_codes(
            queries, tree.node_lo[tree.root], tree.node_hi[tree.root]
        )
        positions = np.searchsorted(tree.codes, codes)
        radius = _window_radii(tree, queries, pts_by_pos, positions, k)
        dev.counters.add("distance_evals", m * min(2 * k + 1, tree.n_primitives))

    # Gather ``chunk_size`` queries per launch and select their k-th
    # distances before the next launch, so the held pair set is bounded
    # by the block, not by m.  The pairs are charged to the memory model
    # as transient scratch under the "knn_pairs" tag.
    if chunk_size is None or chunk_size <= 0:
        chunk_size = m
    out = np.empty(m, dtype=np.float64)
    for start in range(0, m, chunk_size):
        rows = slice(start, min(start + chunk_size, m))
        q_pts = queries[rows]
        collected_q: list[np.ndarray] = []
        collected_d: list[np.ndarray] = []
        held = [0]

        def on_hits(q_ids: np.ndarray, leaf_pos: np.ndarray) -> None:
            # Distance to the primitive coordinate itself — leaf-box
            # geometry ranks wrong the moment a leaf has extent.
            diff = q_pts[q_ids] - pts_by_pos[leaf_pos]
            # q_ids is a pool-backed view only valid during the call;
            # copy because the gather holds it across steps.
            collected_q.append(q_ids.astype(np.int64))
            collected_d.append(np.einsum("ij,ij->i", diff, diff))
            held[0] += dev.memory.allocate(
                q_ids.shape[0] * 16, "knn_pairs", transient=True
            )
            if not degenerate_leaves:
                dev.counters.add("distance_evals", q_ids.shape[0])

        try:
            for_each_leaf_hit(
                tree,
                q_pts,
                radius[rows],
                on_hits,
                device=dev,
                kernel_name="knn_gather",
                leaf_test_is_distance=degenerate_leaves,
                chunk_size=None,
                query_order=query_order,
                watchdog=watchdog,
            )
            qs = np.concatenate(collected_q)
            ds = np.concatenate(collected_d)
            # segmented k-th smallest: lexsort by (query, distance)
            sel = np.lexsort((ds, qs))
            starts = np.searchsorted(qs[sel], np.arange(q_pts.shape[0]))
            out[rows] = np.sqrt(ds[sel][starts + (k - 1)])
        finally:
            dev.memory.free(held[0], "knn_pairs")
    return out


def core_distances(
    tree: BVH,
    X: np.ndarray,
    min_samples: int,
    device: Device | None = None,
    query_order: str = "input",
    watchdog=None,
) -> np.ndarray:
    """HDBSCAN core distances: distance to the ``min_samples``-th nearest
    point, the point itself included (Campello et al.'s ``d_core`` with the
    self-counting convention used throughout this repository)."""
    return knn_radii(
        tree,
        X,
        min_samples,
        device=device,
        points=X,
        query_order=query_order,
        watchdog=watchdog,
    )
