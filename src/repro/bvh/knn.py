"""Batched k-nearest-neighbour queries on the linear BVH.

The hierarchical variant (HDBSCAN, built on the paper's DBSCAN* — Section
2.1) needs each point's *core distance*: the distance to its ``k``-th
nearest neighbour.  ArborX ships a kNN traversal next to its radius
search; here the batched equivalent is an **expanding-radius search**, a
formulation that reuses the wavefront radius machinery unchanged:

1. start from a density-based radius guess and run the early-terminated
   *count* kernel; queries with fewer than ``k`` neighbours double their
   radius and repeat (every round is one batched traversal of only the
   unsatisfied queries);
2. with a per-query sufficient radius known, one gather traversal
   collects (query, distance) pairs, and a segmented selection extracts
   the ``k``-th smallest per query.

The expected number of rounds is O(1) for any density regime (each round
multiplies the searched volume by ``2^d``), and transient memory stays
proportional to the final gather, which the radius bound keeps within a
constant factor of ``k`` per query in bounded-density data.

Distances are always measured to the *primitive coordinates*: for trees
whose leaves are zero-extent point boxes those coincide with the leaf
AABBs, but for general boxes the caller must pass ``points`` (one
coordinate per primitive, in the caller's primitive numbering) so the
gather ranks true point distances rather than leaf-box geometry.
"""

from __future__ import annotations

import numpy as np

from repro.bvh.traversal import DEFAULT_CHUNK_SIZE, count_within, for_each_leaf_hit
from repro.bvh.tree import BVH
from repro.device.device import Device, default_device
from repro.device.primitives import scatter_add


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


def _count_points_within(
    tree: BVH,
    queries: np.ndarray,
    pts_by_pos: np.ndarray,
    r: float,
    stop_at: int,
    device: Device,
    chunk_size: int | None,
    query_order: str,
    traversal: str,
    watchdog=None,
) -> np.ndarray:
    """Exact point-in-ball counts on trees with non-degenerate leaves.

    ``count_within`` counts *leaf-box* hits, which over-counts true point
    neighbours when leaves have extent; this variant re-tests every leaf
    hit against the primitive coordinate so the expanding-radius loop
    never declares a query satisfied on box geometry alone.
    """
    m = queries.shape[0]
    counts = np.zeros(m, dtype=np.int64)
    r2 = r * r

    def on_hits(q_ids: np.ndarray, leaf_pos: np.ndarray) -> None:
        diff = queries[q_ids] - pts_by_pos[leaf_pos]
        d2 = np.einsum("ij,ij->i", diff, diff)
        device.counters.add("distance_evals", q_ids.shape[0])
        within = d2 <= r2
        scatter_add(counts, q_ids[within], counters=device.counters)

    def finished(ids: np.ndarray) -> np.ndarray:
        return counts[ids] >= stop_at

    for_each_leaf_hit(
        tree,
        queries,
        r,
        on_hits,
        finished_fn=finished,
        device=device,
        kernel_name="knn_count_exact",
        leaf_test_is_distance=False,
        chunk_size=chunk_size,
        query_order=query_order,
        traversal=traversal,
        watchdog=watchdog,
    )
    return counts


def knn_radii(
    tree: BVH,
    queries: np.ndarray,
    k: int,
    device: Device | None = None,
    chunk_size: int | None = DEFAULT_CHUNK_SIZE,
    points: np.ndarray | None = None,
    initial_radius: np.ndarray | float | None = None,
    query_order: str = "input",
    traversal: str = "single",
    watchdog=None,
) -> np.ndarray:
    """Distance from each query to its ``k``-th nearest primitive.

    A query that is itself a primitive counts itself (distance 0) — so for
    core distances, ``k = minpts`` matches the repository's "a point is
    its own neighbour" convention.  Requires ``k <= n_primitives``.

    Parameters
    ----------
    points:
        ``(n_primitives, d)`` primitive coordinates in the caller's
        numbering.  Required when the tree's leaf boxes have extent;
        optional (and bit-neutral) for point-leaf trees.
    initial_radius:
        Warm-start search radius — a scalar or per-query ``(m,)`` array.
        Must not exceed each query's true k-th neighbour distance is NOT
        required; any positive value is correct (undersized radii just
        spend extra doubling rounds).  Defaults to the density estimate.
    watchdog:
        Optional zero-argument callable polled once per traversal
        wavefront step across every counting round and the gather phase;
        aborts by raising (deadline enforcement).

    Returns the ``(m,)`` float64 radii.
    """
    dev = default_device(device)
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    m = queries.shape[0]
    if k < 1:
        raise ValueError(f"k must be >= 1; got {k}")
    if k > tree.n_primitives:
        raise ValueError(
            f"k={k} exceeds the number of primitives ({tree.n_primitives})"
        )
    if m == 0:
        return np.zeros(0, dtype=np.float64)
    pts_by_pos = _points_by_position(tree, points)
    n_int = tree.n_internal
    degenerate_leaves = np.array_equal(tree.node_lo[n_int:], tree.node_hi[n_int:])

    # --- phase 1: expanding-radius counting -------------------------------
    if initial_radius is None:
        radius = np.full(m, _initial_radius(tree, k), dtype=np.float64)
    else:
        radius = np.broadcast_to(
            np.asarray(initial_radius, dtype=np.float64), (m,)
        ).copy()
        if not np.all(radius > 0):
            raise ValueError("initial_radius entries must be positive")
    satisfied = np.zeros(m, dtype=bool)
    with dev.kernel("knn_expand", threads=m) as launch:
        rounds = 0
        while not satisfied.all():
            rounds += 1
            pending = np.flatnonzero(~satisfied)
            # The count kernel takes one radius per batch; pending queries
            # may carry distinct radii (warm starts, uneven doubling), so
            # group them by radius value — with the default uniform start
            # this is exactly one group per round.
            pending_r = radius[pending]
            for r in np.unique(pending_r):
                rows = pending[pending_r == r]
                if degenerate_leaves:
                    counts = count_within(
                        tree,
                        queries[rows],
                        float(r),
                        stop_at=k,
                        device=dev,
                        chunk_size=chunk_size,
                        query_order=query_order,
                        traversal=traversal,
                        watchdog=watchdog,
                                    )
                else:
                    counts = _count_points_within(
                        tree,
                        queries[rows],
                        pts_by_pos,
                        float(r),
                        k,
                        dev,
                        chunk_size,
                        query_order,
                        traversal,
                        watchdog,
                    )
                done = counts >= k
                satisfied[rows[done]] = True
                radius[rows[~done]] *= 2.0
        launch.steps = rounds

    # --- phase 2: gather + segmented k-th smallest --------------------------
    # Queries may have very different final radii; gather in chunks to
    # bound the transient pair set.
    out = np.empty(m, dtype=np.float64)
    order = np.argsort(radius, kind="stable")  # group similar radii
    if chunk_size is None or chunk_size <= 0:
        chunk_size = m
    with dev.kernel("knn_gather", threads=m):
        for start in range(0, m, chunk_size):
            rows = order[start : start + chunk_size]
            r = float(radius[rows].max())
            q_pts = queries[rows]
            collected_q: list[np.ndarray] = []
            collected_d: list[np.ndarray] = []

            def on_hits(q_ids: np.ndarray, leaf_pos: np.ndarray) -> None:
                # Distance to the primitive coordinate itself — leaf-box
                # geometry (centres) ranks wrong the moment a leaf has
                # extent, and the k-th selection below needs true point
                # distances.
                diff = q_pts[q_ids] - pts_by_pos[leaf_pos]
                # q_ids is a pool-backed view only valid during the call;
                # copy because the gather holds it across steps.
                collected_q.append(q_ids.copy())
                collected_d.append(np.einsum("ij,ij->i", diff, diff))
                if not degenerate_leaves:
                    dev.counters.add("distance_evals", q_ids.shape[0])

            for_each_leaf_hit(
                tree,
                q_pts,
                r,
                on_hits,
                device=dev,
                kernel_name="knn_gather_chunk",
                leaf_test_is_distance=degenerate_leaves,
                chunk_size=None,
                query_order=query_order,
                traversal=traversal,
                watchdog=watchdog,
            )
            qs = np.concatenate(collected_q)
            ds = np.concatenate(collected_d)
            # segmented k-th smallest: lexsort by (query, distance)
            sel = np.lexsort((ds, qs))
            qs_sorted = qs[sel]
            ds_sorted = ds[sel]
            starts = np.searchsorted(qs_sorted, np.arange(rows.shape[0]))
            kth = ds_sorted[starts + (k - 1)]
            out[rows] = np.sqrt(kth)
    return out


def core_distances(
    tree: BVH,
    X: np.ndarray,
    min_samples: int,
    device: Device | None = None,
    query_order: str = "input",
    traversal: str = "single",
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
        traversal=traversal,
        watchdog=watchdog,
    )
