"""BVH-accelerated Borůvka MST of the mutual-reachability graph.

Prim's loop (:mod:`repro.hierarchy.mst`) materialises one O(n) distance
row per added vertex — n·(n−1) distance evaluations regardless of the
data's geometry.  Borůvka's algorithm replaces that with tree-pruned
work: every round, each component finds its minimum-weight outgoing edge
and the components merge, so the component count at least halves and
O(log n) rounds suffice.  This is the shape ArborX uses for its
Euclidean-MST/HDBSCAN at exascale; here each round's "find my component's
nearest outside point" queries run as *batched wavefront traversals* with
the component mask of :func:`repro.bvh.traversal.for_each_leaf_hit`:

- per-node component summaries are refreshed bottom-up over the BVH
  levels (one ``np.where`` per level), so any subtree uniform in the
  query's component is pruned in one comparison instead of being
  descended;
- the nearest *outside* neighbour is found by per-point expanding
  radii, warm-started per point (radii only ever need to grow across
  rounds, because merging components can only push the nearest outside
  point further away) and floored at the core distance (a
  mutual-reachability weight is never below it).  Each sweep is one
  traversal launch in which every point searches its own radius, capped
  at its component's best candidate weight;
- candidate edges reduce under the strict total order ``(w, min(a,b),
  max(a,b))``, which makes the per-component choice unique even among
  tied weights — the classic Borůvka cycle-safety argument — and a
  Kruskal-style union pass (:class:`repro.unionfind.ecl.EclUnionFind`)
  guards the remaining duplicate picks.

Every minimum spanning tree of a graph has the same sorted weight
multiset (the exchange property), so the single-linkage dendrogram
heights obtained from this MST are *bit-equal* to the Prim's path —
the equivalence the test suite asserts.
"""

from __future__ import annotations

import numpy as np

from repro.bvh.aabb import boxes_from_points
from repro.bvh.builder import build_bvh
from repro.bvh.knn import _initial_radius
from repro.bvh.traversal import DEFAULT_CHUNK_SIZE, ROUND_UP, for_each_leaf_hit
from repro.bvh.tree import BVH
from repro.device.device import Device, default_device
from repro.unionfind.ecl import EclUnionFind

#: Defensive cap on sweeps within one nearest-outside search.  A sweep
#: doubles a radius or tightens a component bound; 100 doublings
#: overshoot any float64 scene diameter.
_MAX_SWEEPS = 100


def _refresh_node_components(
    tree: BVH, comp: np.ndarray, node_comp: np.ndarray
) -> None:
    """Bottom-up component summary: uniform id per subtree, -1 for mixed."""
    node_comp[tree.n_internal :] = comp[tree.order]
    for level in reversed(tree.levels):
        lc = node_comp[tree.left[level]]
        rc = node_comp[tree.right[level]]
        node_comp[level] = np.where(lc == rc, lc, -1)


def _component_nearest(
    tree: BVH,
    X: np.ndarray,
    comp: np.ndarray,
    node_comp: np.ndarray,
    core: np.ndarray,
    pts_pos: np.ndarray,
    core_pos: np.ndarray,
    radius: np.ndarray,
    floor: float,
    dev: Device,
    chunk_size: int | None,
    query_order: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-point nearest *other-component* neighbour under mutual
    reachability, minimised by the strict order ``(w, min(a,b), max(a,b))``.

    ``radius`` is the per-point warm-start search radius for this round;
    it is doubled in place for unfinished points within the round (a
    zero radius grows to ``floor``).  It must be a *lower-bound-scale*
    start (candidate weight or covered radius from the previous round),
    never an overshoot: every searched radius is paid for in
    cross-component distance tests.

    Each sweep is one ``boruvka_nn`` launch in which every unfinished
    point searches ``min(own radius, component bound)``.  Two bounds
    terminate a point's search:

    - **own radius**: anything unseen lies strictly beyond the searched
      radius, so a found best within it is the point's true minimum;
    - **component bound**: once the point's component holds a candidate
      of weight ``W``, the search radius is *capped* at ``W`` — an edge
      that improves on (or ties) the component candidate satisfies
      ``dist <= w <= W``, so nothing beyond ``W`` can matter.  The cap
      keeps every tied edge reachable (the radius is rounded up for the
      engine's squared test), which preserves the exact ``(w, u, v)``
      lexicographic minimum.  Candidates feed the bound while the launch
      runs, and a point whose bound drops below its launched radius is
      stopped with no coverage credit, so it relaunches at the tighter
      bound next sweep.  This is the pruning lever that lets interior
      points of a large component stop almost immediately while only
      boundary points do real traversal work.

    Returns ``(best_w, best_b, best_u, best_v, cov)`` — ``cov`` is the
    radius each point actually covered, a certificate that no
    cross-component point lies within it (components only grow, so the
    certificate stays valid across rounds and seeds the next round's
    warm start for points that found no candidate).
    """
    n = X.shape[0]
    order_arr = tree.order
    best_w = np.full(n, np.inf)
    best_b = np.full(n, -1, dtype=np.int64)
    best_u = np.zeros(n, dtype=np.int64)
    best_v = np.zeros(n, dtype=np.int64)
    # Best candidate weight per component (indexed by component root id).
    comp_best = np.full(n, np.inf)
    # Radius each point has *covered* (seen every neighbour within); -1
    # until the first gather so even a zero-radius search (exact
    # duplicates across components) happens before the bound applies.
    cov = np.full(n, -1.0)
    pending = np.ones(n, dtype=bool)
    sweeps = 0
    while True:
        bound = comp_best[comp]
        pending &= cov < bound
        rows = np.flatnonzero(pending)
        if rows.size == 0:
            break
        eps_rows = np.minimum(radius[rows], bound[rows])
        q_pts = X[rows]
        rcomp = comp[rows]
        killed = np.zeros(rows.shape[0], dtype=bool)

        def on_hits(q_ids: np.ndarray, leaf_pos: np.ndarray) -> None:
            gq = rows[q_ids.astype(np.int64)]
            b = order_arr[leaf_pos]
            diff = q_pts[q_ids] - pts_pos[leaf_pos]
            w = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            np.maximum(w, core[gq], out=w)
            np.maximum(w, core_pos[leaf_pos], out=w)
            u = np.minimum(gq, b)
            v = np.maximum(gq, b)
            # reduce to one candidate per query in this batch, then
            # merge into the running per-point minimum (idempotent, so
            # hits re-gathered after a radius doubling are harmless)
            sel = np.lexsort((v, u, w, gq))
            gqs = gq[sel]
            first = np.empty(gqs.shape[0], dtype=bool)
            first[0] = True
            np.not_equal(gqs[1:], gqs[:-1], out=first[1:])
            f = sel[first]
            tq, tw, tu, tv, tb = gq[f], w[f], u[f], v[f], b[f]
            bw, bu, bv = best_w[tq], best_u[tq], best_v[tq]
            better = (tw < bw) | (
                (tw == bw) & ((tu < bu) | ((tu == bu) & (tv < bv)))
            )
            t = tq[better]
            best_w[t] = tw[better]
            best_b[t] = tb[better]
            best_u[t] = tu[better]
            best_v[t] = tv[better]
            np.minimum.at(comp_best, comp[tq], tw)

        def on_finished(ids: np.ndarray) -> np.ndarray:
            # Monotone in ``comp_best``, as ``finished_fn`` requires.
            kill = comp_best[rcomp[ids]] < eps_rows[ids]
            killed[ids[kill]] = True
            return kill

        for_each_leaf_hit(
            tree,
            q_pts,
            eps_rows * ROUND_UP,
            on_hits,
            finished_fn=on_finished,
            device=dev,
            kernel_name="boruvka_nn",
            chunk_size=chunk_size,
            query_order=query_order,
            component_of=rcomp,
            node_components=node_comp,
        )
        hit = rows[~killed]
        eps_hit = eps_rows[~killed]
        cov[hit] = np.maximum(cov[hit], eps_hit)
        # Double only points that searched to the end of this sweep, are
        # still unfinished, and whose own radius (not the component
        # bound) limited the search; a capped point re-checks the
        # shrunken bound next sweep and stops without another gather.
        still = cov[hit] < comp_best[comp[hit]]
        grow = hit[still & (radius[hit] <= eps_hit)]
        radius[grow] = np.where(radius[grow] > 0, 2.0 * radius[grow], floor)
        sweeps += 1
        if sweeps > _MAX_SWEEPS:  # pragma: no cover - defensive
            raise RuntimeError("component-NN radius expansion failed to converge")
    return best_w, best_b, best_u, best_v, cov


def mutual_reachability_mst_boruvka(
    X: np.ndarray,
    core_dist: np.ndarray,
    tree: BVH | None = None,
    device: Device | None = None,
    query_order: str = "input",
    chunk_size: int | None = DEFAULT_CHUNK_SIZE,
) -> np.ndarray:
    """Borůvka MST of the mutual reachability graph over a BVH.

    Drop-in replacement for
    :func:`repro.hierarchy.mst.mutual_reachability_mst`: returns the same
    ``(n - 1, 3)`` float64 rows ``(a, b, weight)`` sorted ascending by
    weight, with the identical sorted weight multiset (any two MSTs of a
    graph agree on it), at tree-pruned cost instead of n·(n−1) distance
    rows.  The edge set is the one MST the strict order ``(w, min(a,b),
    max(a,b))`` defines, ties included — Kruskal under that order
    returns the same edges.

    Parameters
    ----------
    tree:
        Optional prebuilt point-leaf BVH over ``X`` (e.g. from
        :class:`repro.core.index.DBSCANIndex`); built on the fly when
        omitted.
    query_order / chunk_size:
        Scheduling knobs forwarded to the wavefront engine (which runs
        component-masked sweeps on its single engine); the MST is
        identical for every setting.  The ``boruvka_nn`` work counters
        are not: the component bound that stops a query is fed by other
        queries' hits, so launches, ``distance_evals`` and ``box_tests``
        depend on the schedule (see ``docs/gpu-model.md``).
    """
    dev = default_device(device)
    X = np.ascontiguousarray(X, dtype=np.float64)
    core_dist = np.asarray(core_dist, dtype=np.float64)
    n = X.shape[0]
    if core_dist.shape != (n,):
        raise ValueError(f"core_dist must be ({n},); got {core_dist.shape}")
    if n <= 1:
        return np.zeros((0, 3), dtype=np.float64)
    if tree is None:
        lo, hi = boxes_from_points(X)
        tree = build_bvh(lo, hi, device=dev)
    if tree.n_primitives != n:
        raise ValueError(
            f"tree has {tree.n_primitives} primitives; expected {n} points"
        )

    order_arr = tree.order
    pts_pos = X[order_arr]
    core_pos = core_dist[order_arr]
    node_comp = np.empty(tree.node_lo.shape[0], dtype=np.int64)
    uf = EclUnionFind(n, device=dev)
    edges = np.empty((n - 1, 3), dtype=np.float64)
    n_edges = 0
    ids = np.arange(n, dtype=np.int64)
    # Warm-start radii: a mutual-reachability weight is never below the
    # point's own core distance, and the ``min_samples``-th neighbour sits
    # exactly at it, so ``core`` is both a lower bound on the answer and a
    # radius already known to contain neighbours.  Zero cores (duplicate
    # points) fall back to the scene-density estimate.
    #
    # Across rounds the warm start is recomputed per point rather than
    # carried as a monotonically doubled radius: a point that found a
    # candidate restarts at that candidate's weight (a lower bound on its
    # next answer — merging only pushes the nearest outside point away),
    # and a point that found nothing restarts at the radius it *covered*
    # (re-searching a certified-empty ball costs box tests but zero
    # distance tests, because cross-component sets only shrink).  Carrying
    # grown radii instead lets a far-flung component's interior jump
    # straight to scene scale in the round after a merge, re-testing every
    # cross pair before the round's much smaller bound is discovered.
    r0 = _initial_radius(tree, 2)
    radius = np.where(core_dist > 0, core_dist, r0)

    with dev.kernel("boruvka_mst", threads=n) as launch:
        rounds = 0
        while n_edges < n - 1:
            rounds += 1
            dev.counters.add("boruvka_rounds", 1)
            comp = uf.find(ids)
            _refresh_node_components(tree, comp, node_comp)
            best_w, best_b, best_u, best_v, cov = _component_nearest(
                tree,
                X,
                comp,
                node_comp,
                core_dist,
                pts_pos,
                core_pos,
                radius,
                r0,
                dev,
                chunk_size,
                query_order,
            )
            radius = np.where(best_b >= 0, best_w, cov)
            # Points stopped by the component bound may hold no candidate
            # of their own; every component still holds at least one (its
            # bound is finite only once a member found an edge).
            idx = np.flatnonzero(best_b >= 0)
            if idx.size == 0:  # pragma: no cover - defensive
                raise RuntimeError("no component found an outside neighbour")
            # One candidate per component: minimum under (w, u, v).
            csel = idx[np.lexsort((best_v[idx], best_u[idx], best_w[idx], comp[idx]))]
            comp_sorted = comp[csel]
            first = np.empty(comp_sorted.shape[0], dtype=bool)
            first[0] = True
            np.not_equal(comp_sorted[1:], comp_sorted[:-1], out=first[1:])
            cand = csel[first]
            # Union in ascending (w, u, v); the strict total order plus the
            # root check makes tied weights cycle-safe.
            gsel = np.lexsort((best_v[cand], best_u[cand], best_w[cand]))
            added = 0
            for i in cand[gsel]:
                a = int(i)
                b = int(best_b[i])
                ends = uf.find(np.array([a, b], dtype=np.int64))
                if ends[0] == ends[1]:
                    continue
                edges[n_edges] = (a, b, best_w[i])
                n_edges += 1
                added += 1
                uf.union(np.array([a]), np.array([b]))
            if added == 0:  # pragma: no cover - defensive
                raise RuntimeError("Borůvka round added no edges")
        launch.steps = rounds

    order = np.argsort(edges[:, 2], kind="stable")
    return edges[order]
