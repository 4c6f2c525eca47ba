"""Query-side BVH for the dual-tree (query-aggregated) traversal.

The single-query wavefront carries one frontier row per ``(query, node)``
pair, so Morton-adjacent queries that visit nearly identical subtrees each
pay the same box tests again.  The dual engine instead aggregates the
chunk's Morton-sorted queries into a **query-side BVH** — the full dual
tree walk JZ-Tree uses, rather than the fixed two-level packing of the
early aggregated-traversal prototypes:

- the hierarchy is built by recursive **median bisection** of the
  Morton-sorted chunk (the same spatial-median machinery the points tree
  gets from its Morton codes), so every node covers a *contiguous* range
  of sorted chunk positions;
- leaf sizes are **density-adaptive**: splitting stops at
  ``group_size`` members, or earlier when a node's box is already *dense*
  (its longest edge at or below :data:`DENSE_LEAF_EXT_FRACTION` of the
  search radius) — a tight cluster becomes one large leaf whose single
  box test covers many queries, while sparse regions split down to small
  groups that stay prunable.  :data:`DENSE_LEAF_CAP_FACTOR` bounds how
  large a dense leaf may grow, keeping the per-member work at the leaf
  fringe linear.  Every member shares that one radius: per-query radii
  never reach the dual engine.

Node ids live in one packed id space mirroring the internal-before-leaf
numbering of :class:`repro.bvh.tree.BVH`: internal nodes are
``0 .. n_inner-1`` (in creation = breadth-first order, so each level's
internal ids are contiguous), leaves are ``n_inner .. n_nodes-1``.  A
query node's box is the tight AABB of its member *points* (not
eps-inflated): testing ``mindist(node_box, tree_box) <= eps`` is the
exact Minkowski form of "the eps-inflated query AABB intersects the tree
box" under the L2 metric, and for a single-member leaf it degenerates to
exactly the per-query sphere/box test the single engine runs.

All output arrays are taken from the caller's scratch pool (duck-typed —
any object with the :class:`repro.bvh.traversal._FrontierPool` ``take``
methods), so the hierarchy's footprint is charged to the memory model
under the pool's tag and reused across chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Default target queries per leaf.  32 mirrors a warp: the leaf is the
#: unit whose members share one box test, exactly as a warp's threads
#: share a cooperatively-tested node.
DEFAULT_GROUP_SIZE = 32

#: A *dense* leaf (box edge already tiny next to eps) may absorb up to
#: this many times ``group_size`` members before it is forced to split —
#: the density-adaptive upper bound on leaf size.
DENSE_LEAF_CAP_FACTOR = 8

#: A node counts as dense once its longest box edge is at or below this
#: fraction of the search radius: its members are nearly co-located at
#: the scale of the query, so one shared box test resolves almost every
#: member identically and further splitting only adds frontier entries.
DENSE_LEAF_EXT_FRACTION = 0.5


@dataclass
class QueryBVH:
    """Packed query-side BVH over one Morton-sorted chunk.

    Node ids: internal nodes are ``0 .. n_inner-1`` (breadth-first),
    leaves are ``n_inner .. n_nodes-1``.  The root is always node ``0``.

    Attributes
    ----------
    lo, hi:
        ``(n_nodes, d)`` tight member-point AABB per query node.
    mem_lo, mem_hi:
        ``(n_nodes,)`` member range ``[lo, hi)`` in *chunk positions* —
        contiguous by construction at every node (median bisection never
        reorders the chunk).
    child0, child1:
        ``(n_inner,)`` child node ids per internal node (binary tree).
    ext:
        ``(n_nodes,)`` longest box edge — the refinement heuristic
        compares it against the tree node's extent to decide which side
        of a frontier pair is looser.
    mask_min:
        ``(n_nodes,)`` minimum traversal-mask position over members (or
        ``None``): a subtree with ``range_hi <= mask_min`` is hidden from
        *every* member, so the whole query node skips it in one test.
    top:
        Seed node ids — always ``[0]`` (the root).
    """

    n_inner: int
    n_leaves: int
    lo: np.ndarray
    hi: np.ndarray
    mem_lo: np.ndarray
    mem_hi: np.ndarray
    child0: np.ndarray
    child1: np.ndarray
    ext: np.ndarray
    mask_min: np.ndarray | None
    top: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.n_inner + self.n_leaves


def build_query_bvh(
    points: np.ndarray,
    mask: np.ndarray | None,
    group_size: int,
    eps: float,
    pool,
) -> QueryBVH:
    """Build the query BVH over one chunk's Morton-sorted query points.

    ``points`` are the chunk's queries in schedule (Morton) order;
    ``mask`` the matching traversal-mask positions (or ``None``);
    ``eps``, the search radius every member shares, feeds the leaf rule
    only (never results): a node is a leaf at ``group_size`` members or
    when it is dense (see :data:`DENSE_LEAF_EXT_FRACTION`).  The build is a pure function of its inputs — same chunk, same
    hierarchy.  Output arrays are views into ``pool`` slots (grown once,
    reused per chunk).
    """
    cn, _dim = points.shape
    group_size = max(1, int(group_size))
    dense_cap = group_size * DENSE_LEAF_CAP_FACTOR
    # group_size=1 means "degenerate to per-query traversal": the dense
    # rule is disabled so every leaf holds exactly one query.
    dense_ext = DENSE_LEAF_EXT_FRACTION * float(eps) if group_size > 1 else -1.0

    # Level-by-level construction over a *tiling* of [0, cn): every
    # segment is owned by a node (finalised leaves stay in the tiling so
    # one reduceat per level covers all active ranges).  Nodes are
    # recorded in creation order — level by level, within a level in
    # member order — so sibling pairs get adjacent creation ids.
    starts = np.zeros(1, dtype=np.int64)
    is_new = np.ones(1, dtype=bool)

    lo_l: list[np.ndarray] = []
    hi_l: list[np.ndarray] = []
    ext_l: list[np.ndarray] = []
    mlo_l: list[np.ndarray] = []
    mhi_l: list[np.ndarray] = []
    msk_l: list[np.ndarray] = []
    leaf_l: list[np.ndarray] = []
    fchild_l: list[np.ndarray] = []
    n_total = 0

    while True:
        ends = np.append(starts[1:], cn)
        seg_lo = np.minimum.reduceat(points, starts, axis=0)
        seg_hi = np.maximum.reduceat(points, starts, axis=0)
        seg_mask = (
            np.minimum.reduceat(mask, starts) if mask is not None else None
        )
        new = np.flatnonzero(is_new)
        n_lo = seg_lo[new]
        n_hi = seg_hi[new]
        n_ext = (n_hi - n_lo).max(axis=1)
        n_cnt = ends[new] - starts[new]
        leaf = (n_cnt <= group_size) | ((n_ext <= dense_ext) & (n_cnt <= dense_cap))

        lo_l.append(n_lo)
        hi_l.append(n_hi)
        ext_l.append(n_ext)
        mlo_l.append(starts[new].copy())
        mhi_l.append(ends[new].copy())
        if seg_mask is not None:
            msk_l.append(seg_mask[new])
        leaf_l.append(leaf)
        n_total += new.size

        split = ~leaf
        n_split = int(np.count_nonzero(split))
        fc = np.full(new.size, -1, dtype=np.int64)
        if n_split:
            # Children are the *next* level's new nodes, in member order:
            # a splitting node's two halves are adjacent there, so the
            # first child's creation id determines both.
            rank = np.cumsum(split) - 1
            fc[split] = n_total + 2 * rank[split]
        fchild_l.append(fc)
        if n_split == 0:
            break

        # Rebuild the tiling: splitting segments bisect at the member
        # median; every other segment (finalised or older leaf) stays.
        split_seg = np.zeros(starts.size, dtype=bool)
        split_seg[new[split]] = True
        reps = np.where(split_seg, 2, 1)
        pos_first = np.cumsum(reps) - reps
        sp = np.flatnonzero(split_seg)
        mid = starts[sp] + (ends[sp] - starts[sp]) // 2
        next_starts = np.repeat(starts, reps)
        next_starts[pos_first[sp] + 1] = mid
        next_new = np.zeros(next_starts.size, dtype=bool)
        next_new[pos_first[sp]] = True
        next_new[pos_first[sp] + 1] = True
        starts, is_new = next_starts, next_new

    # -- renumber creation order into the packed internal-before-leaf
    #    id space and materialise the pool-backed arrays ----------------
    c_leaf = np.concatenate(leaf_l)
    c_fc = np.concatenate(fchild_l)
    inner = ~c_leaf
    n_inner = int(np.count_nonzero(inner))
    n_leaves = n_total - n_inner
    perm = np.empty(n_total, dtype=np.int64)
    perm[inner] = np.cumsum(inner)[inner] - 1
    perm[c_leaf] = n_inner + np.cumsum(c_leaf)[c_leaf] - 1

    lo = pool.take2d("qg_lo", n_total)
    hi = pool.take2d("qg_hi", n_total)
    mem_lo = pool.take("qg_mem_lo", n_total)
    mem_hi = pool.take("qg_mem_hi", n_total)
    ext = pool.take("qg_ext", n_total, dtype=np.float64)
    lo[perm] = np.concatenate(lo_l, axis=0)
    hi[perm] = np.concatenate(hi_l, axis=0)
    mem_lo[perm] = np.concatenate(mlo_l)
    mem_hi[perm] = np.concatenate(mhi_l)
    ext[perm] = np.concatenate(ext_l)

    mask_min = None
    if mask is not None:
        mask_min = pool.take("qg_mask", n_total)
        mask_min[perm] = np.concatenate(msk_l)

    child0 = pool.take("qg_child0", n_inner, dtype=np.int32)
    child1 = pool.take("qg_child1", n_inner, dtype=np.int32)
    if n_inner:
        fc_inner = c_fc[inner]
        child0[:] = perm[fc_inner]
        child1[:] = perm[fc_inner + 1]

    top = np.zeros(1, dtype=np.int32)
    return QueryBVH(
        n_inner=n_inner,
        n_leaves=n_leaves,
        lo=lo,
        hi=hi,
        mem_lo=mem_lo,
        mem_hi=mem_hi,
        child0=child0,
        child1=child1,
        ext=ext,
        mask_min=mask_min,
        top=top,
    )
