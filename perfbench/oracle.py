"""Output oracle: reference clusterings built apart from the code under test.

DBSCAN references use only ``scipy.spatial.cKDTree`` (the eps-neighbour
pairs, ``dist <= eps``) and ``scipy.sparse.csgraph`` (components of the
core-core graph).  A result passes when it has the reference's core mask,
noise mask and core partition (equal up to renumbering), and every border
point carries the label of some core neighbour.

HDBSCAN references take core distances from ``cKDTree.query`` (the point
itself counts, as in the library), feed them through the O(n^2) Prim MST
``repro.hierarchy.mutual_reachability_mst``, and condense and select with
the library's public hierarchy functions.  The kNN gather and the Borůvka
MST, the layers the benchmark times, are therefore replaced; the
condense/selection step is shared with the library.  A result passes when
its labels equal the reference's up to renumbering.  Where tied
mutual-reachability weights let the MST break ties another way, a result
passes when its condensed tree is one that some tie-break of the
reference MST gives: every cluster born at level lambda is a union of
the components of the reference MST edges above lambda and lies inside
one component of the edges at or above it, and every point leaves the
clusters at the reference's level.  Its labels must then be the ones
selection gives on its own condensed tree.

:func:`reference` needs scipy (and repro for HDBSCAN) and runs once per
point set, outside every timed region.  :func:`check` needs numpy, and
repro's cluster selection for the tie case.
"""

from __future__ import annotations

import numpy as np


def _dbscan_reference(X: np.ndarray, eps: float, minpts_list, prefix: str) -> dict:
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    n = X.shape[0]
    pairs = cKDTree(X).query_pairs(eps, output_type="ndarray")
    a, b = pairs[:, 0], pairs[:, 1]
    counts = 1 + np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
    out = {}
    for i, minpts in enumerate(minpts_list):
        core = counts >= minpts
        both = core[a] & core[b]
        graph = coo_matrix(
            (np.ones(int(both.sum()), dtype=np.int8), (a[both], b[both])), shape=(n, n)
        )
        _, comp = connected_components(graph, directed=False)
        comp = np.where(core, comp, -1)
        # (border point, component of a core neighbour) for every legal choice
        border_of = np.concatenate([b[core[a] & ~core[b]], a[core[b] & ~core[a]]])
        via_core = np.concatenate([a[core[a] & ~core[b]], b[core[b] & ~core[a]]])
        legal = np.unique(border_of.astype(np.int64) * n + comp[via_core])
        noise = ~core
        noise[border_of] = False
        key = f"{prefix}{i}"
        out[key + "_core"] = core
        out[key + "_comp"] = comp
        out[key + "_noise"] = noise
        out[key + "_legal"] = legal
    return out


def _fallout(tree, n: int) -> np.ndarray:
    """Each point's level (lambda) of leaving the clusters of a condensed tree."""
    lam = np.full(n, np.nan)
    points = tree.child < n
    lam[tree.child[points]] = tree.lambda_val[points]
    return lam


def _assign(tree, chosen, n: int) -> np.ndarray:
    """Each point joins the lowest selected cluster above it (else noise)."""
    parent_of = {int(c): int(p) for p, c in zip(tree.parent, tree.child) if c >= n}
    chosen = set(int(c) for c in chosen)
    labels = np.full(n, -1, dtype=np.int64)
    points = tree.child < n
    for point, cluster in zip(tree.child[points], tree.parent[points]):
        cluster = int(cluster)
        while cluster not in chosen and cluster in parent_of:
            cluster = parent_of[cluster]
        if cluster in chosen:
            labels[int(point)] = cluster
    return labels


def _hdbscan_reference(X: np.ndarray, min_cluster_size: int, prefix: str) -> dict:
    from scipy.spatial import cKDTree

    from repro.hierarchy import (
        condense_dendrogram,
        extract_eom_clusters,
        mutual_reachability_mst,
        single_linkage_dendrogram,
    )

    n = X.shape[0]
    dist, _ = cKDTree(X).query(X, k=min_cluster_size)
    mst = mutual_reachability_mst(X, dist[:, -1])
    tree = condense_dendrogram(single_linkage_dendrogram(mst, n), n, min_cluster_size)
    chosen, _ = extract_eom_clusters(tree, False)
    # MST edges by level, highest first; the level is computed as condensing does
    with np.errstate(divide="ignore"):
        lam = 1.0 / mst[:, 2]
    order = np.argsort(-lam, kind="stable")
    return {
        f"{prefix}0_labels": _assign(tree, chosen, n),
        f"{prefix}0_fallout": _fallout(tree, n),
        f"{prefix}0_edges": mst[order, :2].astype(np.int64),
        f"{prefix}0_edge_lambda": lam[order],
    }


def reference(workload, X: np.ndarray) -> dict:
    """Reference arrays for every clustering one request of ``workload``
    returns, keyed ``r<i>_<field>``."""
    if workload.kind == "hdbscan":
        return _hdbscan_reference(X, workload.min_cluster_size, "r")
    return _dbscan_reference(X, workload.eps, workload.minpts, "r")


def _same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """``a`` and ``b`` (non-negative ids) split the points identically."""
    if a.size == 0:
        return True
    pairs = np.unique(np.stack([a, b]), axis=1)
    return pairs.shape[1] == np.unique(a).size == np.unique(b).size


def _check_dbscan(ref: dict, key: str, result) -> bool:
    core, comp, noise = ref[key + "_core"], ref[key + "_comp"], ref[key + "_noise"]
    n = core.shape[0]
    labels = np.asarray(result.labels)
    is_core = np.asarray(result.is_core, dtype=bool)
    if labels.shape != (n,) or is_core.shape != (n,):
        return False
    if not (np.array_equal(is_core, core) and np.array_equal(labels == -1, noise)):
        return False
    if not _same_partition(comp[core], labels[core]):
        return False
    border = np.flatnonzero(~core & ~noise)
    if border.size == 0:
        return True
    comp_of_label = np.full(int(labels.max()) + 1, -1, dtype=np.int64)
    comp_of_label[labels[core]] = comp[core]
    chosen = comp_of_label[labels[border]]
    if (chosen < 0).any():
        return False
    return bool(np.isin(border * n + chosen, ref[key + "_legal"]).all())


def _same_clusters(a: np.ndarray, b: np.ndarray) -> bool:
    """Same noise and the same clusters, up to renumbering."""
    kept = a != -1
    return np.array_equal(kept, b != -1) and _same_partition(a[kept], b[kept])


def _cluster_points(tree, n: int) -> dict:
    """The points under each non-root cluster of a condensed tree."""
    points = tree.child < n
    clusters = ~points
    direct = {}
    for point, cluster in zip(tree.child[points], tree.parent[points]):
        direct.setdefault(int(cluster), []).append(int(point))
    children = {}
    for parent, child in zip(tree.parent[clusters], tree.child[clusters]):
        children.setdefault(int(parent), []).append(int(child))
    members = {}
    for cluster in sorted(set(direct) | set(children), reverse=True):  # children first
        parts = [np.asarray(direct.get(cluster, []), dtype=np.int64)]
        parts += [members[c] for c in children.get(cluster, [])]
        members[cluster] = np.concatenate(parts)
    return {c: members[c] for c in tree.child[clusters].tolist()}


def _tie_consistent(ref: dict, key: str, tree, n: int) -> bool:
    """Every cluster of ``tree`` is one that a tie-break of the reference MST gives.

    A cluster born at level ``lam`` must be a union of the components of
    the reference MST edges with level above ``lam`` (all those merges come
    first, whatever the tie-break) and must lie inside one component of
    the edges at or above ``lam``.  Components are the same for every MST.
    """
    edges, edge_lam = ref[key + "_edges"], ref[key + "_edge_lambda"]
    members = _cluster_points(tree, n)
    birth = dict(zip(tree.child.tolist(), tree.lambda_val.tolist()))
    comp = np.arange(n)
    added = 0

    def join(level: float, inclusive: bool) -> None:
        """Join the edges above ``level`` (and at it, if ``inclusive``)."""
        nonlocal added
        while added < len(edges) and (
            edge_lam[added] > level or (inclusive and edge_lam[added] == level)
        ):
            a, b = comp[edges[added]]
            if a != b:
                comp[comp == b] = a
            added += 1

    for lam in sorted(set(birth[c] for c in members), reverse=True):  # highest first
        born = [members[c] for c in members if birth[c] == lam]
        join(lam, inclusive=False)
        if any(np.isin(comp, comp[pts]).sum() != pts.size for pts in born):
            return False  # splits a component merged below its birth
        join(lam, inclusive=True)
        if any(np.unique(comp[pts]).size != 1 for pts in born):
            return False  # not connected at its birth level
    return True


def _check_hdbscan(ref: dict, key: str, result) -> bool:
    want = ref[key + "_labels"]
    labels = np.asarray(result.labels)
    if labels.shape != want.shape:
        return False
    if _same_clusters(want, labels):
        return True
    # Tied mutual-reachability weights make the MST, and with it the
    # condensed tree and the selected clusters, depend on tie-breaking
    # (Borůvka and Prim break ties differently).  A result that differs
    # must have a condensed tree that some tie-break gives, and its labels
    # must be the ones selection gives on that tree.
    from repro.hierarchy import extract_eom_clusters

    tree = result.condensed_tree
    n = want.shape[0]
    if not np.array_equal(_fallout(tree, n), ref[key + "_fallout"], equal_nan=True):
        return False
    if not _tie_consistent(ref, key, tree, n):
        return False
    chosen, _ = extract_eom_clusters(tree, False)
    return _same_clusters(_assign(tree, chosen, n), labels)


def check(workload, ref: dict, results: list) -> bool:
    """True when every clustering of one request matches the reference."""
    if len(results) != workload.clusterings:
        return False
    checker = _check_hdbscan if workload.kind == "hdbscan" else _check_dbscan
    return all(checker(ref, f"r{i}", res) for i, res in enumerate(results))
