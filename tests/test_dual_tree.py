"""Parity and pruning tests for the dual (query-aggregated) traversal.

The dual engine is a pure work-scheduling change: every test here pins
the contract that labels, delivered hits and ``distance_evals`` are
*bit-identical* to the single-query engine, while the pruning counters
(``box_tests``/``nodes_visited``, plus the new ``group_box_tests`` /
``box_tests_saved``) account the aggregated traversal honestly.
"""

import numpy as np
import pytest

from repro.bvh.aabb import boxes_from_points
from repro.bvh.builder import build_bvh
from repro.bvh.traversal import count_within, for_each_leaf_hit
from repro.core.densebox import fdbscan_densebox
from repro.core.fdbscan import fdbscan
from repro.core.index import DBSCANIndex
from repro.device.device import Device

ALGORITHMS = {"fdbscan": fdbscan, "fdbscan-densebox": fdbscan_densebox}


def clustered_points(rng, n, dim):
    """A clustered set (the regime group pruning is built for) + noise."""
    centers = rng.uniform(0.0, 4.0, size=(6, dim))
    per = n // 8
    blobs = [c + rng.normal(0.0, 0.08, size=(per, dim)) for c in centers]
    noise = rng.uniform(0.0, 4.0, size=(n - 6 * per, dim))
    return np.concatenate(blobs + [noise])


def point_tree(X, device=None):
    lo, hi = boxes_from_points(X)
    return build_bvh(lo, hi, device=device)


class TestClusteringParity:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    @pytest.mark.parametrize("dim", [2, 3])
    def test_labels_and_distance_evals_identical(self, rng, name, dim):
        X = clustered_points(rng, 600, dim)
        runs = {}
        for traversal in ("single", "dual"):
            dev = Device(name=f"parity-{traversal}")
            res = ALGORITHMS[name](X, 0.15, 5, device=dev, traversal=traversal)
            runs[traversal] = (res, dev.counters.snapshot())
        single, s_counts = runs["single"]
        dual, d_counts = runs["dual"]
        np.testing.assert_array_equal(dual.labels, single.labels)
        np.testing.assert_array_equal(dual.is_core, single.is_core)
        assert d_counts["distance_evals"] == s_counts["distance_evals"]
        assert d_counts["scatter_adds"] == s_counts["scatter_adds"]
        assert single.info["traversal"] == "single"
        assert dual.info["traversal"] == "dual"

    @pytest.mark.parametrize("chunk_size", [None, 17, 64])
    def test_parity_across_chunk_sizes(self, rng, chunk_size):
        X = clustered_points(rng, 400, 2)
        outs = [
            ALGORITHMS["fdbscan"](
                X, 0.15, 5, chunk_size=chunk_size, traversal=t
            ).labels
            for t in ("single", "dual")
        ]
        np.testing.assert_array_equal(outs[0], outs[1])

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_weighted_parity(self, rng, name):
        # Float weights make the core test accumulation-order sensitive:
        # parity here means the dual engine delivers each query's hits in
        # the same order the single engine does, bit for bit.
        X = clustered_points(rng, 500, 2)
        w = rng.uniform(0.25, 3.0, size=X.shape[0])
        single = ALGORITHMS[name](X, 0.15, 4.0, sample_weight=w, traversal="single")
        dual = ALGORITHMS[name](X, 0.15, 4.0, sample_weight=w, traversal="dual")
        np.testing.assert_array_equal(dual.labels, single.labels)
        np.testing.assert_array_equal(dual.is_core, single.is_core)

    def test_index_preference_and_override(self, rng):
        X = clustered_points(rng, 300, 2)
        index = DBSCANIndex(X, traversal="dual")
        res = fdbscan(X, 0.15, 5, index=index)
        assert res.info["traversal"] == "dual"
        res = fdbscan(X, 0.15, 5, index=index, traversal="single")
        assert res.info["traversal"] == "single"
        with pytest.raises(ValueError, match="traversal"):
            DBSCANIndex(X, traversal="triple")


class TestTraversalParity:
    @pytest.mark.parametrize("stop_at", [None, 5])
    def test_count_within_counts_and_evals(self, rng, stop_at):
        X = clustered_points(rng, 700, 2)
        tree = point_tree(X)
        results = {}
        for traversal in ("single", "dual"):
            dev = Device(name=f"cw-{traversal}")
            counts = count_within(
                tree, X, 0.12, stop_at=stop_at, device=dev, traversal=traversal
            )
            results[traversal] = (counts, dev.counters.snapshot())
        np.testing.assert_array_equal(results["dual"][0], results["single"][0])
        assert (
            results["dual"][1]["distance_evals"]
            == results["single"][1]["distance_evals"]
        )

    def test_leaf_hits_identical_with_mask_and_early_exit(self, rng):
        # The fused main phase's exact configuration: a traversal mask,
        # a monotone finished_fn, streaming callbacks.
        X = clustered_points(rng, 500, 2)
        tree = point_tree(X)
        m = X.shape[0]
        sorted_pos = np.empty(m, dtype=np.int64)
        sorted_pos[tree.order] = np.arange(m)
        budget = 40

        def run(traversal):
            seen = np.zeros(m, dtype=np.int64)
            hits = []

            def on_hits(q_ids, leaf_pos):
                np.add.at(seen, q_ids, 1)
                hits.append((q_ids.copy(), leaf_pos.copy()))

            dev = Device(name=f"hits-{traversal}")
            for_each_leaf_hit(
                tree, X, 0.12, on_hits,
                mask_positions=sorted_pos,
                finished_fn=lambda ids: seen[ids] >= budget,
                device=dev, chunk_size=129, traversal=traversal,
            )
            q = np.concatenate([h[0] for h in hits]) if hits else np.zeros(0, int)
            p = np.concatenate([h[1] for h in hits]) if hits else np.zeros(0, int)
            return q, p, dev.counters.snapshot()

        sq, sp, sc = run("single")
        dq, dp, dc = run("dual")
        # identical hit multisets (delivery interleaving may differ)
        order_s = np.lexsort((sp, sq))
        order_d = np.lexsort((dp, dq))
        np.testing.assert_array_equal(dq[order_d], sq[order_s])
        np.testing.assert_array_equal(dp[order_d], sp[order_s])
        assert dc["distance_evals"] == sc["distance_evals"]

    def test_group_size_one_degenerates_to_per_query(self, rng, monkeypatch):
        monkeypatch.setattr("repro.bvh.traversal.DEFAULT_GROUP_SIZE", 1)
        X = clustered_points(rng, 300, 2)
        tree = point_tree(X)
        single = count_within(tree, X, 0.12, traversal="single")
        dual = count_within(tree, X, 0.12, traversal="dual")
        np.testing.assert_array_equal(dual, single)

    def test_invalid_traversal_rejected(self, rng):
        X = rng.uniform(0, 1, size=(20, 2))
        tree = point_tree(X)
        with pytest.raises(ValueError, match="traversal"):
            count_within(tree, X, 0.1, traversal="triple")


class TestPruning:
    def test_dual_prunes_clustered_data(self, rng):
        # The acceptance property: on clustered data the dual engine's
        # total pruning work (box tests, group tests and frontier node
        # visits) undercuts the single engine's — and never exceeds it.
        X = clustered_points(rng, 2000, 2)
        work = {}
        for traversal in ("single", "dual"):
            dev = Device(name=f"prune-{traversal}")
            tree = point_tree(X, device=dev)
            count_within(tree, X, 0.1, device=dev, traversal=traversal)
            work[traversal] = dev.counters.snapshot()
        s, d = work["single"], work["dual"]
        assert d["nodes_visited"] <= s["nodes_visited"]
        dual_total = (
            d.get("box_tests", 0) + d.get("group_box_tests", 0) + d["nodes_visited"]
        )
        single_total = s["box_tests"] + s["nodes_visited"]
        assert dual_total <= single_total
        # the clustered regime should beat the acceptance bar (>= 30%)
        assert dual_total <= 0.7 * single_total
        assert d.get("group_box_tests", 0) > 0
        assert d.get("box_tests_saved", 0) > 0

    def test_single_engine_has_no_group_counters(self, rng):
        X = clustered_points(rng, 300, 2)
        dev = Device(name="single-only")
        tree = point_tree(X, device=dev)
        count_within(tree, X, 0.1, device=dev, traversal="single")
        snap = dev.counters.snapshot()
        assert snap.get("group_box_tests", 0) == 0
        assert snap.get("box_tests_saved", 0) == 0
