"""Randomised differential tests: every algorithm against the oracle on
generated inputs, plus the minpts=2 equivalence with graph components.

The tree algorithms run under every traversal engine (``single``,
``dual``, ``auto``) against the brute-force oracle, on random
mixed-density data and on adversarial inputs: exact duplicates,
collinear sets, points on Morton quantisation boundaries, and fewer
points than ``min_samples``."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import dbscan
from repro.baselines import brute_dbscan, sequential_dbscan
from repro.bvh.morton import bits_per_axis
from repro.metrics.equivalence import assert_dbscan_equivalent

PARALLEL_ALGORITHMS = ["fdbscan", "densebox", "gdbscan", "cuda-dclust", "dsdbscan"]
TREE_ALGORITHMS = ["fdbscan", "densebox"]
TRAVERSALS = ["single", "dual", "auto"]


def _random_dataset(seed, d=2):
    """Mixed-density data: clumps + filaments + uniform noise."""
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(rng.integers(1, 4)):
        center = rng.uniform(0, 3, size=d)
        parts.append(center + rng.normal(0, rng.uniform(0.01, 0.15), size=(rng.integers(5, 60), d)))
    t = rng.uniform(0, 1, size=(rng.integers(5, 40), 1))
    a, b = rng.uniform(0, 3, size=(2, d))
    parts.append(a + t * (b - a) + rng.normal(0, 0.01, size=(t.shape[0], d)))
    parts.append(rng.uniform(-1, 4, size=(rng.integers(5, 40), d)))
    return np.concatenate(parts)


class TestRandomisedDifferential:
    @pytest.mark.parametrize("algorithm", PARALLEL_ALGORITHMS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d", [2, 3])
    def test_mixed_density_inputs(self, algorithm, seed, d):
        X = _random_dataset(seed, d)
        eps = 0.2
        minpts = 5
        base = sequential_dbscan(X, eps, minpts)
        res = dbscan(X, eps, minpts, algorithm=algorithm)
        assert_dbscan_equivalent(base, res, X, eps)

    @given(
        seed=st.integers(0, 10_000),
        eps=st.floats(0.05, 0.8),
        minpts=st.integers(1, 12),
        traversal=st.sampled_from(TRAVERSALS),
    )
    @settings(max_examples=30, deadline=None)
    def test_fdbscan_hypothesis(self, seed, eps, minpts, traversal):
        X = _random_dataset(seed)
        base = sequential_dbscan(X, eps, minpts)
        res = dbscan(X, eps, minpts, algorithm="fdbscan", traversal=traversal)
        assert_dbscan_equivalent(base, res, X, eps)

    @given(
        seed=st.integers(0, 10_000),
        eps=st.floats(0.05, 0.8),
        minpts=st.integers(1, 12),
        traversal=st.sampled_from(TRAVERSALS),
    )
    @settings(max_examples=30, deadline=None)
    def test_densebox_hypothesis(self, seed, eps, minpts, traversal):
        X = _random_dataset(seed)
        base = sequential_dbscan(X, eps, minpts)
        res = dbscan(X, eps, minpts, algorithm="densebox", traversal=traversal)
        assert_dbscan_equivalent(base, res, X, eps)

    @given(seed=st.integers(0, 10_000), eps=st.floats(0.05, 0.5))
    @settings(max_examples=20, deadline=None)
    def test_two_oracles_agree(self, seed, eps):
        # sequential BFS vs dense-matrix propagation: independent
        # implementations must agree with each other too.
        X = _random_dataset(seed)[:120]
        a = sequential_dbscan(X, eps, 5)
        b = brute_dbscan(X, eps, 5)
        assert_dbscan_equivalent(a, b, X, eps)


def _duplicates(d):
    """Stacks of exact duplicates: a stack alone reaches ``min_samples``,
    a short stack only with its neighbours, and a lone duplicate pair
    stays noise."""
    rng = np.random.default_rng(5)
    centres = rng.uniform(0, 3, size=(6, d))
    sizes = [12, 4, 4, 2, 1, 1]
    X = np.concatenate([np.repeat(c[None], k, axis=0) for c, k in zip(centres, sizes)])
    near = centres[1] + 0.05  # within eps of the second stack only
    return np.concatenate([X, near[None], near[None], rng.uniform(0, 3, size=(20, d))])


def _collinear(d):
    """Points on one line (flat in every other axis), with gaps either
    comfortably inside or outside eps, so chains split deterministically."""
    rng = np.random.default_rng(9)
    gaps = np.where(rng.uniform(size=80) < 0.8, 0.09, 0.13)
    t = np.cumsum(gaps)
    direction = np.ones(d) / np.sqrt(d) if d == 3 else np.eye(d)[0]
    return t[:, None] * direction[None, :]


def _morton_boundaries(d):
    """Chains straddling the coarsest Morton splits of the unit scene.

    Quantisation maps ``u`` to ``floor(u * (2**bits - 1) + 0.5)``, so the
    split between cells ``c - 1`` and ``c`` sits at ``(c - 0.5) / scale``.
    Points sit exactly on, and one ulp either side of, the splits of the
    first three tree levels, plus chains crossing each split within eps.
    """
    bits = bits_per_axis(d)
    scale = float(2**bits - 1)
    splits = [
        (m * 2 ** (bits - level) - 0.5) / scale
        for level in (1, 2, 3)
        for m in range(1, 2**level, 2)
    ]
    rows = [np.zeros(d), np.ones(d)]  # pin the scene bounds to [0, 1]
    for b in splits:
        for x in (np.nextafter(b, -1.0), b, np.nextafter(b, 2.0)):
            rows.append(np.full(d, 0.5))
            rows[-1][0] = x
        for k in range(-3, 4):
            p = np.full(d, b)
            p[0] = b + k * 0.045
            rows.append(p)
    return np.clip(np.array(rows), 0.0, 1.0)


ADVERSARIAL = {
    "duplicates": (_duplicates, 0.1, 5),
    "collinear": (_collinear, 0.1, 3),
    "morton-boundaries": (_morton_boundaries, 0.05, 3),
    "fewer-than-minpts": (lambda d: np.random.default_rng(3).uniform(size=(4, d)), 0.5, 5),
    "single-point": (lambda d: np.zeros((1, d)), 0.1, 2),
}


class TestEnginesAgainstOracle:
    """Every traversal engine of both tree algorithms against the
    brute-force oracle."""

    @pytest.mark.parametrize("traversal", TRAVERSALS)
    @pytest.mark.parametrize("algorithm", TREE_ALGORITHMS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d", [2, 3])
    def test_mixed_density_inputs(self, traversal, algorithm, seed, d):
        X = _random_dataset(seed, d)
        base = brute_dbscan(X, 0.2, 5)
        res = dbscan(X, 0.2, 5, algorithm=algorithm, traversal=traversal)
        assert_dbscan_equivalent(base, res, X, 0.2)

    @pytest.mark.parametrize("traversal", TRAVERSALS)
    @pytest.mark.parametrize("algorithm", TREE_ALGORITHMS)
    @pytest.mark.parametrize("case", sorted(ADVERSARIAL))
    @pytest.mark.parametrize("d", [2, 3])
    def test_adversarial_inputs(self, traversal, algorithm, case, d):
        make, eps, minpts = ADVERSARIAL[case]
        X = make(d)
        base = brute_dbscan(X, eps, minpts)
        res = dbscan(X, eps, minpts, algorithm=algorithm, traversal=traversal)
        assert_dbscan_equivalent(base, res, X, eps)
        if X.shape[0] < minpts:
            assert res.n_clusters == 0 and (res.labels == -1).all()


class TestFriendsOfFriends:
    """minpts=2 is exactly connected components of the eps-graph
    (Section 2.1) — checked against networkx."""

    @pytest.mark.parametrize("algorithm", ["fdbscan", "densebox"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_networkx_components(self, algorithm, seed):
        X = _random_dataset(seed)
        eps = 0.15
        res = dbscan(X, eps, 2, algorithm=algorithm)

        diff = X[:, None, :] - X[None, :, :]
        adj = np.einsum("ijk,ijk->ij", diff, diff) <= eps * eps
        np.fill_diagonal(adj, False)
        G = nx.from_numpy_array(adj)
        components = [c for c in nx.connected_components(G) if len(c) > 1]

        assert res.n_clusters == len(components)
        # each component maps to exactly one cluster label
        for comp in components:
            labels = {int(res.labels[i]) for i in comp}
            assert len(labels) == 1
            assert labels.pop() >= 0
        singletons = [c for c in nx.connected_components(G) if len(c) == 1]
        for comp in singletons:
            assert res.labels[comp.pop()] == -1

    def test_no_border_points_at_minpts_2(self):
        X = _random_dataset(3)
        for algorithm in ("fdbscan", "densebox", "gdbscan"):
            res = dbscan(X, 0.2, 2, algorithm=algorithm)
            assert res.n_border == 0, algorithm


class TestCrossAlgorithmConsistency:
    @given(seed=st.integers(0, 10_000), minpts=st.integers(2, 20))
    @settings(max_examples=20, deadline=None)
    def test_fdbscan_vs_densebox(self, seed, minpts):
        # The paper's two algorithms must agree everywhere, including
        # regimes where dense cells dominate or vanish.
        X = _random_dataset(seed)
        eps = 0.25
        a = dbscan(X, eps, minpts, algorithm="fdbscan")
        b = dbscan(X, eps, minpts, algorithm="densebox")
        assert_dbscan_equivalent(a, b, X, eps)

    def test_cluster_count_invariant_to_point_order(self):
        X = _random_dataset(11)
        rng = np.random.default_rng(0)
        perm = rng.permutation(X.shape[0])
        a = dbscan(X, 0.2, 5, algorithm="fdbscan")
        b = dbscan(X[perm], 0.2, 5, algorithm="fdbscan")
        assert a.n_clusters == b.n_clusters
        assert a.n_noise == b.n_noise
        np.testing.assert_array_equal(a.is_core[perm], b.is_core)
