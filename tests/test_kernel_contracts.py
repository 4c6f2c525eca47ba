"""Per-kernel invariance contracts, asserted exactly where claimed.

``docs/gpu-model.md`` ("Invariance contracts per kernel") states, for
every traversal kernel, which of its outputs are identical across the
three scheduling axes — traversal engine, chunk size and query order —
and which are not.  ``knn_gather`` and ``boruvka_nn`` search per-query
radii (Borůvka also under a component mask), which always run the single
engine: their callers take no engine knob, so their engine cells request
the engine at the wavefront itself and every column must match single.  :data:`CONTRACT` below is that table: each kernel
maps a column to the set of axes it is invariant over, and the one
parametrised test asserts every claimed cell and nothing else.  A
column absent for an axis is *not* claimed (``box_tests`` across
engines, every ``boruvka_nn`` counter across chunking and order, ...).

Columns:

- ``result`` — what the kernel's caller returns (labels and core flags,
  kNN radii, the MST rows);
- ``hits`` — each query's delivered leaf sequence, launch by launch;
- ``distance_evals`` / ``box_tests`` — the kernel's row of
  :meth:`repro.device.Device.profile`;
- ``union_ops`` — the *run's* total (the pair buffer's last flush runs
  after the main kernel's span closes, so the per-kernel share moves
  with the flush boundaries while the total does not).
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager

import numpy as np
import pytest

from repro.bvh.aabb import boxes_from_points
from repro.bvh.builder import build_bvh
from repro.device.device import Device

ALL = frozenset({"engine", "chunk", "order"})
CHUNK_ORDER = frozenset({"chunk", "order"})

#: kernel -> (runner, {column: axes the column is invariant over}).
CONTRACT = {
    "bvh_count": ("fdbscan", {
        "result": ALL, "hits": ALL, "distance_evals": ALL, "box_tests": CHUNK_ORDER,
    }),
    "fdbscan_main": ("fdbscan", {
        "result": ALL, "hits": ALL, "distance_evals": ALL, "box_tests": CHUNK_ORDER,
        "union_ops": ALL,
    }),
    "densebox_preprocess": ("densebox", {
        "result": ALL, "hits": ALL, "distance_evals": ALL, "box_tests": CHUNK_ORDER,
    }),
    "densebox_main": ("densebox", {
        "result": ALL, "hits": ALL, "distance_evals": ALL, "box_tests": CHUNK_ORDER,
        "union_ops": ALL,
    }),
    "knn_gather": ("knn", {
        "result": ALL,
        "hits": frozenset({"engine", "order"}),
        "distance_evals": ALL,
        "box_tests": ALL,
    }),
    "boruvka_nn": ("boruvka", {
        "result": ALL,
        "hits": frozenset({"engine"}),
        "distance_evals": frozenset({"engine"}),
        "box_tests": frozenset({"engine"}),
    }),
}

#: Runners whose callers take no ``traversal`` knob (single engine only).
SINGLE_ENGINE_ONLY = {"knn", "boruvka"}

BASE = {"traversal": "single", "chunk_size": 256, "query_order": "input"}
VARIANTS = {
    "engine": ({"traversal": "dual"}, {"traversal": "auto"}),
    "chunk": ({"chunk_size": 97}, {"chunk_size": 1 << 20}),
    "order": ({"query_order": "morton"},),
}

EPS, MINPTS = 0.1, 5


def _mixed(n: int = 600, seed: int = 11) -> np.ndarray:
    """Two blobs plus a sparse background: dense cells, isolated points
    and uneven kNN radii, so every kernel above actually launches."""
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [
            rng.normal(0.0, 0.12, size=(n // 2, 2)),
            rng.normal(1.5, 0.15, size=(n - n // 2 - n // 6, 2)),
            rng.uniform(-1.0, 3.0, size=(n // 6, 2)),
        ]
    )


X = _mixed()
TREE = build_bvh(*boxes_from_points(X), device=Device())


def _fdbscan(dev, **knobs):
    res = importlib.import_module("repro.core.fdbscan").fdbscan(
        X, EPS, MINPTS, device=dev, **knobs
    )
    return res.labels, res.is_core


def _densebox(dev, **knobs):
    res = importlib.import_module("repro.core.densebox").fdbscan_densebox(
        X, EPS, MINPTS, device=dev, **knobs
    )
    return res.labels, res.is_core


def _knn(dev, **knobs):
    from repro.bvh.knn import knn_radii

    return (knn_radii(TREE, X, MINPTS, device=dev, points=X, **knobs),)


def _boruvka(dev, **knobs):
    from repro.bvh.knn import knn_radii
    from repro.hierarchy.boruvka import mutual_reachability_mst_boruvka

    core = knn_radii(TREE, X, MINPTS, device=Device(), points=X)
    return (mutual_reachability_mst_boruvka(X, core, TREE, device=dev, **knobs),)


RUNNERS = {"fdbscan": _fdbscan, "densebox": _densebox, "knn": _knn, "boruvka": _boruvka}

#: Modules that call ``for_each_leaf_hit`` through a module-level name.
_CALLERS = (
    "repro.bvh.traversal",
    "repro.core.fdbscan",
    "repro.core.densebox",
    "repro.bvh.knn",
    "repro.hierarchy.boruvka",
)


@contextmanager
def _record_hits(sink: dict, engine: str | None = None):
    """Record every top-level traversal's delivered ``(query, leaf)``
    batches into ``sink[kernel_name]`` (one list per launch).  Nested
    calls — the auto dispatcher's per-chunk recursion — pass through.
    A given ``engine`` is requested on every top-level call."""
    from repro.bvh import traversal

    original = traversal.for_each_leaf_hit
    depth = [0]

    def recording(tree, queries, eps, callback, *args, kernel_name="bvh_traverse", **kw):
        cb = callback
        if depth[0] == 0:
            if engine is not None:
                kw["traversal"] = engine
            launch: list = []
            sink.setdefault(kernel_name, []).append(launch)

            def cb(q, pos):
                launch.append((np.array(q, dtype=np.int64), np.array(pos, dtype=np.int64)))
                callback(q, pos)

        depth[0] += 1
        try:
            return original(tree, queries, eps, cb, *args, kernel_name=kernel_name, **kw)
        finally:
            depth[0] -= 1

    modules = [importlib.import_module(name) for name in _CALLERS]
    for module in modules:
        module.for_each_leaf_hit = recording
    try:
        yield
    finally:
        for module in modules:
            module.for_each_leaf_hit = original


def _per_query(launch: list) -> tuple[np.ndarray, np.ndarray]:
    """A launch's hits regrouped per query, each query's in delivery order."""
    if not launch:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    q = np.concatenate([b[0] for b in launch])
    pos = np.concatenate([b[1] for b in launch])
    order = np.argsort(q, kind="stable")
    return q[order], pos[order]


_RUNS: dict = {}


def _observe(runner: str, knobs: dict) -> dict:
    key = (runner, tuple(sorted(knobs.items())))
    if key not in _RUNS:
        dev = Device()
        hits: dict = {}
        engine = None
        if runner in SINGLE_ENGINE_ONLY:
            knobs = dict(knobs)
            engine = knobs.pop("traversal")
        with _record_hits(hits, engine):
            result = RUNNERS[runner](dev, **knobs)
        _RUNS[key] = {
            "result": result,
            "hits": hits,
            "profile": dev.profile(),
            "union_ops": dev.counters.union_ops,
        }
    return _RUNS[key]


def _column(run: dict, kernel: str, column: str):
    if column == "result":
        return run["result"]
    if column == "hits":
        return [_per_query(launch) for launch in run["hits"].get(kernel, [])]
    if column == "union_ops":
        return run["union_ops"]
    return run["profile"][kernel]["counters"].get(column, 0)


def _equal(a, b) -> bool:
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    return bool(np.array_equal(a, b))


@pytest.mark.parametrize("axis", sorted(VARIANTS))
@pytest.mark.parametrize("kernel", sorted(CONTRACT))
def test_claimed_invariants(kernel, axis):
    runner, claims = CONTRACT[kernel]
    base = _observe(runner, BASE)
    assert base["profile"][kernel]["launches"] > 0, "the claim would be vacuous"
    columns = [c for c, axes in claims.items() if axis in axes]
    for variant in VARIANTS[axis]:
        run = _observe(runner, {**BASE, **variant})
        for column in columns:
            assert _equal(_column(run, kernel, column), _column(base, kernel, column)), (
                f"{kernel}.{column} differs under {variant}"
            )
