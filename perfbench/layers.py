"""Layer attribution for traced requests.

A traced request wraps the library's layer entry points at runtime (the
source is never edited) and records one span per call that crosses a
layer boundary: layer, function, start, end, parent span and request id.
Counts come from ``Device.counters`` snapshots taken around each span,
which are exact; ``Device.profile()`` is not used because its bounded
ring can drop launches.

A span's self time is its duration minus the durations of its direct
children, and likewise for its counts.  Summed over a request's spans,
self times add up to the request span's duration exactly; the request
span's own self time is the unattributed remainder.

Calls that stay inside one layer (``PairResolver.finalize`` calling
``flush``, ``points_tree`` calling ``build_bvh``) do not open a span.
The kNN and Borůvka layers own everything called inside them, so their
traversals and union-find work count as theirs.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps

#: Layers that absorb every wrapped call made inside them.
OPAQUE = frozenset({"knn", "boruvka"})

#: Traversal kernels that mark a DBSCAN phase; other traversals stay in
#: the layer that launched them.
_TRAVERSAL_LAYER = {
    "fdbscan_main": "main",
    "densebox_main": "main",
    "densebox_preprocess": "count",
}

#: Index methods whose last return value is the ``reused`` flag.
INDEX_LOOKUPS = frozenset(
    {
        "DBSCANIndex.points_tree",
        "DBSCANIndex.grid_binning",
        "DBSCANIndex.dense_decomposition",
    }
)

#: ``(module, attribute, layer)``; a callable layer is chosen per call from
#: the call's arguments, bound to their parameter names.
TARGETS = (
    ("repro.bvh.builder", "build_bvh", "bvh"),
    ("repro.core.index", "DBSCANIndex.points_tree", "bvh"),
    ("repro.core.index", "DBSCANIndex.grid_binning", "grid.binning"),
    ("repro.core.index", "DBSCANIndex.dense_decomposition", "grid.decompose"),
    ("repro.bvh.traversal", "count_within", "count"),
    (
        "repro.bvh.traversal",
        "for_each_leaf_hit",
        lambda arguments: _TRAVERSAL_LAYER.get(arguments.get("kernel_name")),
    ),
    ("repro.core.framework", "PairResolver.add", "resolve"),
    ("repro.core.framework", "PairResolver.flush", "resolve"),
    ("repro.core.framework", "PairResolver.finalize", "resolve"),
    ("repro.unionfind.ecl", "union_batch", "resolve"),
    ("repro.core.labels", "finalize_clusters", "finalize"),
    ("repro.bvh.knn", "core_distances", "knn"),
    ("repro.hierarchy.boruvka", "mutual_reachability_mst_boruvka", "boruvka"),
    ("repro.hierarchy.mst", "single_linkage_dendrogram", "condense"),
    ("repro.hierarchy.condense", "condense_dendrogram", "condense"),
    ("repro.hierarchy.condense", "extract_eom_clusters", "condense"),
)


class Tracer:
    """Spans of traced requests, kept in memory until :meth:`dump`."""

    def __init__(self):
        self.requests: list[dict] = []
        self._stack: list[dict] = []
        self._current: dict | None = None
        self._device = None
        self._next_id = 0

    @contextmanager
    def request(self, device):
        """Trace one request whose calls all account on ``device``."""
        self._device = device
        self._current = {
            "id": len(self.requests),
            "spans": [],
            "calls": Counter(),
            "index_hits": 0,
            "index_lookups": 0,
        }
        root = self._open("request", "request")
        try:
            yield self._current
        finally:
            self._close(root)
            self._current["trace_dropped"] = device.trace_dropped
            self.requests.append(self._current)
            self._current = None
            self._device = None

    def _open(self, layer: str, fn: str) -> dict:
        parent = self._stack[-1]["id"] if self._stack else None
        span = {
            "id": self._next_id,
            "parent": parent,
            "request": self._current["id"],
            "layer": layer,
            "fn": fn,
            "before": self._device.counters.snapshot(),
            "child_s": 0.0,
            "child_counts": Counter(),
        }
        self._next_id += 1
        self._stack.append(span)
        span["t0"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["t1"] = time.perf_counter()
        self._stack.pop()
        counts = self._device.counters.diff(span.pop("before"))
        counts.pop("frontier_peak", None)  # a high-watermark, not a delta
        seconds = span["t1"] - span["t0"]
        child = span.pop("child_counts")
        span["self_s"] = seconds - span.pop("child_s")
        span["self_counts"] = {k: v - child.get(k, 0) for k, v in counts.items()}
        if self._stack:
            self._stack[-1]["child_s"] += seconds
            self._stack[-1]["child_counts"].update(counts)
        self._current["spans"].append(span)

    def wrap(self, fn, name: str, layer_of):
        """``fn`` with a span around each call that enters a new layer."""
        signature = inspect.signature(fn) if callable(layer_of) else None

        @wraps(fn)
        def traced(*args, **kwargs):
            request = self._current
            if request is None:
                return fn(*args, **kwargs)
            request["calls"][name] += 1
            if signature is None:
                layer = layer_of
            else:
                layer = layer_of(signature.bind(*args, **kwargs).arguments)
            top = self._stack[-1]["layer"]
            if layer is None or layer == top or top in OPAQUE:
                out = fn(*args, **kwargs)
            else:
                span = self._open(layer, name)
                try:
                    out = fn(*args, **kwargs)
                    span["frontier_peak"] = getattr(out, "frontier_peak", 0)
                finally:
                    self._close(span)
            if name in INDEX_LOOKUPS:
                request["index_lookups"] += 1
                request["index_hits"] += bool(out[-1])
            return out

        return traced

    def dump(self, path) -> None:
        """Write every span, one JSON object per line."""
        with open(path, "w") as fh:
            for request in self.requests:
                for span in request["spans"]:
                    fh.write(json.dumps(span, default=int) + "\n")


def install(tracer: Tracer):
    """Wrap every target in the loaded ``repro`` modules; returns the undo.

    A function is replaced in every module that imported it by name, since
    each holds its own reference.  A target missing from the library
    raises :class:`LookupError` naming it, with nothing left wrapped, so a
    renamed entry point fails the traced run instead of reading zero.
    """
    patched, missing = [], []
    for module_name, path, layer in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ModuleNotFoundError:
            missing.append(f"{module_name}.{path}")
            continue
        owner, attr = module, path
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name, None)
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(f"{module_name}.{path}")
            continue
        wrapper = tracer.wrap(original, path, layer)
        if owner is not module:
            patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    patched.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def undo() -> None:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    if missing:
        undo()
        raise LookupError(f"layer targets not found in repro: {', '.join(missing)}")
    return undo


def absent(request: dict, expected) -> list[str]:
    """The layers of ``expected`` that recorded no span in a traced request."""
    seen = {span["layer"] for span in request["spans"]}
    return [layer for layer in expected if layer not in seen]


def unit(metric: str) -> str:
    """The unit of a per-layer metric, read from its name."""
    if metric.endswith(("ratio", "fraction", "frac")):
        return "ratio"
    return "s" if metric.endswith(("_s", ".s")) else "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def request_metrics(request: dict, n_points: int, knn_k: int) -> dict:
    """The per-layer metrics of one traced request."""
    self_s: Counter = Counter()
    counts: dict[str, Counter] = {}
    frontier = 0
    wall = 0.0
    for span in request["spans"]:
        layer = span["layer"]
        self_s[layer] += span["self_s"]
        counts.setdefault(layer, Counter()).update(span["self_counts"])
        if layer == "main":
            frontier = max(frontier, span.get("frontier_peak", 0))
        if layer == "request":
            wall = span["t1"] - span["t0"]

    def secs(layer: str) -> float:
        return float(self_s[layer])

    def c(layer: str, key: str) -> int:
        return int(counts.get(layer, {}).get(key, 0))

    calls = request["calls"]
    total = Counter()
    for layer_counts in counts.values():
        total.update(layer_counts)
    decompositions = calls["DBSCANIndex.dense_decomposition"]
    return {
        "bvh.build_s": secs("bvh"),
        "bvh.build_calls": calls["build_bvh"],
        "index.cache_hit_ratio": _ratio(request["index_hits"], request["index_lookups"]),
        "grid.binning_s": secs("grid.binning"),
        "grid.decompose_s": secs("grid.decompose"),
        "grid.dense_fraction": _ratio(
            c("grid.decompose", "dense_cell_points"), n_points * decompositions
        ),
        "count.s": secs("count"),
        "count.distance_evals": c("count", "distance_evals"),
        "count.box_tests": c("count", "box_tests"),
        "main.self_s": secs("main"),
        "main.distance_evals": c("main", "distance_evals"),
        "main.box_tests": c("main", "box_tests"),
        "main.nodes_visited": c("main", "nodes_visited"),
        "main.frontier_peak": int(frontier),
        "main.hit_ratio": _ratio(
            c("resolve", "pairs_processed"), c("main", "distance_evals")
        ),
        "resolve.s": secs("resolve"),
        "resolve.pairs": c("resolve", "pairs_processed"),
        "resolve.union_ops": c("resolve", "union_ops"),
        "resolve.find_steps": c("resolve", "find_steps"),
        "finalize.s": secs("finalize"),
        "knn.s": secs("knn"),
        "knn.distance_evals": c("knn", "distance_evals"),
        "knn.box_tests": c("knn", "box_tests"),
        "knn.useful_ratio": _ratio(n_points * knn_k, c("knn", "distance_evals")),
        "boruvka.s": secs("boruvka"),
        "boruvka.distance_evals": c("boruvka", "distance_evals"),
        "boruvka.launches": c("boruvka", "kernel_launches"),
        "boruvka.rounds": c("boruvka", "boruvka_rounds"),
        "condense.s": secs("condense"),
        "device.kernel_launches": int(total["kernel_launches"]),
        "device.trace_dropped": int(request["trace_dropped"]),
        "request.unattributed_s": secs("request"),
        "request.wall_s": wall,
    }
