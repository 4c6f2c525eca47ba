"""The benchmark's workloads: seeded point sets and one request each.

Why each workload was chosen is recorded in ``BENCHMARK.json`` and
``README.md``.

A request is what one caller asks of the library in one call sequence.
It always starts cold: the caller passes a fresh ``repro.Device`` and no
index or state survives from the previous request.  Requests use library
defaults except for algorithm and parameters (serial backend, traversal
left unset, input query order), so a change of default is measured the
way users see it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from inputs import hacc_points, ngsim_points


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "fdbscan", "densebox-sweep" or "hdbscan"
    n: int
    make_points: Callable[[int, tuple], np.ndarray]
    #: Layers (see ``layers.py``) every traced request must enter.
    layers: tuple
    eps: float = 0.0
    minpts: tuple = ()
    min_cluster_size: int = 0

    @property
    def clusterings(self) -> int:
        """Clusterings returned by one request."""
        return 1 if self.kind == "hdbscan" else len(self.minpts)

    def points(self, seed: int, k: int = 0) -> np.ndarray:
        """Point set ``k`` of a run on ``seed``."""
        return self.make_points(self.n, (seed, k))

    def request(self, repro, X: np.ndarray, device) -> list:
        """Run one request through the public entry points."""
        if self.kind == "hdbscan":
            return [repro.hdbscan(X, min_cluster_size=self.min_cluster_size, device=device)]
        if self.kind == "fdbscan":
            return [repro.dbscan(X, self.eps, self.minpts[0], algorithm="fdbscan", device=device)]
        index = repro.DBSCANIndex(X)  # one index shared by the sweep
        return [
            repro.dbscan(
                X, self.eps, m, algorithm="fdbscan-densebox", index=index, device=device
            )
            for m in self.minpts
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ngsim2d-fdbscan",
            kind="fdbscan",
            n=4000,
            make_points=ngsim_points,
            layers=("bvh", "count", "main", "resolve", "finalize"),
            eps=0.01,
            minpts=(5,),
        ),
        Workload(
            name="hacc3d-minpts",
            kind="densebox-sweep",
            n=16384,
            make_points=hacc_points,
            layers=(
                "bvh", "grid.binning", "grid.decompose", "count", "main", "resolve", "finalize",
            ),
            eps=0.042,
            minpts=(2, 5, 10, 50, 100, 300),
        ),
        Workload(
            name="ngsim2d-hdbscan",
            kind="hdbscan",
            n=4000,
            make_points=ngsim_points,
            layers=("bvh", "knn", "boruvka", "condense"),
            min_cluster_size=5,
        ),
    )
}
