"""Self-test of the benchmark's own checks.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For every workload, on the point set of seed 1, it shows that

1. a request whose labels were corrupted is counted as failed, and the
   honest request is not; for HDBSCAN, so is a request whose condensed
   tree joins two clusters later than the MST allows while every point
   keeps its level and the labels are the ones selection gives on it;
2. a traced request enters each of the workload's layers, and its
   per-layer self times plus ``request.unattributed_s`` add up to
   ``request.wall_s``;
3. two traced runs in separate processes on the same seed give
   bit-identical layer counts.

Exits 1 on the first check that does not hold.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import oracle  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: The seed whose first point set every check runs on.
SEED = 1
#: The per-layer self-time metrics; with the remainder they cover the wall.
LAYER_TIMES = (
    "bvh.build_s", "grid.binning_s", "grid.decompose_s", "count.s", "main.self_s",
    "resolve.s", "finalize.s", "knn.s", "boruvka.s", "condense.s",
    "request.unattributed_s",
)


def _corrupting(workload):
    """The workload's request, with one clustered point's label moved to noise."""

    def request(repro, X, device):
        results = workload.request(repro, X, device)
        labels = results[0].labels
        labels[np.flatnonzero(labels >= 0)[0]] = -1
        return results

    return request


def _late_join(workload, ref):
    """The workload's HDBSCAN request, returning a condensed tree in which
    two sibling clusters are born at a lower level (a longer distance)
    than their true one, and the labels selection gives on that tree.

    Every point keeps the level at which it leaves the clusters, so only
    the cluster structure is wrong.  The first sibling pair whose labels
    then differ from the reference's is moved.
    """
    from repro.hierarchy import extract_eom_clusters

    def request(repro, X, device):
        result = workload.request(repro, X, device)[0]
        tree, n = result.condensed_tree, workload.n
        clusters = tree.child >= n
        birth = dict(zip(tree.child[clusters].tolist(), tree.lambda_val[clusters].tolist()))
        parent = dict(zip(tree.child[clusters].tolist(), tree.parent[clusters].tolist()))
        for first in sorted(birth):
            second = next((c for c in birth if c > first and parent[c] == parent[first]), None)
            if second is None:
                continue
            lam = (birth.get(parent[first], 0.0) + birth[first]) / 2
            moved = np.isin(tree.child, [first, second])
            late = dataclasses.replace(tree, lambda_val=np.where(moved, lam, tree.lambda_val))
            labels = oracle._assign(late, extract_eom_clusters(late, False)[0], n)
            if not oracle._same_clusters(ref["r0_labels"], labels):
                return [dataclasses.replace(result, labels=labels, condensed_tree=late)]
        raise AssertionError("no sibling pair changes the labels")

    return request


def _fail(message: str) -> int:
    print(f"FAIL {message}")
    return 1


def check_workload(workload, repro, src: Path) -> int:
    X = workload.points(SEED)
    ref = oracle.reference(workload, X)

    sets = [(X, ref)]
    honest = worker.serve(workload, repro, sets, seconds=0)
    bad = worker.serve(workload, repro, sets, seconds=0, request=_corrupting(workload))
    if honest["failed"] != 0 or bad["failed"] != bad["attempted"]:
        return _fail(f"{workload.name}: oracle honest={honest} corrupted={bad}")
    print(f"ok   {workload.name}: corrupted labels counted as failed "
          f"({bad['failed']} of {bad['attempted']})")
    if workload.kind == "hdbscan":
        late = worker.serve(workload, repro, sets, seconds=0, request=_late_join(workload, ref))
        if late["failed"] != late["attempted"]:
            return _fail(f"{workload.name}: late-joined clusters passed the oracle: {late}")
        print(f"ok   {workload.name}: clusters joined later than the MST allows counted "
              f"as failed ({late['failed']} of {late['attempted']})")

    tracer = layers.Tracer()
    worker.serve(workload, repro, sets, seconds=0, tracer=tracer)
    for request in tracer.requests:
        missing = layers.absent(request, workload.layers)
        if missing:
            return _fail(f"{workload.name}: traced request never entered {missing}")
        m = layers.request_metrics(request, workload.n, workload.min_cluster_size)
        total = sum(m[k] for k in LAYER_TIMES)
        if not math.isclose(total, m["request.wall_s"], rel_tol=1e-9, abs_tol=1e-12):
            return _fail(f"{workload.name}: layers sum to {total}, wall {m['request.wall_s']}")
    print(f"ok   {workload.name}: every layer entered, self times + unattributed = wall "
          f"({len(tracer.requests)} traced requests)")

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=Path.cwd()))
    try:
        data = tmp / "data.npz"
        worker.save_sets(data, sets)
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
                 "--data", str(data), "--src", str(src), "--seconds", "0", "--trace", "1"],
                capture_output=True, text=True, check=True,
            )
            rows = json.loads(proc.stdout.strip().splitlines()[-1])["layers"]
            runs.append([{k: v for k, v in r.items() if layers.unit(k) != "s"} for r in rows])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if runs[0] != runs[1] or any(r != runs[0][0] for r in runs[0]):
        return _fail(f"{workload.name}: layer counts differ between runs: {runs}")
    print(f"ok   {workload.name}: layer counts bit-identical across two processes")
    return 0


def main() -> int:
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return _fail(f"no src/repro under {Path.cwd()}; run from the repository root")
    sys.path.insert(0, str(src))
    import repro

    for workload in WORKLOADS.values():
        if check_workload(workload, repro, src):
            return 1
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
