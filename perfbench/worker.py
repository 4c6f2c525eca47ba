"""The measured process: one workload's requests in a closed loop.

``run.py`` starts this script with the point sets and their reference
clusterings in an ``.npz`` file (:func:`save_sets`), so the oracle's
memory and time stay out of this process.  Requests cycle through the
point sets.  It times its own set-up (``import repro`` plus the
first, untimed request), then sends requests one after another until
``--seconds`` have passed, checking every output against the reference.
Before set-up, between requests and after the last it times the host's
pace (``pace.py``); each time is also reported scaled by the paces
around it.
``run.py`` runs several workers one after another and pools their
samples, so one process's memory placement does not set a run's figure.

With ``--trace 1`` requests alternate between untraced and traced, so the
tracing overhead is measured in the same run.  The last line of standard
output is one JSON object with the raw samples.  A traced run exits 1
when a layer target is missing from the library or a traced request
never entered one of the workload's layers.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import oracle  # noqa: E402
from pace import REFERENCE_S, pace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: A request slower than this counts as failed (it would have timed out).
REQUEST_TIMEOUT_S = 60.0


def save_sets(path, sets: list) -> None:
    """Store ``[(X, reference), ...]`` for :func:`load_sets`."""
    arrays = {}
    for k, (X, ref) in enumerate(sets):
        arrays[f"X{k}"] = X
        arrays.update({f"s{k}_{key}": value for key, value in ref.items()})
    np.savez(path, **arrays)


def load_sets(path) -> list:
    with np.load(path) as data:
        return [
            (data[f"X{k}"], {key.split("_", 1)[1]: data[key]
                             for key in data.files if key.startswith(f"s{k}_")})
            for k in range(sum(key.startswith("X") for key in data.files))
        ]


def at_reference_pace(wall: float, before: float, after: float) -> float:
    """``wall`` scaled to the reference host's speed by the paces around it."""
    return wall * REFERENCE_S * 2 / (before + after)


def serve(workload, repro, sets, seconds, tracer=None, request=None, first=0) -> dict:
    """Closed loop: each request is sent when the previous one returns.

    Request ``i`` clusters point set ``(first + i) % len(sets)``; ``sets`` holds
    ``(X, reference)`` pairs.  Every request gets a fresh ``repro.Device``
    and builds its own index.  The host's pace is timed before every
    request and after the last; ``paced_walls`` are the untraced ``walls``
    at reference pace.
    A request that raises, runs past :data:`REQUEST_TIMEOUT_S` or fails
    the oracle counts as failed.  ``request`` replaces the workload's
    request function (the self-test uses it to inject wrong labels).
    """
    request = request or workload.request
    walls, traced_walls, paced_walls = [], [], []
    paces = [pace()]
    attempted = failed = peak_device = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(traced_walls) < len(walls)
        X, ref = sets[(first + attempted) % len(sets)]
        device = repro.Device()
        undo = layers.install(tracer) if traced else None
        ok = False
        t0 = time.perf_counter()
        try:
            with tracer.request(device) if traced else nullcontext():
                results = request(repro, X, device)
            wall = time.perf_counter() - t0
            ok = wall <= REQUEST_TIMEOUT_S and oracle.check(workload, ref, results)
        except Exception:
            wall = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
        finally:
            if undo is not None:
                undo()
        attempted += 1
        failed += not ok
        paces.append(pace())
        if not traced:
            paced_walls.append(at_reference_pace(wall, paces[-2], paces[-1]))
        (traced_walls if traced else walls).append(wall)
        peak_device = max(peak_device, device.memory.peak_bytes)
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or len(traced_walls) >= 2):
            break
    return {
        "walls": walls,
        "traced_walls": traced_walls,
        "paced_walls": paced_walls,
        "paces": paces,
        "attempted": attempted,
        "failed": failed,
        "peak_device_bytes": peak_device,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--data", required=True, help=".npz written by save_sets")
    ap.add_argument("--src", required=True, help="directory holding the repro package")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", help="file for the traced spans (JSON lines)")
    ap.add_argument("--first-set", type=int, default=0, help="point set of the first request")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    sets = load_sets(args.data)
    X, ref = sets[args.first_set % len(sets)]
    sys.path.insert(0, args.src)

    pace()  # the first call also pays for first-touch allocations
    before = pace()
    t0 = time.perf_counter()
    import repro

    device = repro.Device()
    results = workload.request(repro, X, device)
    setup_s = time.perf_counter() - t0
    setup_ok = oracle.check(workload, ref, results)
    out = {"setup_s": setup_s, "setup_ok": setup_ok,
           "paced_setup_s": at_reference_pace(setup_s, before, pace())}
    tracer = layers.Tracer() if args.trace else None
    out.update(serve(workload, repro, sets, args.seconds, tracer, first=args.first_set + 1))
    if tracer is not None:
        missing = sorted(
            {layer for r in tracer.requests for layer in layers.absent(r, workload.layers)}
        )
        if missing:
            print(f"perfbench: traced requests never entered layers: {', '.join(missing)}",
                  file=sys.stderr)
            return 1
        k = workload.min_cluster_size
        out["layers"] = [layers.request_metrics(r, workload.n, k) for r in tracer.requests]
        if args.spans_out:
            tracer.dump(args.spans_out)
    out["peak_rss_bytes"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
