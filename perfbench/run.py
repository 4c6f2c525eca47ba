"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ngsim2d-fdbscan --seed 1 --seconds 20 --trace 0

It generates the workload's point sets from ``--seed``, computes their
reference clusterings (``oracle.py``), and runs ``worker.py`` processes
one after another, which send the requests in a closed loop for
``--seconds`` in total.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics and writes
the spans to ``.perfbench-traces/``.  Host facts and the latency summary go to the
lines before the last; the last line of standard output is the JSON
result.  Exits 2 without a result when ``src/repro`` is not present.

The time metrics are at reference pace: each request's wall is scaled by
the host's pace timed around it (``pace.py``), so a run's figure does not
depend on how fast the shared host happened to be while it ran.  The
walls as measured are printed on the ``# request_s`` line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

#: Worker processes per untraced run, each measuring ``seconds / WORKERS``.
#: Request times differ by up to ~20% between processes on one host while
#: staying steady inside each, so a run pools several; each worker's
#: set-up is one ``setup_s`` sample.
WORKERS = 3
#: Point sets per untraced run, drawn from the seed; requests cycle through
#: them, so a run's medians average over inputs as well as repeats.
#: Traced runs use one worker and the first set only, so their layer
#: counts repeat exactly.
POINT_SETS = 4
#: Every run, builds excluded, must end within this many seconds.
RUN_BUDGET_S = 170.0


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest(src: Path) -> str:
    """sha256 over the library's Python sources (identifies a non-git checkout)."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_facts(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": _nproc(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(root),
        "src_sha256": _source_digest(root / "src" / "repro"),
        "seed": seed,
    }


def _tail(walls: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n <= 10:
        return f"no percentile has 10 samples beyond it (n={n})"
    pct = int(100 * (n - 10) / n)
    value = statistics.quantiles(walls, n=100, method="inclusive")[pct - 1] if pct else min(walls)
    return f"p{pct}={value:.4f}s (n={n})"


def _worker(args: list[str], env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    timeout = max(deadline - time.monotonic(), 1.0)
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + RUN_BUDGET_S
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {root}; run from the repository root",
              file=sys.stderr)
        return 2

    import layers
    import oracle
    from pace import REFERENCE_S
    from worker import save_sets

    workload = WORKLOADS[args.workload]
    threads = str(_nproc())
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    sys.path.insert(0, str(src))  # the HDBSCAN reference runs repro's Prim MST
    sets = []
    for k in range(1 if args.trace else POINT_SETS):
        X = workload.points(args.seed, k)
        sets.append((X, oracle.reference(workload, X)))

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        data = tmp / "data.npz"
        save_sets(data, sets)
        common = ["--workload", workload.name, "--data", str(data), "--src", str(src),
                  "--trace", str(args.trace)]
        runs = []
        if args.trace:
            spans = root / ".perfbench-traces" / f"{workload.name}-seed{args.seed}.jsonl"
            spans.parent.mkdir(exist_ok=True)
            cmd = [*common, "--seconds", str(args.seconds), "--spans-out", str(spans)]
            runs.append(_worker(cmd, env, deadline))
        else:
            for w in range(WORKERS):
                cmd = [*common, "--seconds", str(args.seconds / WORKERS), "--first-set", str(w)]
                runs.append(_worker(cmd, env, deadline))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    walls = [w for run in runs for w in run["walls"]]
    paced = [w for run in runs for w in run["paced_walls"]]
    paces = [p for run in runs for p in run["paces"]]
    requests = sum(run["attempted"] for run in runs)
    # Set-up requests are checked too and count as attempted.
    attempted = requests + len(runs)
    failed = sum(run["failed"] + (not run["setup_ok"]) for run in runs)
    per_request = workload.n * workload.clusterings

    facts = host_facts(root, args.seed)
    facts.update(workload=workload.name, requests=requests, workers=len(runs),
                 seconds=args.seconds, trace=args.trace)
    print("# host " + json.dumps(facts))
    print(f"# request_s p50={statistics.median(walls):.4f}s, tail {_tail(walls)}, "
          f"samples: {' '.join(f'{w:.3f}' for w in walls)}")
    setups = " ".join(f"{run['setup_s']:.3f}" for run in runs)
    print(f"# at reference pace: request_s p50={statistics.median(paced):.4f}s, "
          f"tail {_tail(paced)}; pace p50={statistics.median(paces):.4f}s "
          f"(reference {REFERENCE_S}s); setup_s as measured: {setups}; "
          f"samples: {' '.join(f'{w:.3f}' for w in paced)}")
    print(f"# failed_frac={failed / attempted:.4f} ({failed} of {attempted})")

    if args.trace:
        run = runs[0]
        rows = run["layers"]
        metrics = {}
        for key in rows[0]:
            unit = layers.unit(key)
            # Counts repeat exactly; times are medians over the traced requests.
            pick = statistics.median if unit == "s" else statistics.median_low
            metrics[key] = _metric(pick(r[key] for r in rows), unit)
        counts_repeat = all(
            r[k] == rows[0][k] for r in rows for k in r if layers.unit(k) != "s"
        )
        print(f"# traced requests={len(rows)}, layer counts repeat: {counts_repeat}, "
              f"spans: {spans.relative_to(root)}")
        overhead = statistics.median(run["traced_walls"]) / statistics.median(walls) - 1
        metrics["trace.overhead_frac"] = _metric(overhead, layers.unit("trace.overhead_frac"))
    else:
        metrics = {
            "request_s_p50": _metric(statistics.median(paced), "s"),
            "points_per_s": _metric(per_request * len(paced) / sum(paced), "1/s"),
            "setup_s": _metric(statistics.median(run["paced_setup_s"] for run in runs), "s"),
            "peak_device_mb": _metric(max(r["peak_device_bytes"] for r in runs) / 1e6, "MB"),
            "peak_rss_mb": _metric(max(r["peak_rss_bytes"] for r in runs) / 1e6, "MB"),
            "ok_frac": _metric((attempted - failed) / attempted, "ratio"),
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
