"""Steadiness runs: the benchmark on several seeds, summarised per metric.

Run from the root of a checkout::

    python3 perfbench/steady.py --seeds 1-10 --out perfbench/results/<name>.json

For each workload and end-to-end metric it reports the ten values, their
median and quartiles (``statistics.quantiles(values, n=4)``) and the
spread ``(q3 - q1) / median`` next to the metric's bound from
``BENCHMARK.json``.  A spread above a third of its bound is flagged.
Runs are sequential, so they never compete for the cores.

With ``--trace 1`` it runs traced and summarises the per-layer metrics
the same way (they have no bound).  Untraced runs also keep the median
request wall as measured, before scaling to reference pace (``pace.py``),
as ``request_s_p50_as_measured``.  ``--compare A.json B.json`` checks
that every end-to-end median of B is no worse than A's by more than the
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Host-line facts that describe one run rather than the host.
RUN_FACTS = ("seed", "workload", "requests", "workers", "seconds", "trace")
#: The median request wall before scaling to reference pace.
AS_MEASURED = "request_s_p50_as_measured"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    return {
        "values": values,
        "median": centre,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / centre if centre else 0.0,
    }


def compare(spec: dict, first: dict, second: dict) -> bool:
    """Print, per workload and metric, how far ``second``'s median moved."""
    ok = True
    for name, runs in second["workloads"].items():
        for metric in spec["end_to_end"]:
            a = first["workloads"][name]["metrics"][metric["name"]]["median"]
            b = runs["metrics"][metric["name"]]["median"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            fine = worse <= metric["bound"]
            ok &= fine
            print(f"{name:16s} {metric['name']:16s} {a:.5g} -> {b:.5g} "
                  f"worse by {worse:+.4f} (bound {metric['bound']}) {'ok' if fine else 'WORSE'}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", help="write the summary here as JSON")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        return 0 if compare(spec, first, second) else 1
    names = [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds, "trace": args.trace,
               "host": None, "workloads": {}}
    metrics = spec["per_layer"] if args.trace else [*spec["end_to_end"], {"name": AS_MEASURED}]
    for name in names:
        values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        failed = 0
        for seed in seeds:
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            facts = json.loads(lines[0].removeprefix("# host "))
            summary["host"] = {k: v for k, v in facts.items() if k not in RUN_FACTS}
            failed += result["failed"]
            for key in values:
                if key == AS_MEASURED:
                    line = next(l for l in lines if l.startswith("# request_s p50="))
                    values[key].append(float(line.split("=", 1)[1].split("s", 1)[0]))
                else:
                    values[key].append(result["metrics"][key]["value"])
            print(f"{name} seed={seed} {time.monotonic() - t0:.0f}s "
                  + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()
                             if not args.trace), flush=True)
        rows = {}
        for metric in metrics:
            row = rows[metric["name"]] = summarise(values[metric["name"]])
            verdict = ""
            if "bound" in metric:
                steady = row["spread"] < metric["bound"] / 3
                verdict = f"bound={metric['bound']} {'ok' if steady else 'WIDE'}"
            print(f"  {metric['name']:22s} median={row['median']:.5g} "
                  f"spread={row['spread']:.4f} {verdict}", flush=True)
        summary["workloads"][name] = {"failed": failed, "metrics": rows}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
