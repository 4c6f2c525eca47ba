"""Fitted per-kernel cost models: seconds ~ work counters, closed form.

The cost-model *report* (:mod:`repro.obs.costmodel`) joins each kernel's
wall seconds with its machine-independent counters so a human can check
that a speedup came from doing less work.  This module closes the loop
mechanically: it **fits** a deterministic linear model

    ``seconds  ≈  Σ_f coef[f] · counters[f]  +  per_launch · launches``

per kernel, from any set of cost-model row sources — a live
:meth:`~repro.device.device.Device.profile`, the per-cell ``kernels``
profiles of a ``BENCH_sweep.json`` history, or a service run — and turns
the fit into two operational artifacts:

- a :meth:`FittedCostModel.predict` API (counters in, seconds out) the
  service's admission controller uses instead of hand-set per-point
  constants (see ``docs/service.md``), and
- a :meth:`FittedCostModel.drift` check that flags kernels whose
  *observed* seconds-per-work rate deviates from the fitted rate beyond
  a tolerance — the perf-regression telemetry the bench smoke gate
  otherwise approximates with ratio thresholds on raw wall seconds.

Everything is closed-form least squares (normal equations via
``numpy.linalg.lstsq``) with **non-negativity clipping**: a feature whose
fitted coefficient comes out negative is dropped and the remaining
features are refit, so every retained coefficient is a physically
meaningful nonnegative rate (seconds per distance evaluation cannot be
negative).  After clipping, coefficients are **calibrated** — scaled so
the fit's total predicted seconds equal the sources' total observed
seconds per kernel.  Prediction is linear, so calibration guarantees
``drift()`` over the exact source profile reports ratio 1.0 for every
fitted kernel: a committed ``COSTMODEL.json`` is self-consistent with
the committed baseline it was fitted from, by construction, and the CI
drift gate is a *staleness* check, not a tautology.

The serialized artifact (``COSTMODEL.json``) is fully deterministic:
the same sources produce byte-identical files (sorted keys, no
timestamps, the fingerprint is a content hash of the source rows).

``python -m repro.obs.fit`` exposes the same machinery on the command
line::

    python -m repro.obs.fit fit BENCH_sweep.json -o COSTMODEL.json
    python -m repro.obs.fit validate COSTMODEL.json
    python -m repro.obs.fit drift COSTMODEL.json BENCH_sweep.json
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

#: Counters the fit regresses seconds against, in canonical order.
#: ``launches`` is always appended as the per-launch intercept column.
FIT_FEATURES = (
    "distance_evals",
    "nodes_visited",
    "pairs_processed",
    "bytes_scanned",
    "scatter_adds",
)

#: Default relative drift tolerance: a kernel alarms when its observed
#: seconds leave ``[predicted / (1 + tol), predicted * (1 + tol)]``.
DEFAULT_TOLERANCE = 0.5

#: Artifact schema version (bumped on any incompatible field change).
SCHEMA_VERSION = 1

#: Pooled-fit pseudo-kernel name (the fallback for unseen kernels and
#: the model behind per-request cost prediction).
COMBINED_KEY = "*"

#: Service ops whose per-point rates are fitted separately when the
#: sources carry kernels attributable to them (see :func:`op_for_kernel`).
#: ``cluster`` always pools every kernel — a cluster request runs the
#: full pipeline, so the pooled rates *are* its rates.
PER_POINT_OPS = ("cluster", "count", "knn")


def op_for_kernel(name: str) -> str | None:
    """Attribute a kernel to the service op whose requests launch it.

    ``knn`` wins over ``count`` (a kernel naming both belongs to the knn
    pipeline, not to a plain neighbour count); kernels matching neither
    contribute only to the pooled ``cluster`` rates.
    """
    low = name.lower()
    if "knn" in low:
        return "knn"
    if "count" in low:
        return "count"
    return None


# -- source rows ---------------------------------------------------------------


def fit_rows(profiles) -> list[dict]:
    """Flatten profile sources into fit rows.

    ``profiles`` is an iterable of :meth:`Device.profile`-shaped dicts
    (one per source — a device, a benchmark cell, a service run).  Each
    (source, kernel) pair becomes one row ``{"kernel", "seconds",
    "launches", <FIT_FEATURES...>}``.  Replayed launches are *included*:
    their seconds are recorded real durations (see
    ``Device.profile``'s ``replayed_seconds``), so they are valid
    observations of the kernel's rate.
    """
    rows = []
    for profile in profiles:
        for name in sorted(profile):
            entry = profile[name]
            counters = entry.get("counters") or {}
            row = {
                "kernel": name,
                "seconds": float(entry.get("seconds", 0.0)),
                "launches": float(entry.get("launches", 0)),
            }
            for feature in FIT_FEATURES:
                row[feature] = float(counters.get(feature, 0))
            rows.append(row)
    return rows


def rows_fingerprint(rows: list[dict]) -> str:
    """Content hash of the source rows (path- and order-independent up to
    the canonical sort)."""
    canonical = sorted(
        rows, key=lambda r: (r["kernel"], r["seconds"], r["launches"])
    )
    blob = json.dumps(canonical, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# -- the fit -------------------------------------------------------------------


def _lstsq_nonneg(A: np.ndarray, y: np.ndarray, names: list[str]) -> dict:
    """Least squares with iterative non-negativity clipping.

    Solves ``A x ≈ y``, then repeatedly drops the most negative
    coefficient's column and refits until every retained coefficient is
    nonnegative.  Returns ``{name: coef}`` with dropped names at 0.0.
    Deterministic: the column drop order is a pure function of the data.
    """
    active = list(range(A.shape[1]))
    coef = {name: 0.0 for name in names}
    while active:
        sub = A[:, active]
        x, *_ = np.linalg.lstsq(sub, y, rcond=None)
        worst_i, worst_v = -1, -1e-15
        for i, v in zip(active, x):
            if v < worst_v:
                worst_i, worst_v = i, v
        if worst_i < 0:
            for i, v in zip(active, x):
                coef[names[i]] = float(max(v, 0.0))
            break
        active.remove(worst_i)
    return coef


def _fit_kernel(rows: list[dict]) -> dict:
    """Fit one kernel's rows; returns the serializable fit entry."""
    names = list(FIT_FEATURES) + ["launches"]
    A = np.array([[r[n] for n in names] for r in rows], dtype=np.float64)
    y = np.array([r["seconds"] for r in rows], dtype=np.float64)
    seconds_total = float(y.sum())
    coef = _lstsq_nonneg(A, y, names)
    vec = np.array([coef[n] for n in names], dtype=np.float64)
    pred = A @ vec
    predicted_total = float(pred.sum())
    # Calibrate so the pooled prediction equals the pooled observation:
    # prediction is linear, so drift() over the exact source aggregate
    # then reports ratio 1.0 by construction.
    if predicted_total > 0.0:
        scale = seconds_total / predicted_total
        coef = {n: v * scale for n, v in coef.items()}
        vec = vec * scale
        pred = A @ vec
    elif seconds_total > 0.0 and float(A[:, -1].sum()) > 0.0:
        # Degenerate design (all counters zero): fall back to the mean
        # seconds-per-launch rate, which calibrates exactly.
        coef = {n: 0.0 for n in names}
        coef["launches"] = seconds_total / float(A[:, -1].sum())
        vec = np.array([coef[n] for n in names], dtype=np.float64)
        pred = A @ vec
    residuals = y - pred
    ss_res = float(residuals @ residuals)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot > 0.0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res <= 1e-24 else 0.0
    return {
        "coef": {f: coef[f] for f in FIT_FEATURES},
        "per_launch": coef["launches"],
        "r2": r2,
        "residual_rms": float(np.sqrt(ss_res / len(rows))),
        "rows": len(rows),
        "seconds_total": seconds_total,
    }


@dataclass
class FittedCostModel:
    """A fitted, serializable per-kernel cost model (see module docs).

    ``kernels`` maps kernel name to its fit entry (``coef`` per feature,
    ``per_launch`` intercept, ``r2``, ``residual_rms``, ``rows``,
    ``seconds_total``); ``combined`` is the pooled fit over every row
    (the fallback for kernels absent from the fit, and the model behind
    :meth:`cost_for_points`); ``per_point`` holds mean per-point counter
    rates when the sources carried point counts (benchmark records);
    ``unfitted`` lists kernels seen in the sources but skipped because
    they recorded no wall time.
    """

    kernels: dict = field(default_factory=dict)
    combined: dict | None = None
    per_point: dict = field(default_factory=dict)
    #: Per-op mean per-point rates (``{op: {feature: rate}}`` for the ops
    #: of :data:`PER_POINT_OPS` whose kernels appeared in the sources).
    #: ``cluster`` equals the pooled ``per_point`` rates; ``count``/``knn``
    #: carry only their own kernels' work, so admission prices those ops
    #: from what they actually launch instead of a hand-set fraction of a
    #: full clustering.
    per_point_ops: dict = field(default_factory=dict)
    unfitted: list = field(default_factory=list)
    source_fingerprint: str = ""
    fit_seed: int = 0
    tolerance: float = DEFAULT_TOLERANCE
    version: int = SCHEMA_VERSION

    # -- prediction ------------------------------------------------------------

    def predict(
        self, counters: dict, kernel: str | None = None, launches: float = 1.0
    ) -> float:
        """Predicted wall seconds for one kernel aggregate.

        Uses ``kernel``'s own fit when available, else the pooled
        ``combined`` fit; returns 0.0 when neither exists.
        """
        entry = self.kernels.get(kernel) if kernel is not None else None
        if entry is None:
            entry = self.combined
        if entry is None:
            return 0.0
        total = entry["per_launch"] * float(launches)
        for feature, coef in entry["coef"].items():
            total += coef * float(counters.get(feature, 0))
        return total

    def predict_profile(self, profile: dict) -> dict:
        """``{kernel: (observed_seconds, predicted_seconds)}`` over a
        :meth:`Device.profile`-shaped dict (fitted kernels only)."""
        out = {}
        for name, entry in profile.items():
            if name not in self.kernels:
                continue
            out[name] = (
                float(entry.get("seconds", 0.0)),
                self.predict(
                    entry.get("counters") or {},
                    kernel=name,
                    launches=entry.get("launches", 0),
                ),
            )
        return out

    def cost_for_points(
        self, n: int, scale: float = 1.0, op: str | None = None
    ) -> float | None:
        """Predicted seconds for a request over ``n`` points.

        Predicts the request's counters from fitted mean per-point rates
        and prices them with the pooled ``combined`` fit.  When ``op``
        names an op with its own fitted rates (``per_point_ops``), those
        are used directly — they already carry the op's true work, so
        ``scale`` is ignored.  Otherwise the pooled ``per_point`` rates
        are scaled by ``scale`` (the caller's hand-set relative op
        weight).  Returns ``None`` when the model carries no applicable
        rates — callers fall back to their hand-set constants.
        """
        rates = self.per_point_ops.get(op) if op is not None else None
        if rates:
            scale = 1.0
        else:
            rates = self.per_point
        if not rates or self.combined is None:
            return None
        n = max(0, int(n))
        counters = {f: rates.get(f, 0.0) * n * scale for f in FIT_FEATURES}
        launches = rates.get("launches", 0.0) * n * scale
        return self.predict(counters, kernel=None, launches=launches)

    # -- drift -----------------------------------------------------------------

    def drift(self, profile: dict, tolerance: float | None = None) -> dict:
        """Flag kernels whose observed rate left the fitted band.

        For every kernel of ``profile`` with nonzero wall seconds and a
        fit, the observed/predicted seconds ratio must stay within
        ``[1 / (1 + tol), 1 + tol]``.  Kernels present in the profile
        but absent from the fit are reported under ``"unfitted"`` (new
        code paths are surfaced, never silently priced); zero-wall
        kernels are skipped entirely (no rate to check).

        Returns ``{"tolerance", "alarms", "checked", "unfitted"}`` where
        each ``alarms``/``checked`` entry carries ``kernel``,
        ``observed``, ``predicted`` and ``ratio``.
        """
        tol = self.tolerance if tolerance is None else float(tolerance)
        if tol <= 0:
            raise ValueError(f"drift tolerance must be > 0; got {tol}")
        alarms, checked, unfitted = [], [], []
        for name in sorted(profile):
            entry = profile[name]
            observed = float(entry.get("seconds", 0.0))
            if observed <= 0.0:
                continue
            if name not in self.kernels:
                unfitted.append(name)
                continue
            predicted = self.predict(
                entry.get("counters") or {},
                kernel=name,
                launches=entry.get("launches", 0),
            )
            ratio = observed / predicted if predicted > 0 else float("inf")
            row = {
                "kernel": name,
                "observed": observed,
                "predicted": predicted,
                "ratio": ratio,
            }
            checked.append(row)
            if ratio > 1.0 + tol or ratio < 1.0 / (1.0 + tol):
                alarms.append(row)
        return {
            "tolerance": tol,
            "alarms": alarms,
            "checked": checked,
            "unfitted": unfitted,
        }

    # -- serialization ---------------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "version": self.version,
            "fit_seed": self.fit_seed,
            "tolerance": self.tolerance,
            "source_fingerprint": self.source_fingerprint,
            "features": list(FIT_FEATURES),
            "kernels": {k: dict(v) for k, v in sorted(self.kernels.items())},
            "combined": dict(self.combined) if self.combined else None,
            "per_point": dict(self.per_point),
            "per_point_ops": {
                op: dict(v) for op, v in sorted(self.per_point_ops.items())
            },
            "unfitted": sorted(self.unfitted),
        }

    def to_json(self) -> str:
        """Deterministic serialization: same fit, same bytes."""
        return json.dumps(self.as_dict(), indent=1, sort_keys=True) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def from_dict(cls, payload: dict) -> "FittedCostModel":
        validate_costmodel(payload)
        return cls(
            kernels={k: dict(v) for k, v in payload["kernels"].items()},
            combined=dict(payload["combined"]) if payload.get("combined") else None,
            per_point=dict(payload.get("per_point") or {}),
            per_point_ops={
                op: dict(v)
                for op, v in (payload.get("per_point_ops") or {}).items()
            },
            unfitted=list(payload.get("unfitted") or []),
            source_fingerprint=payload.get("source_fingerprint", ""),
            fit_seed=int(payload.get("fit_seed", 0)),
            tolerance=float(payload.get("tolerance", DEFAULT_TOLERANCE)),
            version=int(payload["version"]),
        )

    @classmethod
    def load(cls, path: str) -> "FittedCostModel":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def validate_costmodel(payload: dict) -> None:
    """Schema check for a ``COSTMODEL.json`` payload; raises ValueError."""
    if not isinstance(payload, dict):
        raise ValueError("cost model artifact must be a JSON object")
    version = payload.get("version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported cost model version {version!r} "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    for key in ("kernels", "tolerance", "source_fingerprint", "features"):
        if key not in payload:
            raise ValueError(f"cost model artifact missing {key!r}")
    if float(payload["tolerance"]) <= 0:
        raise ValueError(f"tolerance must be > 0; got {payload['tolerance']!r}")
    if not isinstance(payload["kernels"], dict):
        raise ValueError("'kernels' must be an object")
    entries = dict(payload["kernels"])
    if payload.get("combined"):
        entries[COMBINED_KEY] = payload["combined"]
    for name, entry in entries.items():
        for key in ("coef", "per_launch", "r2", "residual_rms", "rows",
                    "seconds_total"):
            if key not in entry:
                raise ValueError(f"kernel fit {name!r} missing {key!r}")
        for feature, value in entry["coef"].items():
            if float(value) < 0:
                raise ValueError(
                    f"kernel fit {name!r} has negative coefficient "
                    f"{feature}={value} (the fit clips these)"
                )


# -- entry points --------------------------------------------------------------


def fit_cost_model(
    profiles,
    per_point: dict | None = None,
    per_point_ops: dict | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    seed: int = 0,
) -> FittedCostModel:
    """Fit a model from profile sources (see :func:`fit_rows`).

    ``per_point`` optionally supplies mean per-point counter rates
    (``{feature_or_'launches'_or_'seconds': value_per_point}``) when the
    caller knows the sources' point counts — :func:`fit_from_records`
    derives them (and the per-op ``per_point_ops`` split) from benchmark
    records automatically.
    """
    rows = fit_rows(profiles)
    by_kernel: dict[str, list[dict]] = {}
    for row in rows:
        by_kernel.setdefault(row["kernel"], []).append(row)
    kernels, unfitted = {}, []
    for name in sorted(by_kernel):
        krows = by_kernel[name]
        if sum(r["seconds"] for r in krows) <= 0.0:
            unfitted.append(name)
            continue
        kernels[name] = _fit_kernel(krows)
    fit_pool = [r for r in rows if r["kernel"] not in unfitted]
    combined = _fit_kernel(fit_pool) if fit_pool else None
    return FittedCostModel(
        kernels=kernels,
        combined=combined,
        per_point=dict(per_point or {}),
        per_point_ops={
            op: dict(v) for op, v in (per_point_ops or {}).items()
        },
        unfitted=unfitted,
        source_fingerprint=rows_fingerprint(rows),
        fit_seed=int(seed),
        tolerance=float(tolerance),
    )


def fit_from_records(
    records, tolerance: float = DEFAULT_TOLERANCE, seed: int = 0
) -> FittedCostModel:
    """Fit from benchmark :class:`~repro.bench.harness.RunRecord` cells.

    Every ``"ok"`` cell with a kernel profile is one source; per-point
    counter rates are derived from the cells' pooled counters and point
    counts, which is what lets the service predict a *request's*
    counters from its size (:meth:`FittedCostModel.cost_for_points`).
    Kernels attributable to a specific service op (:func:`op_for_kernel`)
    additionally feed that op's own per-point rates, so ``count``/``knn``
    admission pricing reflects those ops' actual work.
    """
    profiles, total_n = [], 0
    zero = dict.fromkeys((*FIT_FEATURES, "launches", "seconds"), 0.0)
    totals = dict(zero)
    op_totals = {op: dict(zero) for op in PER_POINT_OPS}
    for rec in records:
        if rec.status != "ok" or not rec.kernels:
            continue
        profiles.append(rec.kernels)
        total_n += max(0, int(rec.n))
        for name, entry in rec.kernels.items():
            counters = entry.get("counters") or {}
            op = op_for_kernel(name)
            sinks = [totals, op_totals["cluster"]]
            if op is not None:
                sinks.append(op_totals[op])
            for sink in sinks:
                for f in FIT_FEATURES:
                    sink[f] += float(counters.get(f, 0))
                sink["launches"] += float(entry.get("launches", 0))
                sink["seconds"] += float(entry.get("seconds", 0.0))
    per_point = (
        {k: v / total_n for k, v in totals.items()} if total_n > 0 else {}
    )
    per_point_ops = {}
    if total_n > 0:
        for op, sums in op_totals.items():
            if any(sums[k] > 0 for k in (*FIT_FEATURES, "launches")):
                per_point_ops[op] = {k: v / total_n for k, v in sums.items()}
    return fit_cost_model(
        profiles,
        per_point=per_point,
        per_point_ops=per_point_ops,
        tolerance=tolerance,
        seed=seed,
    )


def fit_from_history(
    path: str, tolerance: float = DEFAULT_TOLERANCE, seed: int = 0
) -> FittedCostModel:
    """Fit from a ``BENCH_sweep.json`` history file (``--save`` output)."""
    from repro.bench.history import load_records

    records, _meta = load_records(path)
    return fit_from_records(records, tolerance=tolerance, seed=seed)


def format_fit_summary(model: FittedCostModel, title: str = "-- fitted cost model --") -> str:
    """One-line-per-kernel fit digest (r2, rows, dominant coefficient)."""
    lines = [title] if title else []
    lines.append(
        f"fingerprint {model.source_fingerprint[:12]}  "
        f"tolerance {model.tolerance:g}  kernels {len(model.kernels)}"
        + (f"  unfitted {len(model.unfitted)}" if model.unfitted else "")
    )
    for name, entry in sorted(model.kernels.items()):
        top = max(
            entry["coef"].items(), key=lambda kv: kv[1], default=(None, 0.0)
        )
        top_text = (
            f"{top[0]}={top[1]:.3g}s" if top[0] and top[1] > 0
            else f"per_launch={entry['per_launch']:.3g}s"
        )
        lines.append(
            f"  {name:>24}  rows={entry['rows']:<3d} r2={entry['r2']:+.3f}  "
            f"{top_text}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.obs.fit`` — fit / validate / drift on files."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(prog="repro.obs.fit")
    sub = parser.add_subparsers(dest="command", required=True)
    fit_p = sub.add_parser("fit", help="fit COSTMODEL.json from a bench history")
    fit_p.add_argument("history", help="BENCH_sweep.json written by bench --save")
    fit_p.add_argument("-o", "--out", default="COSTMODEL.json")
    fit_p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    val_p = sub.add_parser("validate", help="schema-check an artifact")
    val_p.add_argument("artifact")
    drift_p = sub.add_parser("drift", help="drift-check an artifact vs a history")
    drift_p.add_argument("artifact")
    drift_p.add_argument("history")
    drift_p.add_argument("--tolerance", type=float, default=None)
    args = parser.parse_args(argv)

    if args.command == "fit":
        model = fit_from_history(args.history, tolerance=args.tolerance)
        model.save(args.out)
        print(format_fit_summary(model, title=f"-- fitted cost model -> {args.out} --"))
        report = _history_drift(model, args.history)
        if report["alarms"]:
            for row in report["alarms"]:
                print(f"  self-drift alarm: {_drift_line(row)}", file=sys.stderr)
            return 1
        return 0
    if args.command == "validate":
        try:
            FittedCostModel.load(args.artifact)
        except (ValueError, OSError, KeyError) as exc:
            print(f"{args.artifact}: INVALID — {exc}", file=sys.stderr)
            return 1
        print(f"{args.artifact}: ok")
        return 0
    # drift
    model = FittedCostModel.load(args.artifact)
    report = _history_drift(model, args.history, tolerance=args.tolerance)
    for row in report["checked"]:
        print(f"  {_drift_line(row)}")
    for name in report["unfitted"]:
        print(f"  unfitted: {name}")
    if report["alarms"]:
        for row in report["alarms"]:
            print(f"  DRIFT: {_drift_line(row)}", file=sys.stderr)
        return 1
    print(f"  ok: no drift past tolerance {report['tolerance']:g}")
    return 0


def _history_drift(model: FittedCostModel, path: str, tolerance=None) -> dict:
    from repro.bench.history import load_records
    from repro.bench.report import merge_kernel_profiles

    records, _ = load_records(path)
    profile = merge_kernel_profiles([r for r in records if r.status == "ok"])
    return model.drift(profile, tolerance=tolerance)


def _drift_line(row: dict) -> str:
    return (
        f"{row['kernel']}: observed {row['observed']:.4g}s vs predicted "
        f"{row['predicted']:.4g}s (ratio {row['ratio']:.3f})"
    )


if __name__ == "__main__":  # pragma: no cover - thin wrapper
    import sys

    sys.exit(main())
