"""Tests for the kernel-launch trace, profiling and cost replay."""

import time

import pytest

from repro.device.device import Device, ReplayableCost
from repro.device.memory import DeviceMemoryError


def _burn(dev, name="k", threads=10, steps=3, evals=7):
    with dev.kernel(name, threads=threads) as launch:
        launch.steps = steps
        dev.counters.add("distance_evals", evals)


class TestTraceRing:
    def test_spans_record_shape(self, device):
        _burn(device, name="alpha", threads=4, steps=2, evals=5)
        (span,) = device.trace_snapshot()
        assert span["name"] == "alpha"
        assert span["threads"] == 4
        assert span["steps"] == 2
        assert span["seconds"] >= 0
        assert span["t_start"] >= 0
        assert span["replayed"] is False
        assert span["counters"]["distance_evals"] == 5

    def test_spans_ordered_by_start(self, device):
        for name in ("a", "b", "c"):
            _burn(device, name=name)
        starts = [s["t_start"] for s in device.trace_snapshot()]
        assert starts == sorted(starts)

    def test_ring_bounded_and_drop_counted(self):
        dev = Device(trace_maxlen=3)
        for i in range(10):
            _burn(dev, name=f"k{i}")
        assert len(dev.launches) == 3
        assert dev.launches_total == 10
        assert dev.trace_dropped == 7
        # oldest evicted first: the ring holds the newest three
        assert [s["name"] for s in dev.trace_snapshot()] == ["k7", "k8", "k9"]

    def test_profile_exact_past_the_ring(self):
        dev = Device(trace_maxlen=16)
        for i in range(10_000):
            _burn(dev, name=f"k{i % 3}", steps=i % 5, evals=i % 7)
        assert dev.trace_dropped == 10_000 - 16
        prof = dev.profile()
        assert sum(e["launches"] for e in prof.values()) == dev.launches_total
        assert prof["k0"]["launches"] == 3334
        # Launch deltas exclude the launch's own kernel_launches tick (it
        # lands before the span's counter snapshot); every other counter
        # sums across kernels to the device total.
        totals = {}
        for entry in prof.values():
            for key, value in entry["counters"].items():
                totals[key] = totals.get(key, 0) + value
        expected = dict(dev.counters.snapshot())
        assert expected.pop("kernel_launches") == dev.launches_total
        assert {k: v for k, v in expected.items() if v} == {
            k: v for k, v in totals.items() if v
        }
        assert totals["distance_evals"] == sum(i % 7 for i in range(10_000))
        assert dev.phase_seconds() == {k: e["seconds"] for k, e in prof.items()}

    def test_profile_aggregates_by_name(self, device):
        _burn(device, name="a", threads=10, steps=1)
        _burn(device, name="a", threads=20, steps=2)
        _burn(device, name="b", threads=5, steps=4)
        prof = device.profile()
        assert prof["a"]["launches"] == 2
        assert prof["a"]["threads"] == 30
        assert prof["a"]["steps"] == 3
        assert prof["a"]["replayed"] == 0
        assert prof["b"]["launches"] == 1
        assert prof["a"]["seconds"] >= 0

    def test_profile_matches_phase_seconds(self, device):
        _burn(device, name="a")
        _burn(device, name="b")
        prof = device.profile()
        assert set(prof) == set(device.phase_seconds())
        for name, secs in device.phase_seconds().items():
            assert prof[name]["seconds"] == pytest.approx(secs)

    def test_wall_time_measured(self, device):
        with device.kernel("slow", threads=1):
            time.sleep(0.01)
        assert device.profile()["slow"]["seconds"] >= 0.009

    def test_reset_clears_trace(self, device):
        _burn(device)
        device.reset()
        assert len(device.launches) == 0
        assert device.launches_total == 0
        assert device.trace_dropped == 0
        assert device.profile() == {}

    def test_report_includes_profile(self, device):
        _burn(device, name="a")
        report = device.report()
        assert "a" in report["profile"]
        assert report["trace_dropped"] == 0


class TestSelfTime:
    """Inclusive vs exclusive time for nested kernel spans (the
    ``Device.profile`` docstring's contract: ``seconds`` double-counts
    nested wall time, ``self_seconds`` never does)."""

    def _nested(self, dev, outer_sleep=0.01, inner_sleep=0.01):
        with dev.kernel("outer", threads=1):
            time.sleep(outer_sleep)
            with dev.kernel("inner", threads=1):
                time.sleep(inner_sleep)

    def test_outer_self_time_excludes_inner(self, device):
        self._nested(device)
        prof = device.profile()
        outer, inner = prof["outer"], prof["inner"]
        # inclusive: the outer span contains the inner one
        assert outer["seconds"] >= inner["seconds"]
        # exclusive: outer self time subtracts the nested inner span
        assert outer["self_seconds"] == pytest.approx(
            outer["seconds"] - inner["seconds"], abs=1e-6
        )
        assert inner["self_seconds"] == pytest.approx(inner["seconds"])

    def test_self_seconds_sum_never_exceeds_wall(self, device):
        start = time.perf_counter()
        self._nested(device)
        wall = time.perf_counter() - start
        prof = device.profile()
        total_self = sum(row["self_seconds"] for row in prof.values())
        total_inclusive = sum(row["seconds"] for row in prof.values())
        assert total_self <= wall + 1e-3
        # the naive inclusive sum double-counts the nested sleep
        assert total_inclusive > total_self

    def test_flat_launches_self_equals_inclusive(self, device):
        _burn(device, name="a")
        _burn(device, name="b")
        for row in device.profile().values():
            assert row["self_seconds"] == pytest.approx(row["seconds"])

    def test_trace_snapshot_carries_self_seconds(self, device):
        self._nested(device)
        spans = {s["name"]: s for s in device.trace_snapshot()}
        assert spans["outer"]["self_seconds"] < spans["outer"]["seconds"]

    def test_deeper_nesting_subtracts_only_direct_children(self, device):
        with device.kernel("a", threads=1):
            time.sleep(0.004)
            with device.kernel("b", threads=1):
                time.sleep(0.004)
                with device.kernel("c", threads=1):
                    time.sleep(0.004)
        prof = device.profile()
        # b's self time subtracts c, a's subtracts b (which includes c)
        assert prof["a"]["self_seconds"] == pytest.approx(
            prof["a"]["seconds"] - prof["b"]["seconds"], abs=1e-6
        )
        assert prof["b"]["self_seconds"] == pytest.approx(
            prof["b"]["seconds"] - prof["c"]["seconds"], abs=1e-6
        )
        total_self = sum(r["self_seconds"] for r in prof.values())
        assert total_self <= prof["a"]["seconds"] + 1e-6


class TestNestedEviction:
    """Trace-ring eviction accounting when kernels nest: every finished
    launch counts toward ``launches_total`` exactly once, so
    ``trace_dropped`` stays exact under nesting."""

    def test_nested_launches_counted_once(self):
        dev = Device(trace_maxlen=4096)
        with dev.kernel("outer", threads=1):
            with dev.kernel("inner", threads=1):
                pass
        assert dev.launches_total == 2
        assert dev.trace_dropped == 0

    def test_eviction_under_nesting(self):
        dev = Device(trace_maxlen=2)
        for i in range(3):
            with dev.kernel(f"outer{i}", threads=1):
                with dev.kernel(f"inner{i}", threads=1):
                    pass
        assert dev.launches_total == 6
        assert len(dev.launches) == 2
        assert dev.trace_dropped == 4
        # the ring keeps the newest pair; the inner span finished first
        assert [s["name"] for s in dev.trace_snapshot()] == ["inner2", "outer2"]

    def test_chrome_export_of_truncated_device_has_marker(self):
        from repro.obs import chrome_trace, validate_chrome_trace

        dev = Device(trace_maxlen=2)
        for i in range(3):
            with dev.kernel(f"o{i}", threads=1):
                with dev.kernel(f"i{i}", threads=1):
                    pass
        payload = chrome_trace(dev)
        assert payload["metadata"]["dropped_spans"] == 4
        assert any(
            e["name"] == "trace_truncated" for e in payload["traceEvents"]
        )
        counts = validate_chrome_trace(payload)
        assert counts["dropped_spans"] == 4


class TestRecordingReplay:
    def _record_build(self, dev):
        with dev.recording() as cost:
            with dev.kernel("build", threads=100) as launch:
                launch.steps = 5
                dev.counters.add("distance_evals", 42)
                dev.counters.observe_peak("frontier_peak", 64)
            dev.memory.allocate(1000, "tree")
            dev.memory.allocate(500, "scratch", transient=True)
            dev.memory.free(500, "scratch")
        return cost

    def test_recording_captures_block(self, device):
        cost = self._record_build(device)
        assert isinstance(cost, ReplayableCost)
        assert cost.seconds > 0
        assert cost.counters["distance_evals"] == 42
        assert cost.counters["kernel_launches"] == 1
        assert [l.name for l in cost.launches] == ["build"]
        # only the *net* growth is recorded; the freed transient is not
        assert cost.mem_by_tag == {"tree": 1000}

    def test_replay_reaccounts_counters_and_memory(self, device):
        cost = self._record_build(device)
        other = Device(name="warm")
        other.replay(cost)
        snap = other.counters.snapshot()
        assert snap["distance_evals"] == 42
        assert snap["kernel_launches"] == 1
        assert other.memory.live_by_tag["tree"] == 1000

    def test_replay_flags_spans_and_keeps_seconds(self, device):
        cost = self._record_build(device)
        other = Device(name="warm")
        other.replay(cost)
        (span,) = other.trace_snapshot()
        assert span["replayed"] is True
        assert span["seconds"] == pytest.approx(cost.launches[0].seconds)
        assert other.profile()["build"]["replayed"] == 1

    def test_replay_merges_high_watermark(self, device):
        cost = self._record_build(device)
        other = Device(name="warm")
        other.counters.observe_peak("frontier_peak", 1000)
        other.replay(cost)
        # peak is merged, not summed: 1000 stays, 64 would not regress it
        assert other.counters.snapshot()["frontier_peak"] == 1000

    def test_replay_respects_memory_cap(self, device):
        cost = self._record_build(device)
        capped = Device(capacity_bytes=100)
        with pytest.raises(DeviceMemoryError):
            capped.replay(cost)
        # counters were applied before the failing allocation (cold-run order)
        assert capped.counters.snapshot()["distance_evals"] == 42

    def test_double_replay_double_counts(self, device):
        cost = self._record_build(device)
        other = Device()
        other.replay(cost)
        other.replay(cost)
        assert other.counters.snapshot()["distance_evals"] == 84
        assert other.profile()["build"]["launches"] == 2
