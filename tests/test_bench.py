"""Tests for the bench harness and the batched-service differential."""

import copy
import os

import pytest

from repro import TigerSystem, small_config
from repro.bench.harness import (
    BENCH_FORMAT,
    PROTOCOL_COUNTERS,
    BenchError,
    diff_results,
    load_result,
    protocol_counters,
    result_filename,
    run_workload,
    summary_lines,
    write_result,
)
from repro.workloads.generator import ContinuousWorkload


@pytest.fixture(scope="module")
def kernel_result():
    """One quick kernel run shared by the shape/gate tests below."""
    return run_workload("kernel", seed=0, quick=True, with_memory=False)


class TestRunWorkload:
    def test_result_shape(self, kernel_result):
        result = kernel_result
        assert result["bench_format"] == BENCH_FORMAT
        assert result["name"] == "kernel"
        assert result["mode"] == "quick"
        assert result["seed"] == 0
        assert set(result["counters"]) == set(PROTOCOL_COUNTERS)
        perf = result["perf"]
        assert perf["events"] > 0
        assert perf["events_per_sec"] > 0
        assert perf["sim_seconds"] == pytest.approx(30.0)
        assert perf["sim_per_wall"] > 0

    def test_idle_kernel_serves_no_blocks(self, kernel_result):
        # Zero viewers: the protocol counters must all stay at zero.
        assert all(value == 0 for value in kernel_result["counters"].values())

    def test_unknown_workload_rejected(self):
        with pytest.raises(BenchError):
            run_workload("nope")

    def test_summary_lines_render(self, kernel_result):
        lines = summary_lines(kernel_result)
        assert lines and "kernel" in lines[0]


class TestLiveTier:
    @pytest.fixture(scope="class")
    def live_result(self):
        """Quick mode: the codec microbench only, no real cluster."""
        return run_workload("live", seed=0, quick=True)

    def test_result_shape(self, live_result):
        assert live_result["name"] == "live"
        assert live_result["mode"] == "quick"
        counters = live_result["counters"]
        assert set(counters) == {
            "live.codec_messages",
            "live.codec_bytes_binary",
        }
        # The gated counters are pure functions of the seed.
        again = run_workload("live", seed=0, quick=True)
        assert again["counters"] == counters
        assert live_result["perf"]["events_per_sec"] > 0

    def test_quick_mode_skips_the_real_cluster(self, live_result):
        assert "cluster" not in live_result

    def test_summary_lines_render(self, live_result):
        lines = summary_lines(live_result)
        text = "\n".join(lines)
        assert "live" in lines[0]
        assert "binary" in text


class TestMbrTier:
    BASELINE = os.path.join(
        os.path.dirname(__file__), "..", "benchmarks", "baselines",
        result_filename("mbr"),
    )

    @pytest.fixture(scope="class")
    def mbr_result(self):
        """Full mode: the committed baseline's run, about a second."""
        return run_workload("mbr", seed=0)

    def test_decisions_match_the_committed_baseline(self, mbr_result):
        assert diff_results(mbr_result, load_result(self.BASELINE)) == []

    def test_both_resources_refuse_some_admits(self, mbr_result):
        counters = mbr_result["counters"]
        assert counters["mbr.rejected_network"] > 0
        assert counters["mbr.rejected_disk"] > 0
        assert counters["mbr.accepted"] + counters["mbr.rejected_network"] + (
            counters["mbr.rejected_disk"]
        ) == counters["mbr.admits"]

    def test_admits_per_second_is_not_gated(self, mbr_result):
        slow = copy.deepcopy(mbr_result)
        slow["perf"]["admits_per_sec"] /= 100
        slow["perf"]["ops_per_sec"] /= 100
        assert "events_per_sec" not in slow["perf"]
        assert diff_results(slow, mbr_result) == []

    def test_summary_lines_render(self, mbr_result):
        lines = summary_lines(mbr_result)
        assert "ops/s" in lines[0]
        assert "admits/s" in "\n".join(lines)


class TestPersistence:
    def test_write_load_roundtrip(self, kernel_result, tmp_path):
        path = write_result(kernel_result, str(tmp_path))
        assert path.endswith(result_filename("kernel"))
        assert load_result(path) == kernel_result

    def test_wrong_format_rejected(self, kernel_result, tmp_path):
        stale = copy.deepcopy(kernel_result)
        stale["bench_format"] = BENCH_FORMAT + 1
        stale["name"] = "kernel"
        path = write_result(stale, str(tmp_path))
        with pytest.raises(BenchError):
            load_result(path)


class TestBaselineGate:
    def test_identical_results_pass(self, kernel_result):
        assert diff_results(kernel_result, kernel_result) == []

    def test_counter_drift_fails_exactly(self, kernel_result):
        baseline = copy.deepcopy(kernel_result)
        baseline["counters"]["cub.blocks_sent"] += 1
        problems = diff_results(kernel_result, baseline)
        assert any("cub.blocks_sent" in problem for problem in problems)

    def test_perf_regression_beyond_tolerance_fails(self, kernel_result):
        baseline = copy.deepcopy(kernel_result)
        baseline["perf"]["events_per_sec"] = (
            kernel_result["perf"]["events_per_sec"] * 2.0
        )
        problems = diff_results(kernel_result, baseline, perf_tolerance=0.10)
        assert any("regressed" in problem for problem in problems)

    def test_perf_check_disabled_by_zero_tolerance(self, kernel_result):
        baseline = copy.deepcopy(kernel_result)
        baseline["perf"]["events_per_sec"] = (
            kernel_result["perf"]["events_per_sec"] * 2.0
        )
        assert diff_results(kernel_result, baseline, perf_tolerance=0.0) == []

    def test_mismatched_mode_not_comparable(self, kernel_result):
        baseline = copy.deepcopy(kernel_result)
        baseline["mode"] = "full"
        problems = diff_results(kernel_result, baseline)
        assert problems
        assert any("not comparable" in problem for problem in problems)


def _loaded_run(batched):
    """A small loaded system driven for 20 sim-seconds."""
    system = TigerSystem(small_config(), seed=5, batched_service=batched)
    system.add_standard_content(num_files=4, duration_s=60.0)
    workload = ContinuousWorkload(system)
    workload.add_streams(max(1, system.config.num_slots // 2))
    system.run_for(20.0)
    system.finalize_clients()
    system.export_metrics()
    return system


class TestBatchedServiceDifferential:
    """The batched per-slot-period service tick is an event-count
    optimization only: every protocol counter must match the legacy
    one-timer-per-viewer path exactly at the same config and seed."""

    def test_counters_identical_to_legacy_path(self):
        batched = _loaded_run(batched=True)
        legacy = _loaded_run(batched=False)
        batched_counters = protocol_counters(batched.registry)
        legacy_counters = protocol_counters(legacy.registry)
        assert batched_counters == legacy_counters
        # The run actually exercised the service path.
        assert batched_counters["cub.blocks_sent"] > 0
        assert batched_counters["cub.viewer_states_forwarded"] > 0
        # Batching exists to shrink the kernel event count, never to
        # grow it.
        assert batched.sim.events_dispatched <= legacy.sim.events_dispatched


class TestSweepPointIndependence:
    """Regression (sweep seeding): each sweep point must be a pure
    function of (cubs, seed) — independent of whatever ran earlier in
    the process.  TigerSystem rewinds the process-global message-id and
    play-instance-id sequences at construction, so a point measured
    alone matches the same point inside a full sweep, bit for bit."""

    def test_single_point_matches_point_inside_sweep(self):
        from repro.bench.harness import (
            _scale_build,
            _timed_system_run,
        )

        # The same point measured standalone...
        alone = _timed_system_run(_scale_build(8, 0, 10.0), profiler=None)
        # ...and inside the full quick sweep (after the cubs=4 point has
        # polluted any process-global state it was going to).
        sweep = run_workload("scale", seed=0, quick=True, with_memory=False)
        row = next(r for r in sweep["sweep"] if r["cubs"] == 8)
        assert row["counters"] == alone.counters
        assert row["perf"]["events"] == alone.events
        assert row["perf"]["sim_seconds"] == pytest.approx(
            alone.sim_seconds
        )

    def test_instance_ids_rewind_per_system(self):
        from repro.core.viewerstate import new_instance_id

        TigerSystem(small_config(), seed=0)
        first = new_instance_id()
        TigerSystem(small_config(), seed=0)
        second = new_instance_id()
        assert first == second == 1
