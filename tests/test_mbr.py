"""Tests for the multiple-bitrate subsystem (§3.2 extension)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.disk.drive import SimDisk
from repro.disk.model import DiskParameters
from repro.disk.zones import ZONE_OUTER
from repro.mbr.admission import LIMIT_DISK, LIMIT_NETWORK, MbrAdmission
from repro.mbr.diskqueue import EdfDiskQueue, edf_feasible, periodic_stream_feasible
from repro.mbr.system import MbrCubSimulation, run_mix_experiment
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry


class TestEdfFeasibility:
    def test_empty_is_feasible(self):
        assert edf_feasible([])

    def test_single_job(self):
        assert edf_feasible([(1.0, 2.0)])
        assert not edf_feasible([(3.0, 2.0)])

    def test_demand_accumulates(self):
        assert edf_feasible([(1.0, 1.0), (1.0, 2.0)])
        assert not edf_feasible([(1.0, 1.0), (1.1, 2.0)])

    def test_order_independent(self):
        jobs = [(0.5, 3.0), (1.0, 1.5), (0.4, 2.0)]
        assert edf_feasible(jobs) == edf_feasible(list(reversed(jobs)))

    def test_start_time_shifts_budget(self):
        assert edf_feasible([(1.0, 2.0)], start_time=0.0)
        assert not edf_feasible([(1.0, 2.0)], start_time=1.5)

    def test_negative_service_rejected(self):
        with pytest.raises(ValueError):
            edf_feasible([(-1.0, 2.0)])

    @given(
        st.lists(
            st.tuples(st.floats(0.001, 0.2), st.floats(0.1, 5.0)),
            max_size=25,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_feasible_sets_really_schedule(self, jobs):
        """If the demand test passes, serial EDF meets every deadline."""
        if not edf_feasible(jobs):
            return
        time = 0.0
        for service, deadline in sorted(jobs, key=lambda j: j[1]):
            time += service
            assert time <= deadline + 1e-9

    def test_periodic_feasibility(self):
        params = DiskParameters()
        assert periodic_stream_feasible(params, [250_000] * 5, ZONE_OUTER, 1.0)
        assert not periodic_stream_feasible(
            params, [250_000] * 20, ZONE_OUTER, 1.0
        )


class TestEdfDiskQueue:
    def build(self, sim, rngs):
        disk = SimDisk(sim, "d", DiskParameters(), rngs)
        return EdfDiskQueue(sim, disk)

    def test_serves_most_urgent_first(self, sim, rngs):
        queue = self.build(sim, rngs)
        order = []
        # Submit in reverse urgency while the disk is busy with a filler.
        queue.submit(250_000, ZONE_OUTER, 100.0, lambda t: order.append("filler"))
        queue.submit(250_000, ZONE_OUTER, 50.0, lambda t: order.append("late"))
        queue.submit(250_000, ZONE_OUTER, 10.0, lambda t: order.append("urgent"))
        sim.run()
        assert order == ["filler", "urgent", "late"]

    def test_miss_callback_on_late_completion(self, sim, rngs):
        queue = self.build(sim, rngs)
        outcomes = []
        queue.submit(
            250_000,
            ZONE_OUTER,
            deadline=0.001,  # impossible
            on_complete=lambda t: outcomes.append("ok"),
            on_miss=lambda t: outcomes.append("miss"),
        )
        sim.run()
        assert outcomes == ["miss"]
        assert queue.completed_late.count == 1

    def test_on_time_completion(self, sim, rngs):
        queue = self.build(sim, rngs)
        outcomes = []
        queue.submit(
            250_000, ZONE_OUTER, 10.0, lambda t: outcomes.append("ok")
        )
        sim.run()
        assert outcomes == ["ok"]
        assert queue.completed_on_time.count == 1

    def test_disk_failure_routes_to_miss(self, sim, rngs):
        disk = SimDisk(sim, "d", DiskParameters(), rngs)
        queue = EdfDiskQueue(sim, disk)
        disk.fail()
        outcomes = []
        queue.submit(
            250_000,
            ZONE_OUTER,
            10.0,
            lambda t: outcomes.append("ok"),
            on_miss=lambda t: outcomes.append("miss"),
        )
        sim.run()
        assert outcomes == ["miss"]

    def test_depth_tracks_queue(self, sim, rngs):
        queue = self.build(sim, rngs)
        for _ in range(3):
            queue.submit(250_000, ZONE_OUTER, 10.0, lambda t: None)
        assert queue.depth == 3
        sim.run()
        assert queue.depth == 0

    def test_invalid_size_rejected(self, sim, rngs):
        queue = self.build(sim, rngs)
        with pytest.raises(ValueError):
            queue.submit(0, ZONE_OUTER, 1.0, lambda t: None)


class TestMbrAdmission:
    def build(self, headroom=1.0):
        return MbrAdmission(
            disk_params=DiskParameters(),
            num_disks=4,
            nic_bps=100e6,
            block_play_time=1.0,
            schedule_length=1.0,
            start_quantum=0.25,
            disk_headroom=headroom,
        )

    def test_admits_until_a_resource_binds(self):
        admission = self.build()
        admitted = 0
        while admission.try_admit(f"v{admitted}", 2e6) is not None:
            admitted += 1
        assert admitted > 10
        rejected = admission.rejections
        assert rejected[LIMIT_DISK] + rejected[LIMIT_NETWORK] == 1

    def test_network_binds_for_large_blocks(self):
        admission = self.build()
        while admission.try_admit(
            f"v{len(admission.streams)}", 8e6
        ) is not None:
            pass
        assert admission.rejections[LIMIT_NETWORK] == 1
        assert admission.limiting_resource() == LIMIT_NETWORK

    def test_disk_binds_for_small_blocks(self):
        """Small blocks pay the same seek for less data (§3.2)."""
        admission = self.build()
        while admission.try_admit(
            f"v{len(admission.streams)}", 0.4e6
        ) is not None:
            pass
        assert admission.rejections[LIMIT_DISK] == 1
        assert admission.limiting_resource() == LIMIT_DISK

    def test_release_frees_both_resources(self):
        admission = self.build()
        admission.try_admit("a", 8e6)
        disk_before = admission.disk_time_committed()
        assert admission.release("a")
        assert admission.disk_time_committed() < disk_before
        assert admission.network.utilization() == 0.0
        assert not admission.release("a")

    def test_duplicate_viewer_rejected(self):
        admission = self.build()
        admission.try_admit("a", 2e6)
        with pytest.raises(ValueError):
            admission.try_admit("a", 2e6)

    def test_headroom_reserves_disk_budget(self):
        tight = self.build(headroom=0.5)
        loose = self.build(headroom=1.0)
        for admission in (tight, loose):
            while admission.try_admit(
                f"v{len(admission.streams)}", 0.4e6
            ) is not None:
                pass
        assert len(tight.streams) < len(loose.streams)

    def test_summary_fields(self):
        admission = self.build()
        admission.try_admit("a", 2e6)
        summary = admission.summary()
        assert summary["streams"] == 1.0
        assert 0 < summary["disk_utilization"] < 1


class TestMbrService:
    def test_feasible_mix_has_no_misses(self):
        row = run_mix_experiment([1e6, 2e6, 4e6], duration=15.0, seed=3)
        assert row["streams"] > 10
        assert row["miss_rate"] == 0.0

    def test_measured_utilization_tracks_model(self):
        row = run_mix_experiment([2e6], duration=20.0, seed=4)
        assert row["measured_disk_utilization"] == pytest.approx(
            row["disk_utilization_model"], abs=0.25
        )

    def test_crossover_with_rate(self):
        """The §3.2 claim: the binding resource depends on the mix."""
        small = run_mix_experiment([0.5e6], duration=5.0, nic_bps=100e6)
        large = run_mix_experiment([8e6], duration=5.0, nic_bps=100e6)
        assert small["limiting"] == 1.0  # disk
        assert large["limiting"] == 0.0  # network

    def test_overcommitted_disk_misses_deadlines(self):
        """Bypass admission: an infeasible set must actually miss."""
        sim = Simulator()
        rngs = RngRegistry(9)
        admission = MbrAdmission(
            disk_params=DiskParameters(),
            num_disks=1,
            nic_bps=1e9,
            block_play_time=1.0,
            schedule_length=1.0,
            disk_headroom=1.0,
        )
        # Force-fill beyond the disk budget by inserting directly.
        from repro.mbr.admission import AdmittedStream

        read_time = admission.disk_params.expected_read_time(
            ZONE_OUTER, 250_000
        )
        for index in range(25):  # 25 x ~61 ms >> 1 s of disk time
            entry = admission.network.insert(f"v{index}", 0.0, 1e4)
            admission.streams[f"v{index}"] = AdmittedStream(
                f"v{index}", 2e6, 250_000, 0.0, entry.entry_id, read_time
            )
        service = MbrCubSimulation(sim, admission, rngs)
        service.start()
        sim.run(until=15.0)
        assert service.miss_rate() > 0.1
