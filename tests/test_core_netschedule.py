"""Tests for the multi-bitrate network schedule (§3.2, §4.2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.netschedule import NetScheduleNode, NetworkSchedule
from repro.net.switch import SwitchedNetwork
from repro.sim.rng import RngRegistry

LENGTH = 14.0  # 14 cubs x 1 s block play time
CAPACITY = 10e6  # a 10 Mbit/s NIC for readable numbers
WIDTH = 1.0


@pytest.fixture
def schedule():
    return NetworkSchedule(LENGTH, CAPACITY, WIDTH)


class TestLoadGeometry:
    def test_empty_schedule_no_load(self, schedule):
        assert schedule.load_at(3.0) == 0.0

    def test_entry_covers_its_window(self, schedule):
        schedule.insert("v", 2.0, 3e6)
        assert schedule.load_at(2.5) == pytest.approx(3e6)
        assert schedule.load_at(3.5) == 0.0

    def test_wraparound_entry(self, schedule):
        schedule.insert("v", 13.5, 3e6)
        assert schedule.load_at(13.7) == pytest.approx(3e6)
        assert schedule.load_at(0.2) == pytest.approx(3e6)
        assert schedule.load_at(0.6) == 0.0

    def test_overlapping_entries_stack(self, schedule):
        """Figure 4: the height of a vertical slice is the NIC load."""
        schedule.insert("a", 2.0, 3e6)
        schedule.insert("b", 2.5, 2e6)
        assert schedule.load_at(2.7) == pytest.approx(5e6)

    def test_peak_load_in_window(self, schedule):
        schedule.insert("a", 2.0, 3e6)
        schedule.insert("b", 2.5, 2e6)
        assert schedule.peak_load_in(2.0, 1.0) == pytest.approx(5e6)
        assert schedule.peak_load_in(4.0, 1.0) == 0.0

    def test_headroom(self, schedule):
        schedule.insert("a", 2.0, 3e6)
        assert schedule.headroom_at(2.0) == pytest.approx(7e6)


class TestInsertion:
    def test_insert_rejected_when_over_capacity(self, schedule):
        schedule.insert("a", 2.0, 6e6)
        assert not schedule.can_insert(2.5, 5e6)
        with pytest.raises(ValueError):
            schedule.insert("b", 2.5, 5e6)

    def test_insert_allowed_elsewhere(self, schedule):
        schedule.insert("a", 2.0, 6e6)
        assert schedule.can_insert(5.0, 8e6)

    def test_remove_frees_capacity(self, schedule):
        entry = schedule.insert("a", 2.0, 6e6)
        schedule.remove(entry.entry_id)
        assert schedule.can_insert(2.0, 10e6)

    def test_remove_unknown_is_false(self, schedule):
        assert schedule.remove(9999) is False

    def test_nonpositive_bitrate_rejected(self, schedule):
        with pytest.raises(ValueError):
            schedule.insert("a", 0.0, 0.0)

    def test_utilization(self, schedule):
        schedule.insert("a", 0.0, 5e6)
        # 5 Mbit for 1 s out of 10 Mbit x 14 s.
        assert schedule.utilization() == pytest.approx(5 / 140)


class TestFragmentation:
    """The §3.2 claim: unquantized starts fragment the schedule;
    quantizing to block_play_time/decluster keeps it usable."""

    def test_gap_shorter_than_width_unusable(self, schedule):
        """The paper's Figure 4 example: a sub-block-play-time gap
        cannot take any entry."""
        schedule.insert("a", 0.0, 6e6)
        schedule.insert("b", 0.9, 4e6)  # gap of 0.9 < 1.0 before b at 6 Mbit level
        # A 5 Mbit/s stream cannot start in [0,. 0.9): window hits both.
        assert not schedule.can_insert(0.1, 5e6)

    def test_find_offset_unquantized(self, schedule):
        schedule.insert("a", 0.0, 6e6)
        offset = schedule.find_offset(5e6, after=0.0)
        assert offset is not None
        assert schedule.can_insert(offset, 5e6)

    def test_find_offset_unquantized_is_soonest_after(self, schedule):
        """Candidates run in ring order from ``after``: the gap just past
        the entry at 10.0 comes before the one past 1.0 (which wraps)."""
        schedule.insert("a", 1.0, 10e6)
        schedule.insert("b", 10.0, 10e6)
        assert schedule.find_offset(5e6, after=10.5) == 11.0

    def test_find_offset_quantized_on_grid(self, schedule):
        offset = schedule.find_offset(5e6, after=0.3, quantum=0.25)
        assert offset is not None
        assert (offset / 0.25) == pytest.approx(round(offset / 0.25))

    def test_find_offset_none_when_full(self, schedule):
        for step in range(14):
            schedule.insert(f"v{step}", float(step), 10e6)
        assert schedule.find_offset(1e6) is None

    def test_bad_quantum_rejected(self, schedule):
        with pytest.raises(ValueError):
            schedule.find_offset(1e6, quantum=0.0)
        with pytest.raises(ValueError):
            schedule.find_offset(1e6, quantum=0.3)  # does not divide 14

    def test_quantized_packs_better_than_adversarial_arbitrary(self):
        """Admit identical greedy request sequences; arbitrary offsets
        strand bandwidth that the quantized grid can still use."""
        rng = RngRegistry(3).stream("frag")
        quantized = NetworkSchedule(LENGTH, CAPACITY, WIDTH)
        arbitrary = NetworkSchedule(LENGTH, CAPACITY, WIDTH)
        requests = [(rng.uniform(0, LENGTH), rng.choice([1e6, 2e6, 3e6])) for _ in range(200)]
        for where, rate in requests:
            spot = arbitrary.find_offset(rate, after=where)
            if spot is not None:
                arbitrary.insert("v", spot, rate)
            spot = quantized.find_offset(rate, after=where, quantum=0.25)
            if spot is not None:
                quantized.insert("v", spot, rate)
        assert quantized.utilization() >= arbitrary.utilization() - 0.02

    @given(st.lists(st.tuples(st.floats(0, LENGTH), st.sampled_from([1e6, 2e6, 4e6])), max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_capacity_never_exceeded(self, requests):
        """Invariant: accepted entries never overload any slice."""
        schedule = NetworkSchedule(LENGTH, CAPACITY, WIDTH)
        for where, rate in requests:
            if schedule.can_insert(where, rate):
                schedule.insert("v", where, rate)
        for check in range(140):
            assert schedule.load_at(check * 0.1) <= CAPACITY + 1e-6


class TestDistributedInsertion:
    """The §4.2 tentative-insert handshake."""

    def build(self, sim, rngs, nodes=3):
        network = SwitchedNetwork(sim, rngs, base_latency=0.001, latency_jitter=0.0)
        cubs = [
            NetScheduleNode(sim, index, nodes, network, LENGTH, CAPACITY, WIDTH)
            for index in range(nodes)
        ]
        for cub in cubs:
            network.register(cub, 155e6)
        return network, cubs

    def test_commit_updates_both_views(self, sim, rngs):
        network, cubs = self.build(sim, rngs)
        results = []
        cubs[0].try_insert("viewer", 2.0, 3e6, on_done=results.append)
        sim.run()
        assert results == [True]
        assert cubs[0].commits == 1
        assert cubs[0].view.load_at(2.5) == pytest.approx(3e6)
        assert cubs[1].view.load_at(2.5) == pytest.approx(3e6)
        # And the successor's entry is a real one, not a reservation.
        assert all(not entry.reservation for entry in cubs[1].view.entries())

    def test_local_rejection_is_immediate(self, sim, rngs):
        network, cubs = self.build(sim, rngs)
        cubs[0].view.insert("existing", 2.0, 10e6)
        results = []
        ok = cubs[0].try_insert("viewer", 2.0, 3e6, on_done=results.append)
        assert ok is False
        assert results == [False]
        assert cubs[0].rejections_local == 1

    def test_successor_refusal_aborts(self, sim, rngs):
        """The successor's view can rule out what the originator's
        allows — the §4.2 coordination case."""
        network, cubs = self.build(sim, rngs)
        cubs[1].view.insert("elsewhere", 2.0, 10e6)  # only successor knows
        results = []
        cubs[0].try_insert("viewer", 2.0, 3e6, on_done=results.append)
        sim.run()
        assert results == [False]
        assert cubs[0].aborts == 1
        # The tentative entry was rolled back.
        assert cubs[0].view.load_at(2.5) == 0.0

    def test_timeout_aborts_and_releases_reservation(self, sim, rngs):
        network, cubs = self.build(sim, rngs)
        network.partition("netcub:1", "netcub:0")  # replies lost
        results = []
        cubs[0].try_insert("viewer", 2.0, 3e6, on_done=results.append)
        sim.run(until=5.0)
        assert results == [False]
        assert cubs[0].aborts == 1
        assert cubs[0].view.load_at(2.5) == 0.0

    def test_concurrent_inserts_capacity_respected(self, sim, rngs):
        """Two cubs racing for the same window: the successor's view
        serializes them; total committed never exceeds capacity."""
        network, cubs = self.build(sim, rngs)
        for round_index in range(4):
            cubs[0].try_insert(f"a{round_index}", 2.0, 4e6)
            cubs[2].try_insert(f"b{round_index}", 2.0, 4e6)
            sim.run()
        # Independent successors (1 and 0) bound their own views.
        for cub in cubs:
            assert cub.view.load_at(2.5) <= CAPACITY + 1e-6
