"""The benchmark's workloads.

Each workload is built from its seed alone and has three steps:
``setup()`` builds the system (timed as set-up), ``drive()`` runs the
measured work and returns the host seconds of each of its chunks, and
``outcome()`` reads the simulated results through public getters.
Chunks are fixed units of work: one simulated second for the simulator
workloads, one admit or release call for ``mbr_admission``.  Two drives
of one workload with one seed do identical work chunk by chunk, so the
runner can pool the chunks of its repetitions.

``drive(between)`` calls ``between()``, when given, after each chunk (or
step of one) and outside its timing; a clean run samples the host's
speed there.  ``chunk_ends`` holds the host clock at the end of each
chunk of the last drive.

``checks()`` lists the correctness checks of the program's outputs as
``(name, passed, detail)``.  A drive that raises is a failed run: the
error is kept in ``error`` and no outcome is reported for it.
"""

from __future__ import annotations

import math
import random
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.harness import protocol_counters
from repro.config import paper_config
from repro.core.tiger import TigerSystem
from repro.disk.model import DiskParameters
from repro.mbr.admission import MbrAdmission
from repro.obs.registry import snapshot_total
from repro.workloads.arrivals import open_loop_trace
from repro.workloads.generator import DEFAULT_STREAMS_PER_CLIENT, ContinuousWorkload

Check = Tuple[str, bool, str]


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


class SimulatorWorkload:
    """A Tiger system driven for ``sim_seconds`` in one-second chunks."""

    name = ""
    #: Host time is reported per simulated second.
    op_unit = "simulated second"
    #: Host seconds of one set-up and drive at the parent commit on a
    #: 2-core x86 host; sets the repetition count of a clean run.
    nominal_rep_s = 10.0
    #: Steps per simulated second (``between`` runs after each).
    STEPS = 4
    #: The :mod:`perfbench.calibrate` kernel closest to the hot loop.
    calibration = "events"

    def __init__(self, seed: int, sim_seconds: float) -> None:
        self.seed = seed
        self.sim_seconds = sim_seconds
        self.system: Optional[TigerSystem] = None
        self.error: Optional[str] = None
        self.error_time: Optional[float] = None
        self.queued_starts_peak = 0
        self.chunk_ends: List[float] = []

    def build(self) -> TigerSystem:
        raise NotImplementedError

    def setup(self) -> None:
        self.error = self.error_time = None
        self.queued_starts_peak = 0
        self.system = self.build()

    def teardown(self) -> None:
        self.system = None

    def drive(self, between: Optional[Callable[[], None]] = None) -> List[float]:
        system = self.system
        chunks: List[float] = []
        self.chunk_ends = []
        for second in range(1, int(self.sim_seconds) + 1):
            host_s = 0.0
            # Each simulated second runs in a few steps, and ``between``
            # is called after each, so a clean run's host-speed samples
            # are spread finely over the drive.
            for step in range(1, self.STEPS + 1):
                started = perf_counter()
                try:
                    system.run_until(second - 1 + step / self.STEPS)
                except Exception as exc:  # the run boundary: report, do not mask
                    self.error = f"{type(exc).__name__}: {exc}"
                    self.error_time = system.sim.now
                    return chunks
                host_s += perf_counter() - started
                if between is not None:
                    between()
            chunks.append(host_s)
            self.chunk_ends.append(perf_counter())
            # Sampled between chunks through a public getter, so the
            # sampling cannot perturb the simulation.
            self.queued_starts_peak = max(
                self.queued_starts_peak,
                max(cub.queued_start_requests() for cub in system.cubs),
            )
        return chunks

    def requests(self) -> int:
        """Start requests due during the run (failed runs count all)."""
        return sum(
            1 for client in self.system.clients
            for monitor in client.all_monitors()
            if monitor.first_block_time is not None or not monitor.stopped
        )

    def outcome(self) -> Dict[str, Any]:
        system = self.system
        system.finalize_clients()
        now = system.sim.now
        latencies: List[float] = []
        due = unstarted = 0
        missed = late = received = corrupt = 0
        for client in system.clients:
            for monitor in client.all_monitors():
                missed += monitor.blocks_missed
                late += monitor.blocks_late
                received += monitor.blocks_received
                corrupt += monitor.blocks_corrupt
                if monitor.startup_latency is not None:
                    latencies.append(monitor.startup_latency)
                    due += 1
                elif not monitor.stopped:
                    # Withdrawn before service is not a failed start.
                    unstarted += 1
                    due += 1
        snapshot = system.export_metrics().snapshot()
        counters = protocol_counters(system.registry)
        disks = [disk for cub in system.cubs for disk in cub.disks.values()]
        living = system.living_cubs()
        network = system.network
        outcome: Dict[str, Any] = {
            "sim_seconds": now,
            "events": system.sim.events_dispatched,
            "requests": due,
            "started": len(latencies),
            "unstarted": unstarted,
            "startup_p50_s": percentile(latencies, 0.50) if latencies else None,
            "startup_p98_s": percentile(latencies, 0.98) if latencies else None,
            "start_fail_ratio": unstarted / due if due else 0.0,
            "block_loss_ratio": (
                (missed + late) / (received + missed)
                if received + missed else 0.0
            ),
            "blocks_received": received,
            "blocks_missed": missed,
            "blocks_late": late,
            "blocks_corrupt": corrupt,
            "cub.server_missed_blocks": system.total_server_missed(),
            "controller.starts_routed": int(
                snapshot_total(snapshot, "controller.starts_routed")
            ),
            "net.bytes": sum(
                network.nic(address).bytes_sent.total
                for address in network.addresses()
            ),
            "net.drops": network.messages_dropped,
            "net.nic_busy_ratio": sum(
                network.nic(cub.address).utilization(now) for cub in system.cubs
            ) / len(system.cubs),
            "disk.read_errors": sum(disk.reads_errored.count for disk in disks),
            "disk.busy_ratio": (
                sum(disk.utilization(now) for disk in disks) / len(disks)
            ),
            "core.cub.cpu_util": (
                sum(cub.cpu_utilization(now) for cub in living) / len(living)
            ),
            "core.controller.cpu_util": system.controller.cpu_utilization(now),
            "core.cub.queued_starts_peak": self.queued_starts_peak,
            "storage.index.entries": sum(
                index.num_primary_entries + index.num_secondary_entries
                for index in system.indexes
            ),
        }
        outcome.update(counters)
        blocks_sent = counters["cub.blocks_sent"]
        outcome["core.cub.forwards_per_block"] = (
            counters["cub.viewer_states_forwarded"] / blocks_sent
            if blocks_sent else 0.0
        )
        return outcome

    def tally(self, outcome: Dict[str, Any]) -> Tuple[int, int]:
        """``(attempted, failed)``: requests due and those never started."""
        return outcome["requests"], outcome["unstarted"]

    def checks(self, outcome: Dict[str, Any]) -> List[Check]:
        try:
            self.system.assert_invariants()
            invariants: Check = ("invariants", True, "oracle consistent")
        except AssertionError as exc:
            invariants = ("invariants", False, str(exc))
        return [
            invariants,
            ("blocks_corrupt", outcome["blocks_corrupt"] == 0,
             f"{outcome['blocks_corrupt']} corrupt blocks"),
        ]


class Fig8Steady(SimulatorWorkload):
    """The §5 testbed at its rated load of 602 streams (Fig 8)."""

    name = "fig8_steady"

    def __init__(self, seed: int, sim_seconds: float = 120.0) -> None:
        super().__init__(seed, sim_seconds)

    def build(self) -> TigerSystem:
        system = TigerSystem(paper_config(), seed=self.seed)
        system.add_standard_content(num_files=8, duration_s=240.0)
        ContinuousWorkload(system).add_streams(system.config.num_slots)
        return system

    def checks(self, outcome: Dict[str, Any]) -> List[Check]:
        # Rated load with no failure: the paper's zero-loss claim.
        lost = outcome["blocks_missed"] + outcome["blocks_late"]
        return super().checks(outcome) + [
            ("no_block_loss", lost == 0, f"{lost} missed or late blocks"),
        ]


class FailoverChurn(SimulatorWorkload):
    """Open-loop Zipf arrivals with VCR churn and a cub kill/restart."""

    name = "failover_churn"
    ARRIVALS_PER_S = 9.0
    NUM_FILES = 16
    FILE_SECONDS = 60.0
    CHURN_SHARE = 0.2
    PAUSE_AFTER_S = (5.0, 20.0)
    RESUME_AFTER_S = (1.0, 5.0)
    VICTIM = 5
    KILL_AT = 0.4
    RESTART_AT = 0.7

    def __init__(self, seed: int, sim_seconds: float = 90.0) -> None:
        super().__init__(seed, sim_seconds)
        self.arrivals = open_loop_trace(
            viewers=int(self.ARRIVALS_PER_S * sim_seconds),
            num_files=self.NUM_FILES,
            start=0.0,
            end=sim_seconds,
            seed=seed,
            mode="zipf",
        )
        rng = random.Random(f"failover_churn/{seed}")
        self.churn = [
            (rng.uniform(*self.PAUSE_AFTER_S), rng.uniform(*self.RESUME_AFTER_S))
            if rng.random() < self.CHURN_SHARE else None
            for _ in self.arrivals
        ]

    def build(self) -> TigerSystem:
        system = TigerSystem(paper_config(), seed=self.seed)
        system.add_standard_content(
            num_files=self.NUM_FILES, duration_s=self.FILE_SECONDS
        )
        system.enable_controller_backup()
        clients = system.add_clients(
            math.ceil(len(self.arrivals) / DEFAULT_STREAMS_PER_CLIENT)
        )
        sim = system.sim

        def pause_when_playing(client, instance, after, resume_after):
            monitor = client.streams[instance]
            if monitor.stopped or monitor.finished:
                return
            if monitor.first_block_time is None:
                sim.call_after(1.0, pause_when_playing, client, instance,
                               after, resume_after)
            elif sim.now < monitor.first_block_time + after:
                sim.call_at(monitor.first_block_time + after,
                            pause_when_playing, client, instance,
                            after, resume_after)
            elif client.pause_stream(instance) is not None:
                sim.call_after(resume_after, client.resume_stream, instance)

        def arrive(arrival, churn):
            client = clients[arrival.client_index % len(clients)]
            instance = client.start_stream(arrival.file_index)
            if churn is not None:
                sim.call_after(churn[0], pause_when_playing, client,
                               instance, *churn)

        # The generator is simulator events at exact due times, so it is
        # never late and each request is timed from its due time.
        for arrival, churn in zip(self.arrivals, self.churn):
            sim.call_at(arrival.time, arrive, arrival, churn)
        sim.call_at(self.KILL_AT * self.sim_seconds, system.fail_cub,
                    self.VICTIM)
        sim.call_at(self.RESTART_AT * self.sim_seconds, system.recover_cub,
                    self.VICTIM)
        return system

    def requests(self) -> int:
        return len(self.arrivals)


class MbrAdmissionWorkload:
    """A closed loop of admits and releases against one MbrAdmission."""

    name = "mbr_admission"
    op_unit = "try_admit decision"
    nominal_rep_s = 6.0
    calibration = "ring"
    BITRATES_BPS = (1e6, 2e6, 4e6, 6e6)
    RELEASE_SHARE = 0.3
    RING_S = 14.0

    def __init__(self, seed: int, ops: int = 3000) -> None:
        self.seed = seed
        rng = random.Random(seed)
        # The mix is fixed (exactly 30% releases, the bitrates in equal
        # shares) and the seed draws its order, which stream each release
        # picks and each preferred offset.  Independent per-op draws would
        # let the seed change the mix, which moves the work per run by
        # about 14% between seeds.
        releases = round(self.RELEASE_SHARE * ops)
        kinds = ["release"] * releases + ["admit"] * (ops - releases)
        rng.shuffle(kinds)
        rates = [
            self.BITRATES_BPS[index % len(self.BITRATES_BPS)]
            for index in range(ops - releases)
        ]
        rng.shuffle(rates)
        next_rate = iter(rates)
        #: ("release", u) picks the admitted stream at int(u * count);
        #: ("admit", bitrate, preferred offset).
        self.plan: List[tuple] = [
            ("release", rng.random()) if kind == "release"
            else ("admit", next(next_rate), rng.uniform(0.0, self.RING_S))
            for kind in kinds
        ]
        self.admission: Optional[MbrAdmission] = None
        self.error: Optional[str] = None
        self.error_time: Optional[float] = None
        #: Per executed op: True for a try_admit decision.
        self.is_decision: List[bool] = []
        self.chunk_ends: List[float] = []
        self.accepted = 0

    def setup(self) -> None:
        self.admission = MbrAdmission(
            DiskParameters(),
            num_disks=56,
            nic_bps=100e6,
            block_play_time=1.0,
            schedule_length=self.RING_S,
            start_quantum=0.25,
        )

    def teardown(self) -> None:
        self.admission = None

    def drive(self, between: Optional[Callable[[], None]] = None) -> List[float]:
        admission = self.admission
        admitted: List[str] = []
        chunks: List[float] = []
        self.chunk_ends = []
        self.is_decision = []
        self.accepted = 0
        for index, op in enumerate(self.plan):
            if op[0] == "release":
                if not admitted:
                    continue  # nothing admitted yet: not an operation
                viewer = admitted.pop(int(op[1] * len(admitted)))
                started = perf_counter()
                released = admission.release(viewer)
                ended = perf_counter()
                chunks.append(ended - started)
                self.is_decision.append(False)
                if not released:
                    self.error = f"release of admitted {viewer} failed"
                    break
            else:
                viewer = f"viewer-{index}"
                started = perf_counter()
                stream = admission.try_admit(viewer, op[1], op[2])
                ended = perf_counter()
                chunks.append(ended - started)
                self.is_decision.append(True)
                if stream is not None:
                    admitted.append(viewer)
                    self.accepted += 1
            self.chunk_ends.append(ended)
            if between is not None:
                between()
        return chunks

    def requests(self) -> int:
        return len(self.is_decision)

    def outcome(self) -> Dict[str, Any]:
        admission = self.admission
        decisions = sum(self.is_decision)
        return {
            "ops": len(self.is_decision),
            "decisions": decisions,
            "accepted": self.accepted,
            "admit_accept_ratio": self.accepted / decisions if decisions else 0.0,
            "net_utilization": admission.network.utilization(),
            "entries": len(admission.network),
            "disk_time_committed": admission.disk_time_committed(),
            "rejected_disk": admission.rejections["disk"],
            "rejected_network": admission.rejections["network"],
        }

    def tally(self, outcome: Dict[str, Any]) -> Tuple[int, int]:
        """``(attempted, failed)``: every call; a refusal is a correct
        admission decision, not a failure."""
        return outcome["ops"], 0

    def checks(self, outcome: Dict[str, Any]) -> List[Check]:
        admission = self.admission
        network = admission.network
        steps = int(round(network.length / admission.start_quantum))
        worst = max(
            network.load_at(step * admission.start_quantum)
            for step in range(steps)
        )
        budget = admission.disk_budget()
        return [
            ("nic_capacity", worst <= network.capacity_bps + 1e-6,
             f"peak load {worst / 1e6:.3f} of "
             f"{network.capacity_bps / 1e6:.3f} Mbit/s"),
            ("disk_budget", outcome["disk_time_committed"] <= budget + 1e-9,
             f"{outcome['disk_time_committed']:.4f} of {budget:.4f} disk-s"),
            ("streams_match_entries",
             len(admission.streams) == outcome["entries"],
             f"{len(admission.streams)} streams, {outcome['entries']} entries"),
        ]


WORKLOADS = {
    Fig8Steady.name: Fig8Steady,
    FailoverChurn.name: FailoverChurn,
    MbrAdmissionWorkload.name: MbrAdmissionWorkload,
}
