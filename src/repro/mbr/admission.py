"""Joint disk + network admission for multiple-bitrate streams (§3.2).

The single-bitrate system folds everything into one schedule because
"the ratio of disk usage to network usage is constant for all blocks".
With variable block sizes that breaks: "The time to read a block from
a disk includes a constant seek overhead, while the time to send one
to the network does not, so small blocks use proportionally more disk
than network.  Consequently ... whether the network or disk limits
performance may depend on the current set of playing files."

:class:`MbrAdmission` makes that sentence executable: it admits a
stream only if both the 2-D network schedule (NIC bandwidth) and the
per-disk service budget (seek-dominated for small blocks) still fit,
and reports which resource is binding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.netschedule import NetworkSchedule
from repro.disk.model import DiskParameters
from repro.disk.zones import ZONE_OUTER

#: Which resource refused (or nearly refused) an admission.
LIMIT_NONE = "none"
LIMIT_DISK = "disk"
LIMIT_NETWORK = "network"


@dataclass
class AdmittedStream:
    """One admitted multiple-bitrate viewer."""

    viewer_id: str
    bitrate_bps: float
    block_bytes: int
    offset: float
    entry_id: int
    #: Expected disk seconds per block play time, fixed at admission.
    read_time: float


class MbrAdmission:
    """Admission control for one cub's resources in a multi-bitrate Tiger.

    The model collapses the cub's ``num_disks`` drives into a pooled
    disk-time budget per block play time (valid because striping
    rotates every stream over every drive, so long-run per-drive load
    is the pooled mean — the same argument §3 makes for the
    single-bitrate system).
    """

    def __init__(
        self,
        disk_params: DiskParameters,
        num_disks: int,
        nic_bps: float,
        block_play_time: float,
        schedule_length: float,
        start_quantum: Optional[float] = None,
        disk_headroom: float = 1.0,
    ) -> None:
        if num_disks < 1:
            raise ValueError("need at least one disk")
        if not 0 < disk_headroom <= 1.0:
            raise ValueError("disk headroom must be in (0, 1]")
        self.disk_params = disk_params
        self.num_disks = num_disks
        self.block_play_time = block_play_time
        self.start_quantum = start_quantum
        #: Fraction of disk time the admission may commit (the rest is
        #: the failed-mode reserve, exactly as in §2.3).
        self.disk_headroom = disk_headroom
        self.network = NetworkSchedule(
            schedule_length, nic_bps, block_play_time
        )
        self.streams: Dict[str, AdmittedStream] = {}
        self.rejections: Dict[str, int] = {LIMIT_DISK: 0, LIMIT_NETWORK: 0}

    # ------------------------------------------------------------------
    # Budgets
    # ------------------------------------------------------------------
    def disk_time_committed(self) -> float:
        """Expected disk seconds needed per block play time."""
        return sum(stream.read_time for stream in self.streams.values())

    def disk_budget(self) -> float:
        """Disk seconds available per block play time, pooled."""
        return self.num_disks * self.block_play_time * self.disk_headroom

    def disk_utilization(self) -> float:
        return self.disk_time_committed() / self.disk_budget()

    def limiting_resource(self) -> str:
        """Which resource is closer to exhaustion right now (§3.2)."""
        disk = self.disk_utilization()
        net = self.network.utilization()
        if disk < 0.01 and net < 0.01:
            return LIMIT_NONE
        return LIMIT_DISK if disk >= net else LIMIT_NETWORK

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def try_admit(
        self, viewer_id: str, bitrate_bps: float, preferred_offset: float = 0.0
    ) -> Optional[AdmittedStream]:
        """Admit a stream if both resources fit; None (and a rejection
        tally) otherwise."""
        if viewer_id in self.streams:
            raise ValueError(f"viewer {viewer_id!r} already admitted")
        if bitrate_bps <= 0:
            raise ValueError("bitrate must be positive")
        block_bytes = int(round(bitrate_bps * self.block_play_time / 8.0))

        read_time = self.disk_params.expected_read_time(ZONE_OUTER, block_bytes)
        if self.disk_time_committed() + read_time > self.disk_budget() + 1e-9:
            self.rejections[LIMIT_DISK] += 1
            return None

        offset = self.network.find_offset(
            bitrate_bps, after=preferred_offset, quantum=self.start_quantum
        )
        if offset is None:
            self.rejections[LIMIT_NETWORK] += 1
            return None

        entry = self.network.insert(viewer_id, offset, bitrate_bps)
        stream = AdmittedStream(
            viewer_id=viewer_id,
            bitrate_bps=bitrate_bps,
            block_bytes=block_bytes,
            offset=offset,
            entry_id=entry.entry_id,
            read_time=read_time,
        )
        self.streams[viewer_id] = stream
        return stream

    def release(self, viewer_id: str) -> bool:
        stream = self.streams.pop(viewer_id, None)
        if stream is None:
            return False
        self.network.remove(stream.entry_id)
        return True

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        return {
            "streams": float(len(self.streams)),
            "disk_utilization": self.disk_utilization(),
            "network_utilization": self.network.utilization(),
            "rejected_disk": float(self.rejections[LIMIT_DISK]),
            "rejected_network": float(self.rejections[LIMIT_NETWORK]),
        }
