"""The ``mbr`` bench tier: multiple-bitrate admission throughput.

One :class:`~repro.mbr.admission.MbrAdmission` (a 14-s network-schedule
ring, 1-s entries, 0.25-s start quantum, one 100 Mbit/s NIC) takes a
seeded closed loop of calls: 30% release a random admitted stream, 70%
admit a 1, 2, 4 or 6 Mbit/s stream at a uniform preferred offset.  No
simulator runs, so the time is the §3.2/§4.2 placement search and the
schedule upkeep beside it.

The drive is a pure function of ``(seed, mode)``, so the decisions are
gated exactly: accepted streams, rejections by resource, schedule
entries and the network and disk utilization they leave.  The disk pool
is sized so both resources refuse some admits.  Admits per second is
reported under ``perf`` but not gated: it is host-dependent, and the
gate's throughput check reads ``events_per_sec``, which this tier does
not emit.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List

from repro.disk.model import DiskParameters
from repro.mbr.admission import LIMIT_DISK, LIMIT_NETWORK, MbrAdmission
from repro.sim.rng import RngRegistry

RING_S = 14.0
BITRATES_BPS = (1e6, 2e6, 4e6, 6e6)
RELEASE_SHARE = 0.3
#: Pooled drives: few enough that the disk binds on some admits.
NUM_DISKS = 40


def run_mbr_workload(seed: int = 0, quick: bool = False) -> Dict[str, Any]:
    """Run the ``mbr`` tier; returns a BENCH result dict."""
    from repro.bench.harness import _base_result

    ops = 1500 if quick else 3000
    rng = RngRegistry(seed).stream("mbr-bench")
    admission = MbrAdmission(
        DiskParameters(),
        num_disks=NUM_DISKS,
        nic_bps=100e6,
        block_play_time=1.0,
        schedule_length=RING_S,
        start_quantum=0.25,
    )
    admitted: List[str] = []
    admits = releases = accepted = 0
    started = perf_counter()
    for index in range(ops):
        if admitted and rng.random() < RELEASE_SHARE:
            admission.release(admitted.pop(rng.randrange(len(admitted))))
            releases += 1
            continue
        viewer = f"viewer-{index}"
        rate = rng.choice(BITRATES_BPS)
        admits += 1
        if admission.try_admit(viewer, rate, rng.uniform(0.0, RING_S)):
            admitted.append(viewer)
            accepted += 1
    wall = perf_counter() - started

    result = _base_result(
        "mbr",
        "quick" if quick else "full",
        seed,
        {
            "ops": ops,
            "ring_s": RING_S,
            "bitrates_bps": list(BITRATES_BPS),
            "release_share": RELEASE_SHARE,
            "num_disks": NUM_DISKS,
        },
    )
    result["counters"] = {
        "mbr.admits": admits,
        "mbr.releases": releases,
        "mbr.accepted": accepted,
        "mbr.rejected_network": admission.rejections[LIMIT_NETWORK],
        "mbr.rejected_disk": admission.rejections[LIMIT_DISK],
        "mbr.entries": len(admission.network),
        "mbr.net_utilization": admission.network.utilization(),
        "mbr.disk_utilization": admission.disk_utilization(),
    }
    result["perf"] = {
        "ops": admits + releases,
        "wall_s": round(wall, 6),
        "admits_per_sec": round(admits / wall, 1) if wall > 0 else 0.0,
        "ops_per_sec": round((admits + releases) / wall, 1) if wall > 0 else 0.0,
    }
    result["experiments"] = [
        {
            "name": "admission",
            "lines": [
                f"{admits} admits ({accepted} accepted, "
                f"{admission.rejections[LIMIT_NETWORK]} network-bound, "
                f"{admission.rejections[LIMIT_DISK]} disk-bound), "
                f"{releases} releases: "
                f"{result['perf']['admits_per_sec']:.0f} admits/s",
                f"net {admission.network.utilization():.1%}, "
                f"disk {admission.disk_utilization():.1%} at the end, "
                f"{len(admission.network)} entries",
            ],
        }
    ]
    result["handlers"] = []
    result["memory"] = {}
    return result
