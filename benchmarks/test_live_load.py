"""Live-backend load test: the binary wire codec under open-loop load.

The paper's §5 testbed is real machines streaming over a switched ATM
network; our live backend replays the protocol over localhost sockets.
This benchmark records (a) the wire-codec throughput on a deterministic
protocol frame mix, and (b) a real socket cluster run driven by the
seeded open-loop arrival generator, and asserts the shape claims: the
codec carries the whole mix, protocol messages (binary frames) dwarf
the JSON control frames, and the live run streams real blocks with
zero invariant violations.
"""

from __future__ import annotations

import pytest

from repro.bench.live import (
    LIVE_TIMING_REPEATS_FULL,
    LIVE_VIEWERS_QUICK,
    build_frame_mix,
    measure_codec,
)
from repro.live.cluster import ClusterScenario, run_cluster
from repro.live.wire import CODEC_BINARY, CODEC_JSON
from repro.obs.registry import snapshot_total

from conftest import write_result

SEED = 0

#: Scaled-down cluster leg: enough viewers for real admission traffic,
#: short enough for the benchmark suite (the full 1000-viewer run lives
#: in ``repro bench --workloads live`` / BENCH_live.json).
CLUSTER_CUBS = 4
CLUSTER_HUBS = 2
CLUSTER_VIEWERS = 60
CLUSTER_DURATION_S = 8.0


def run_live_load():
    messages = build_frame_mix(LIVE_VIEWERS_QUICK, SEED)
    row = measure_codec(messages, LIVE_TIMING_REPEATS_FULL)

    scenario = ClusterScenario(
        cubs=CLUSTER_CUBS,
        duration=CLUSTER_DURATION_S,
        streams=CLUSTER_VIEWERS,
        seed=SEED,
        arrivals="zipf",
        hubs=CLUSTER_HUBS,
    )
    report = run_cluster(scenario)
    merged = report.merged
    cluster = {
        "passed": report.passed,
        "violations": snapshot_total(merged, "live.invariant_violations"),
        "blocks": snapshot_total(merged, "live.client_blocks_received"),
        "admitted": snapshot_total(merged, "cub.inserts_performed"),
        "wire_frames_binary": snapshot_total(
            merged, "live.wire_frames", codec=CODEC_BINARY
        ),
        "wire_frames_json": snapshot_total(
            merged, "live.wire_frames", codec=CODEC_JSON
        ),
        "lateness_p99": snapshot_total(merged, "live.block_lateness_p99"),
    }
    return len(messages), row, cluster


@pytest.mark.benchmark(group="live_load")
def test_live_load(benchmark):
    mix_size, row, cluster = benchmark.pedantic(
        run_live_load, rounds=1, iterations=1
    )

    lines = [
        "live backend — open-loop load over real sockets "
        f"({CLUSTER_CUBS} cub processes, {CLUSTER_HUBS} hub shards, "
        f"{CLUSTER_VIEWERS} viewers, zipf arrivals, seed {SEED})",
        "",
        "codec microbench (encode+decode, deterministic frame mix):",
        f"{'codec':>8} {'frames':>8} {'bytes/frame':>12} "
        f"{'frames/sec':>12}",
    ]
    lines.append(
        f"{row['codec']:>8} {row['frames']:>8} "
        f"{row['mean_frame_bytes']:>12.1f} "
        f"{row['frames_per_sec']:>12.0f}"
    )
    lines.append("")
    lines.append("cluster run (real sockets):")
    lines.append(
        f"  report passed={cluster['passed']}  "
        f"invariant violations={cluster['violations']:g}  "
        f"viewers admitted={cluster['admitted']:g}"
    )
    lines.append(
        f"  blocks at clients={cluster['blocks']:g}  "
        f"block lateness p99={cluster['lateness_p99']:.3f}s"
    )
    lines.append(
        f"  wire frames: binary messages={cluster['wire_frames_binary']:g}"
        f"  json control={cluster['wire_frames_json']:g}"
    )
    lines.append("")
    lines.append(
        "shape: the binary codec carries the whole frame mix; protocol "
        "messages outnumber control frames; the live run streams real "
        "blocks with zero violations"
    )
    write_result("live_load", lines)

    # Codec shape claims.
    assert row["frames"] == mix_size
    assert row["frames_per_sec"] > 0
    # Live-run health claims.
    assert cluster["passed"]
    assert cluster["violations"] == 0
    assert cluster["blocks"] > 0
    assert cluster["wire_frames_binary"] > cluster["wire_frames_json"]
