"""The ``live`` bench tier: wire-codec throughput and load-test stats.

Two layers, separated by what the baseline gate may touch:

* **Codec microbench** (always): build a deterministic protocol frame
  mix from a seeded :func:`repro.workloads.arrivals.open_loop_trace`
  (starts, acks, viewer-state gossip batches, whole-block data frames
  with real content fingerprints, fixed message ids) and push it
  through binary encode + decode.  The *mix shape* — message and byte
  counts — is a pure function of the seed, so it lands in the gated
  ``counters`` section; frames/sec is machine noise and lands in
  ``perf`` under the usual tolerance.

* **Real cluster run** (full mode only): boot an actual live cluster —
  :data:`LIVE_CLUSTER_VIEWERS` driver-hosted viewers, Zipf arrivals,
  sharded hubs — and record viewers admitted/sec, wire frames per
  codec label, and p99 block-service lateness into an *ungated*
  ``cluster`` section (real sockets and OS scheduling make those
  numbers noisy by construction; they are for reading, not gating).
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List

from repro.core.protocol import (
    BlockData,
    ClientStart,
    StartAck,
    ViewerStateBatch,
    block_pattern,
)
from repro.core.viewerstate import ViewerState
from repro.live.wire import (
    CODEC_BINARY,
    CODEC_JSON,
    FrameDecoder,
    encode_message,
)
from repro.net.message import KIND_CONTROL, KIND_DATA, Message
from repro.workloads.arrivals import open_loop_trace

#: Viewers in the frame-mix trace per mode.
LIVE_VIEWERS_FULL = 1000
LIVE_VIEWERS_QUICK = 200
#: Catalog size for the trace (popularity ranks).
LIVE_NUM_FILES = 32
#: Whole-block data frames synthesized per viewer.
LIVE_BLOCKS_PER_VIEWER = 4
#: Schedule-gossip states per batch frame.
LIVE_STATES_PER_BATCH = 4
#: Timing repetitions (best rate wins; full mode only).
LIVE_TIMING_REPEATS_FULL = 3

#: Real-cluster leg of the full-mode run.
LIVE_CLUSTER_VIEWERS = 1000
LIVE_CLUSTER_CUBS = 8
LIVE_CLUSTER_HUBS = 2
LIVE_CLUSTER_DURATION_S = 20.0


def build_frame_mix(viewers: int, seed: int) -> List[Message]:
    """Synthesize the protocol traffic one arrival trace implies.

    Per viewer: a start request, its ack, one viewer-state gossip
    batch, and :data:`LIVE_BLOCKS_PER_VIEWER` whole-block data frames
    carrying genuine :func:`block_pattern` fingerprints.  Message ids
    are assigned sequentially from 1 — nothing here depends on process
    state, so the same ``(viewers, seed)`` always yields byte-identical
    frames.
    """
    trace = open_loop_trace(
        viewers=viewers,
        num_files=LIVE_NUM_FILES,
        start=1.0,
        end=30.0,
        seed=seed,
        mode="zipf",
    )
    messages: List[Message] = []
    msg_id = 1

    def emit(src: str, dst: str, payload: Any, size: int, kind: str) -> None:
        nonlocal msg_id
        messages.append(Message(src, dst, payload, size, kind, msg_id))
        msg_id += 1

    for arrival in trace:
        client = f"client:{arrival.client_index}"
        viewer_id = f"{client}#{arrival.client_index}"
        instance = arrival.client_index + 1
        cub = f"cub:{arrival.client_index % LIVE_CLUSTER_CUBS}"
        next_cub = f"cub:{(arrival.client_index + 1) % LIVE_CLUSTER_CUBS}"
        emit(
            client, "controller",
            ClientStart(viewer_id, instance, arrival.file_index),
            64, KIND_CONTROL,
        )
        emit(
            "controller", client, StartAck(instance, "controller"),
            32, KIND_CONTROL,
        )
        states = tuple(
            ViewerState(
                viewer_id=viewer_id,
                instance=instance,
                slot=arrival.client_index % 128,
                file_id=arrival.file_index,
                block_index=hop,
                disk_id=hop % 16,
                due_time=arrival.time + hop,
                play_seqno=hop,
            )
            for hop in range(LIVE_STATES_PER_BATCH)
        )
        emit(cub, next_cub, ViewerStateBatch(states=states), 256, KIND_CONTROL)
        for seqno in range(LIVE_BLOCKS_PER_VIEWER):
            emit(
                cub, client,
                BlockData(
                    viewer_id=viewer_id,
                    instance=instance,
                    file_id=arrival.file_index,
                    block_index=seqno,
                    play_seqno=seqno,
                    pattern=block_pattern(arrival.file_index, seqno),
                ),
                65536, KIND_DATA,
            )
    return messages


def measure_codec(messages: List[Message], repeats: int = 1) -> Dict[str, Any]:
    """Encode + decode the whole mix; best-of-``repeats`` rate."""
    total_bytes = 0
    best_wall = float("inf")
    for _ in range(max(1, repeats)):
        start = perf_counter()
        blob = b"".join(encode_message(m) for m in messages)
        decoded = FrameDecoder().feed_parsed(blob)
        wall = perf_counter() - start
        if len(decoded) != len(messages):
            raise RuntimeError(
                f"decoded {len(decoded)} of {len(messages)} frames"
            )
        total_bytes = len(blob)
        best_wall = min(best_wall, wall)
    frames_per_sec = len(messages) / best_wall if best_wall > 0 else 0.0
    return {
        "codec": CODEC_BINARY,
        "frames": len(messages),
        "bytes": total_bytes,
        "wall_s": round(best_wall, 4),
        "frames_per_sec": round(frames_per_sec, 1),
        "mean_frame_bytes": round(total_bytes / len(messages), 1)
        if messages else 0.0,
    }


def _run_live_cluster(seed: int) -> Dict[str, Any]:
    """The real-socket leg: 1000 viewers, Zipf arrivals."""
    from repro.live.cluster import ClusterScenario, run_cluster
    from repro.obs.registry import snapshot_total

    scenario = ClusterScenario(
        cubs=LIVE_CLUSTER_CUBS,
        duration=LIVE_CLUSTER_DURATION_S,
        streams=LIVE_CLUSTER_VIEWERS,
        seed=seed,
        arrivals="zipf",
        hubs=LIVE_CLUSTER_HUBS,
    )
    report = run_cluster(scenario)
    merged = report.merged
    admitted = snapshot_total(merged, "controller.starts_routed")
    window = scenario.duration
    return {
        "viewers": scenario.streams,
        "cubs": scenario.cubs,
        "hubs": scenario.hubs,
        "arrivals": scenario.arrivals,
        "duration_s": scenario.duration,
        "wall_s": round(report.wall_seconds, 1),
        "viewers_admitted": admitted,
        "viewers_admitted_per_sec": round(admitted / window, 1),
        "blocks_received": snapshot_total(
            merged, "live.client_blocks_received"
        ),
        "block_lateness_p99_s": snapshot_total(
            merged, "live.block_lateness_p99"
        ),
        "wire_frames_binary": snapshot_total(
            merged, "live.wire_frames", codec=CODEC_BINARY
        ),
        "wire_frames_json": snapshot_total(
            merged, "live.wire_frames", codec=CODEC_JSON
        ),
        "hub_backpressure_events": snapshot_total(
            merged, "live.hub_backpressure_events"
        ),
        "hub_sendq_dropped": snapshot_total(merged, "live.hub_sendq_dropped"),
        "invariant_violations": snapshot_total(
            merged, "live.invariant_violations"
        ),
        "passed": report.passed,
    }


def run_live_workload(seed: int = 0, quick: bool = False) -> Dict[str, Any]:
    """Run the ``live`` tier; returns a BENCH result dict.

    The gated ``counters`` hold only mix-shape facts (message count,
    encoded bytes) — deterministic for a given seed.  ``perf`` is the
    codec's frames/sec, tolerance-gated like every other tier.
    Full mode appends the ungated real-cluster section.
    """
    from repro.bench.harness import _base_result

    viewers = LIVE_VIEWERS_QUICK if quick else LIVE_VIEWERS_FULL
    repeats = 1 if quick else LIVE_TIMING_REPEATS_FULL
    messages = build_frame_mix(viewers, seed)
    row = measure_codec(messages, repeats)

    result = _base_result(
        "live",
        "quick" if quick else "full",
        seed,
        {
            "viewers": viewers,
            "num_files": LIVE_NUM_FILES,
            "blocks_per_viewer": LIVE_BLOCKS_PER_VIEWER,
            "arrivals": "zipf",
            "timing_repeats": repeats,
        },
    )
    result["counters"] = {
        "live.codec_messages": len(messages),
        "live.codec_bytes_binary": row["bytes"],
    }
    result["perf"] = {
        "events": len(messages),
        "wall_s": row["wall_s"],
        "events_per_sec": row["frames_per_sec"],
        "sim_seconds": 0.0,
        "sim_per_wall": 0.0,
    }
    result["codecs"] = [row]
    result["handlers"] = []
    result["memory"] = {}
    if not quick:
        result["cluster"] = _run_live_cluster(seed)
    return result
