"""Clean and traced runs of one workload, and the metrics they yield.

Clean run (end-to-end metrics): set up and drive the workload ``reps``
times, where ``reps`` is the time budget divided by the workload's
nominal repetition time (at least :data:`MIN_REPS`).  The count depends
on the budget only, never on how fast the code under test runs, so two
versions of the program are measured with the same number of
repetitions.  Each chunk's host time is scaled by the host-speed factor
of :mod:`perfbench.calibrate` measured just around it, and the metrics
are medians and totals over the scaled chunks of all repetitions.  Set-up time is the median of at least
:data:`SETUP_SAMPLES` set-ups spread over the run, each scaled by the
calibration samples taken just before and after it.

Traced run (per-layer metrics): one clean drive, then one drive with
every entry point of :mod:`perfbench.tracing` wrapped.  Both must give
the same simulated results, and the layers' self times must cover at
least :data:`ACCOUNTED_MIN` of the traced drive's host time.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.harness import PROTOCOL_COUNTERS

from perfbench.calibrate import Calibrator
from perfbench.tracing import SpanRecorder, installed
from perfbench.workloads import SimulatorWorkload, percentile

MIN_REPS = 3
SETUP_SAMPLES = 24
ACCOUNTED_MIN = 0.90

Metric = Tuple[float, str]


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(workload, calibrator: Optional[Calibrator] = None) -> float:
    """Host seconds of one set-up; with a calibrator, scaled by the
    samples taken just before and after it."""
    workload.teardown()
    gc.collect()
    if calibrator is None:
        started = perf_counter()
        workload.setup()
        return perf_counter() - started
    around = len(calibrator.samples)
    calibrator.sample()
    started = perf_counter()
    workload.setup()
    host_s = perf_counter() - started
    calibrator.sample()
    return host_s * calibrator.factor(around)


def failed_result(workload, kind: str) -> Dict[str, Any]:
    """A failed run: every request counts as failed, no numbers."""
    attempted = max(1, workload.requests())
    return {
        "kind": kind,
        "error": workload.error,
        "error_time": workload.error_time,
        "attempted": attempted,
        "failed": attempted,
        "checks": [("run_completed", False, workload.error)],
        "metrics": {},
        "report": [],
    }


def merge_checks(runs: List[List[Tuple[str, bool, str]]]):
    """One row per check: passed only if it passed in every run."""
    merged: Dict[str, Tuple[str, bool, str]] = {}
    for checks in runs:
        for name, passed, detail in checks:
            if name not in merged or (merged[name][1] and not passed):
                merged[name] = (name, passed, detail)
    return list(merged.values())


def repetitions(workload, seconds: float) -> int:
    return max(MIN_REPS, round(seconds / workload.nominal_rep_s))


def clean_run(workload, seconds: float) -> Dict[str, Any]:
    """Repeat set-up and drive for about ``seconds`` of host time."""
    count = repetitions(workload, seconds)
    extra_setups = math.ceil(max(0, SETUP_SAMPLES - count) / count)
    calibrator = Calibrator(workload.calibration)
    setups: List[float] = []
    reps: List[List[float]] = []
    factors: List[float] = []
    outcomes: List[Dict[str, Any]] = []
    checks: List[List[Tuple[str, bool, str]]] = []
    for _ in range(count):
        first_sample = len(calibrator.samples)
        for _ in range(extra_setups + 1):
            setups.append(timed_setup(workload, calibrator))
        chunks = workload.drive(calibrator.poll)
        if workload.error is not None:
            return failed_result(workload, "clean")
        calibrator.sample()
        outcome = workload.outcome()
        checks.append(workload.checks(outcome))
        reps.append([
            host_s * calibrator.factor_at(ended)
            for host_s, ended in zip(chunks, workload.chunk_ends)
        ])
        factors.append(calibrator.factor(first_sample))
        outcomes.append(outcome)
    workload.teardown()

    checks.append([(
        "repeats_identical",
        all(outcome == outcomes[0] for outcome in outcomes)
        and len({len(chunks) for chunks in reps}) == 1,
        f"{len(reps)} repetitions gave the same simulated results",
    )])
    scaled = [host_s for chunks in reps for host_s in chunks]
    if isinstance(workload, SimulatorWorkload):
        samples = scaled
    else:
        decisions = workload.is_decision * len(reps)
        samples = [
            host_s for host_s, decision in zip(scaled, decisions) if decision
        ]
    outcome = outcomes[0]
    ops_per_s = len(scaled) / sum(scaled)
    op_p50_ms = statistics.median(samples) * 1e3
    setup_s = statistics.median(setups)
    rss = peak_rss_mb()
    metrics: Dict[str, Metric] = {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (op_p50_ms, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    if isinstance(workload, SimulatorWorkload):
        report = [
            ("sim_per_wall", ops_per_s, "sim-s/s"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", rss, "MB"),
            ("startup_p50_s", outcome["startup_p50_s"], "s"),
            ("startup_p98_s", outcome["startup_p98_s"], "s"),
            ("start_fail_ratio", outcome["start_fail_ratio"], "fraction"),
            ("block_loss_ratio", outcome["block_loss_ratio"], "fraction"),
        ]
    else:
        report = [
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", rss, "MB"),
            ("admit_p50_ms", op_p50_ms, "ms"),
            ("admit_p99_ms", percentile(samples, 0.99) * 1e3, "ms"),
            ("mbr_ops_per_s", ops_per_s, "ops/s"),
            ("admit_accept_ratio", outcome["admit_accept_ratio"], "fraction"),
            ("net_utilization", outcome["net_utilization"], "fraction"),
        ]
    attempted, failed = workload.tally(outcome)
    return {
        "kind": "clean",
        "error": None,
        "reps": len(reps),
        "speed_factors": factors,
        "calibration_samples": len(calibrator.samples),
        "setup_samples": len(setups),
        "samples": len(samples),
        "op_unit": workload.op_unit,
        "outcome": outcome,
        "checks": merge_checks(checks),
        "attempted": attempted * len(reps),
        "failed": failed * len(reps),
        "metrics": metrics,
        "report": report,
    }


def traced_run(workload) -> Dict[str, Any]:
    """One clean drive, then one traced drive of the same work."""
    timed_setup(workload)
    started = perf_counter()
    workload.drive()
    clean_drive_s = perf_counter() - started
    if workload.error is not None:
        return failed_result(workload, "traced")
    clean_outcome = workload.outcome()
    workload.teardown()
    gc.collect()

    recorder = SpanRecorder()
    with installed(recorder):
        workload.setup()
        recorder.enter("drive")
        recorder.reset_covered()
        started = perf_counter()
        workload.drive()
        traced_drive_s = perf_counter() - started
        covered_s = recorder.covered_s
        recorder.enter("after")
        if workload.error is not None:
            return failed_result(workload, "traced")
        outcome = workload.outcome()
        checks = workload.checks(outcome)
    workload.teardown()

    accounted = covered_s / traced_drive_s
    checks += [
        ("traced_equals_clean", outcome == clean_outcome,
         "tracing left the simulated results unchanged"
         if outcome == clean_outcome else
         "tracing changed the simulated results"),
        ("layer_accounting", accounted >= ACCOUNTED_MIN,
         f"layer self times cover {accounted:.1%} of the traced drive"),
    ]
    metrics = layer_metrics(recorder, outcome)
    metrics["trace_overhead_ratio"] = (traced_drive_s / clean_drive_s, "ratio")
    metrics["trace.accounted_ratio"] = (accounted, "ratio")
    attempted, failed = workload.tally(outcome)
    return {
        "kind": "traced",
        "error": None,
        "outcome": outcome,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": [],
        "clean_drive_s": clean_drive_s,
        "traced_drive_s": traced_drive_s,
        "layers": recorder.layer_table("drive"),
        "setup_layers": recorder.layer_table("setup"),
        "spans": recorder.span_rows("drive"),
    }


def layer_metrics(recorder: SpanRecorder, outcome: Dict[str, Any]):
    """The per-layer metrics of a traced drive (zero where unused)."""
    table = recorder.layer_table("drive")
    counts = recorder.counts["drive"]

    def calls(layer: str) -> int:
        return int(table.get(layer, {}).get("calls", 0))

    def self_s(layer: str) -> float:
        return table.get(layer, {}).get("self_s", 0.0)

    def span(name: str) -> Tuple[int, float]:
        return recorder.span("drive", name)

    def simulated(name: str, unit: str) -> Metric:
        return (outcome.get(name, 0), unit)

    events = outcome.get("events", 0)
    sends = [span("net.send"), span("net.send_paced")]
    admits = span("mbr.try_admit")[0]
    metrics: Dict[str, Metric] = {
        "sim.events": (events, "count"),
        "sim.self_s": (self_s("sim"), "s"),
        "sim.us_per_event": (
            self_s("sim") / events * 1e6 if events else 0.0, "us"
        ),
        "sim.cancelled_ratio": (
            counts["cancelled"] / counts["scheduled"]
            if counts["scheduled"] else 0.0, "ratio"
        ),
        "sim.heap_peak": (counts["pending_peak"], "count"),
        "net.send.calls": (sum(c for c, _ in sends), "count"),
        "net.send.self_s": (sum(s for _, s in sends), "s"),
        "net.bytes": simulated("net.bytes", "bytes"),
        "net.drops": simulated("net.drops", "count"),
        "net.nic_busy_ratio": simulated("net.nic_busy_ratio", "ratio"),
        "disk.read.calls": (span("disk.read")[0], "count"),
        "disk.read.self_s": (span("disk.read")[1], "s"),
        "disk.read_errors": simulated("disk.read_errors", "count"),
        "disk.busy_ratio": simulated("disk.busy_ratio", "ratio"),
        "core.cub.calls": (calls("core.cub"), "count"),
        "core.cub.self_s": (self_s("core.cub"), "s"),
    }
    for name in PROTOCOL_COUNTERS:
        metrics[name] = simulated(name, "count")
    metrics.update({
        "cub.server_missed_blocks": simulated("cub.server_missed_blocks", "count"),
        "core.cub.cpu_util": simulated("core.cub.cpu_util", "ratio"),
        "core.cub.queued_starts_peak": simulated(
            "core.cub.queued_starts_peak", "count"
        ),
        "core.cub.forwards_per_block": simulated(
            "core.cub.forwards_per_block", "ratio"
        ),
        "core.controller.calls": (calls("core.controller"), "count"),
        "core.controller.self_s": (self_s("core.controller"), "s"),
        "controller.starts_routed": simulated("controller.starts_routed", "count"),
        "core.controller.cpu_util": simulated("core.controller.cpu_util", "ratio"),
        "core.client.calls": (calls("core.client"), "count"),
        "core.client.self_s": (self_s("core.client"), "s"),
        "core.client.blocks_received": (outcome.get("blocks_received", 0), "count"),
        "core.client.blocks_corrupt": (outcome.get("blocks_corrupt", 0), "count"),
    })
    for method in ("find_offsets", "can_insert", "peak_load_in", "load_at",
                   "insert", "remove"):
        metrics[f"core.netschedule.{method}.calls"] = (
            span(f"core.netschedule.{method}")[0], "count"
        )
    metrics.update({
        "core.netschedule.self_s": (self_s("core.netschedule"), "s"),
        "core.netschedule.find_offsets.self_s": (
            span("core.netschedule.find_offsets")[1], "s"
        ),
        "core.netschedule.probes_per_decision": (
            span("core.netschedule.load_at")[0] / admits if admits else 0.0,
            "count",
        ),
        "mbr.try_admit.self_s": (span("mbr.try_admit")[1], "s"),
        "mbr.release.self_s": (span("mbr.release")[1], "s"),
        "mbr.disk_time_committed.self_s": (
            span("mbr.disk_time_committed")[1], "s"
        ),
        "storage.index.self_s": (recorder.span("setup", "storage.index")[1], "s"),
        "storage.index.entries": simulated("storage.index.entries", "count"),
        "obs.calls": (calls("obs"), "count"),
        "obs.self_s": (self_s("obs"), "s"),
    })
    return metrics
