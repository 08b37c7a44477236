"""The performance benchmark harness behind ``repro bench``.

Runs a fixed matrix of workloads against the simulated Tiger system and
writes machine-readable ``BENCH_<name>.json`` files:

* ``kernel`` — idle-schedule tick: the paper configuration with zero
  viewers, so only heartbeats, pumps, and deadman sweeps run.  Measures
  the event-kernel floor.
* ``fig8``  — full-load service: the §5 testbed (14 cubs, 602 streams)
  at capacity, the workload behind the paper's Figure 8.
* ``chaos`` — the standard fault mix at 50% load under the invariant
  monitor (drops, a cub crash-restart, a controller kill).
* ``scale`` — cub-count sweep (4 → 64 cubs at ~50% load), probing the
  §3.3 claim that per-cub work stays constant as the system grows.
* ``live``  — wire-codec throughput over a seeded arrival-trace frame
  mix, plus — full mode only — a real-socket cluster
  run whose noisy stats land in an ungated ``cluster`` section (see
  :mod:`repro.bench.live`).
* ``mbr``   — multiple-bitrate admission: a seeded admit/release loop
  against one ``MbrAdmission`` and its network schedule, with no
  simulator (see :mod:`repro.bench.mbr`).

Each workload is measured twice: a **clean pass** (no instrumentation)
for events/sec and sim-seconds-per-wall-second, and an **instrumented
pass** (``EventLoopProfiler`` + ``tracemalloc``) for the per-handler
top-10 and heap statistics.  The protocol counters from both passes
must match exactly — a free determinism check on every bench run.

``diff_results`` implements the ``--baseline`` gate: protocol counters
compare **exactly** (they are a pure function of config + seed, so any
drift is a behaviour change), throughput regresses the gate only beyond
a configurable tolerance (default 10%), since events/sec is machine-
dependent.
"""

from __future__ import annotations

import json
import os
import platform
import tracemalloc
from dataclasses import dataclass, field, replace
from time import perf_counter, process_time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.config import TigerConfig, paper_config, small_config
from repro.core.tiger import TigerSystem
from repro.obs.profiler import EventLoopProfiler
from repro.obs.registry import merge_snapshots, snapshot_total
from repro.sim.parallel import derive_seed, run_group_pool
from repro.workloads.generator import ContinuousWorkload

#: Schema version stamped into every BENCH_*.json.
BENCH_FORMAT = 1

#: The seven protocol counter families the acceptance criteria require
#: to stay bit-identical across optimization work (same config + seed).
PROTOCOL_COUNTERS = (
    "cub.viewer_states_forwarded",
    "cub.deschedules_forwarded",
    "cub.inserts_performed",
    "cub.admission_rejects",
    "cub.mirror_covers",
    "cub.blocks_sent",
    "cub.deadman_resurrections",
)

#: Default relative events/sec drop tolerated by the baseline gate.
DEFAULT_PERF_TOLERANCE = 0.10

#: Cub counts exercised by the scale sweep.
SCALE_CUBS_FULL = (4, 8, 16, 32, 64)
SCALE_CUBS_QUICK = (4, 8, 16)

#: Large-system tiers (full mode only): each is measured twice — one
#: monolithic single-heap system, and the same cub count partitioned
#: into :data:`SCALE_TIER_GROUPS` independent cub-group subsystems run
#: via :func:`repro.sim.parallel.run_group_pool`.  The ratio of the two
#: events/sec figures (``shard_speedup``) is the scaling headline.
SCALE_TIERS = (256, 1024)
SCALE_TIER_GROUPS = 4
#: Sim-seconds per tier, sized so per-group work dwarfs pool overhead.
SCALE_TIER_SIM_SECONDS = {256: 40.0, 1024: 15.0}


@dataclass
class RunOutcome:
    """One measured execution of a workload."""

    events: int
    wall_s: float
    sim_seconds: float
    counters: Dict[str, int]
    handlers: List[Dict[str, Any]] = field(default_factory=list)
    memory: Dict[str, int] = field(default_factory=dict)

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def sim_per_wall(self) -> float:
        return self.sim_seconds / self.wall_s if self.wall_s > 0 else 0.0

    def perf_dict(self) -> Dict[str, Any]:
        return {
            "events": self.events,
            "wall_s": round(self.wall_s, 6),
            "events_per_sec": round(self.events_per_sec, 1),
            "sim_seconds": round(self.sim_seconds, 6),
            "sim_per_wall": round(self.sim_per_wall, 2),
        }


def protocol_counters(registry) -> Dict[str, int]:
    """Read the seven acceptance counters from a metrics registry."""
    snap = registry.snapshot()
    return {
        name: int(snapshot_total(snap, name)) for name in PROTOCOL_COUNTERS
    }


def _profiler_rows(profiler: EventLoopProfiler, top: int = 10) -> List[Dict[str, Any]]:
    return [
        {"name": name, "calls": calls, "wall_s": round(wall_s, 6)}
        for name, calls, wall_s in profiler.rows()[:top]
    ]


def _timed_system_run(
    build: Callable[[], Tuple[TigerSystem, float]],
    profiler: Optional[EventLoopProfiler],
) -> RunOutcome:
    """Build a system, run it for its window, and account the run.

    ``build`` constructs the system (and workload) and returns it with
    the simulated duration to drive; only the drive itself is timed, so
    construction cost never pollutes events/sec.
    """
    system, sim_seconds = build()
    if profiler is not None:
        system.sim.set_profiler(profiler)
    events_before = system.sim.events_dispatched
    now_before = system.sim.now
    started = perf_counter()
    system.run_for(sim_seconds)
    wall = perf_counter() - started
    system.finalize_clients()
    system.export_metrics()
    return RunOutcome(
        events=system.sim.events_dispatched - events_before,
        wall_s=wall,
        sim_seconds=system.sim.now - now_before,
        counters=protocol_counters(system.registry),
    )


# ----------------------------------------------------------------------
# Workload definitions
# ----------------------------------------------------------------------
def _bench_config(base: TigerConfig, placement: Optional[str]) -> TigerConfig:
    """Apply the --placement override; None keeps the baseline config."""
    if placement is None or placement == base.placement:
        return base
    return replace(base, placement=placement)


def _kernel_build(
    seed: int, sim_seconds: float, placement: Optional[str] = None
):
    def build() -> Tuple[TigerSystem, float]:
        config = _bench_config(paper_config(), placement)
        system = TigerSystem(config, seed=seed)
        system.add_standard_content(num_files=8, duration_s=240.0)
        return system, sim_seconds

    return build


def _fig8_build(
    seed: int, sim_seconds: float, placement: Optional[str] = None
):
    def build() -> Tuple[TigerSystem, float]:
        config = _bench_config(paper_config(), placement)
        system = TigerSystem(config, seed=seed)
        system.add_standard_content(num_files=8, duration_s=240.0)
        workload = ContinuousWorkload(system)
        workload.add_streams(system.config.num_slots)
        return system, sim_seconds

    return build


def _run_kernel(
    seed: int, quick: bool, profiler=None, placement: Optional[str] = None
) -> Tuple[RunOutcome, Dict]:
    sim_seconds = 30.0 if quick else 120.0
    outcome = _timed_system_run(
        _kernel_build(seed, sim_seconds, placement), profiler
    )
    params = {
        "config": "paper",
        "streams": 0,
        "sim_seconds": sim_seconds,
    }
    return outcome, params


def _run_fig8(
    seed: int, quick: bool, profiler=None, placement: Optional[str] = None
) -> Tuple[RunOutcome, Dict]:
    sim_seconds = 10.0 if quick else 30.0
    outcome = _timed_system_run(
        _fig8_build(seed, sim_seconds, placement), profiler
    )
    params = {
        "config": "paper",
        "streams": paper_config().num_slots,
        "sim_seconds": sim_seconds,
    }
    return outcome, params


def _run_chaos(
    seed: int, quick: bool, profiler=None, placement: Optional[str] = None
) -> Tuple[RunOutcome, Dict]:
    # Imported lazily so a plain kernel bench never touches the faults
    # machinery.
    from repro.faults.harness import ChaosHarness, standard_chaos_plan

    duration = 45.0 if quick else 90.0
    plan = standard_chaos_plan(duration=duration)
    harness = ChaosHarness(
        _bench_config(small_config(), placement),
        plan,
        seed=seed,
        load=0.5,
        duration=duration,
        profiler=profiler,
    )
    started = perf_counter()
    harness.run()
    wall = perf_counter() - started
    system = harness.system
    outcome = RunOutcome(
        events=system.sim.events_dispatched,
        wall_s=wall,
        sim_seconds=system.sim.now,
        counters=protocol_counters(system.registry),
    )
    params = {
        "config": "small",
        "load": 0.5,
        "plan": plan.name,
        "sim_seconds": duration,
    }
    return outcome, params


def _scale_config(num_cubs: int) -> TigerConfig:
    return TigerConfig(
        num_cubs=num_cubs,
        disks_per_cub=2,
        block_play_time=1.0,
        max_bitrate_bps=2e6,
        decluster=2,
        streams_per_disk_override=4.0,
    )


def _scale_build(num_cubs: int, seed: int, sim_seconds: float):
    def build() -> Tuple[TigerSystem, float]:
        config = _scale_config(num_cubs)
        system = TigerSystem(config, seed=seed)
        system.add_standard_content(num_files=8, duration_s=240.0)
        workload = ContinuousWorkload(system)
        workload.add_streams(max(1, config.num_slots // 2))
        return system, sim_seconds

    return build


def _scale_group_run(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one cub-group subsystem of a partitioned scale tier.

    Top-level (picklable) so it can run in a ``spawn`` pool worker.  A
    spawned child is a fresh interpreter, so the run is a pure function
    of the spec — the per-group results merge deterministically no
    matter which worker executed which group.  Returns the group's raw
    event accounting plus a full registry snapshot; the parent merges
    snapshots with :func:`repro.obs.registry.merge_snapshots`.

    The drive is timed with :func:`time.process_time` (``cpu_s``): when
    several workers share cores, a worker's wall clock counts time it
    spent descheduled while its siblings ran, but its CPU clock counts
    only its own dispatching — the per-group figure the decomposition
    comparison needs.  Wall time is reported too (``wall_s``).
    """
    build = _scale_build(spec["num_cubs"], spec["seed"], spec["sim_seconds"])
    system, sim_seconds = build()
    wall_started = perf_counter()
    cpu_started = process_time()
    system.run_for(sim_seconds)
    cpu = process_time() - cpu_started
    wall = perf_counter() - wall_started
    system.finalize_clients()
    system.export_metrics()
    return {
        "group": spec["group"],
        "events": system.sim.events_dispatched,
        "cpu_s": cpu,
        "wall_s": wall,
        "sim_seconds": system.sim.now,
        "streams": max(1, system.config.num_slots // 2),
        "snapshot": system.registry.snapshot(),
    }


def _run_scale_tier(
    tier_cubs: int, seed: int, shards: int
) -> Dict[str, Any]:
    """Measure one large-system tier: monolith vs partitioned groups.

    The monolith is one single-heap :class:`TigerSystem` with
    ``tier_cubs`` cubs — the "1 shard" end of the scaling claim.  The
    partitioned side splits the same cub count into
    :data:`SCALE_TIER_GROUPS` independent cub-group subsystems and runs
    them through :func:`run_group_pool` on ``shards`` workers.

    Both sides keep the harness convention that only the simulation
    drive is timed, and both are measured by the same clock —
    **per-process CPU time** of the drive, via the same
    :func:`_scale_group_run` worker.  CPU time rather than wall time:
    when pool workers share cores, a worker's wall clock charges it for
    time spent descheduled while its siblings ran, which would make the
    comparison depend on host core count rather than on the kernels
    under test.

    The partitioned ``perf`` is the sharded system's **aggregate**
    throughput: total events over the *slowest group's* drive CPU time
    (the critical path — the makespan when each shard has a core of its
    own, which is the deployment the partitioning targets).  That is
    the standard aggregate-capacity figure for a sharded system, and
    ``shard_speedup`` is its ratio to the monolith's events/sec.  Two
    companion fields keep single-host reality in view: ``cpu_total_s``
    (the summed drive CPU across groups — the decomposition cost: at
    1024 cubs it comes in *below* the monolith's because four small
    event heaps beat one giant cache-hostile one, while at 256 cubs the
    groups pay a premium in per-ring protocol overhead) and
    ``pool_wall_s`` (the measured end-to-end pool time, which on a
    single-core host shows the shards time-slicing rather than
    overlapping).

    Counters on both sides are exact-gated by ``diff_results``; the
    partitioned counters are merged across groups with
    ``merge_snapshots``, which must not double-count (each group is a
    distinct registry).
    """
    sim_seconds = SCALE_TIER_SIM_SECONDS[tier_cubs]
    group_cubs = tier_cubs // SCALE_TIER_GROUPS

    mono_row = _scale_group_run(
        {
            "group": -1,
            "num_cubs": tier_cubs,
            "seed": seed,
            "sim_seconds": sim_seconds,
        }
    )
    monolith = RunOutcome(
        events=mono_row["events"],
        wall_s=mono_row["cpu_s"],
        sim_seconds=sim_seconds,
        counters={
            name: int(snapshot_total(mono_row["snapshot"], name))
            for name in PROTOCOL_COUNTERS
        },
    )

    specs = [
        {
            "group": index,
            "num_cubs": group_cubs,
            "seed": derive_seed(seed, index),
            "sim_seconds": sim_seconds,
        }
        for index in range(SCALE_TIER_GROUPS)
    ]
    results, pool_wall = run_group_pool(_scale_group_run, specs, shards)
    merged = merge_snapshots([row["snapshot"] for row in results])
    partitioned = RunOutcome(
        events=sum(row["events"] for row in results),
        wall_s=max(row["cpu_s"] for row in results),
        sim_seconds=sim_seconds,
        counters={
            name: int(snapshot_total(merged, name))
            for name in PROTOCOL_COUNTERS
        },
    )
    mono_eps = monolith.events_per_sec
    speedup = partitioned.events_per_sec / mono_eps if mono_eps > 0 else 0.0
    return {
        "cubs": tier_cubs,
        "groups": SCALE_TIER_GROUPS,
        "cubs_per_group": group_cubs,
        "shards": shards,
        "streams": sum(row["streams"] for row in results),
        "monolith_perf": monolith.perf_dict(),
        "monolith_counters": monolith.counters,
        "perf": partitioned.perf_dict(),
        "cpu_total_s": round(sum(row["cpu_s"] for row in results), 6),
        "pool_wall_s": round(pool_wall, 6),
        "counters": partitioned.counters,
        "events_per_cub_sec": round(
            partitioned.events / tier_cubs / sim_seconds, 1
        ),
        "shard_speedup": round(speedup, 2),
    }


# ----------------------------------------------------------------------
# Result assembly
# ----------------------------------------------------------------------
_WORKLOAD_RUNNERS = {
    "kernel": _run_kernel,
    "fig8": _run_fig8,
    "chaos": _run_chaos,
}

#: Workload names in canonical execution order.
WORKLOADS = (
    "kernel", "fig8", "chaos", "scale", "live", "helpers", "placement",
    "restripe", "mbr",
)


class BenchError(RuntimeError):
    """Raised when a bench run is internally inconsistent."""


def _base_result(name: str, mode: str, seed: int, params: Dict) -> Dict[str, Any]:
    return {
        "bench_format": BENCH_FORMAT,
        "name": name,
        "mode": mode,
        "seed": seed,
        "python": platform.python_version(),
        "params": params,
    }


def _instrumented(
    run, seed: int, quick: bool, placement: Optional[str] = None
) -> Tuple[List[Dict], Dict, Dict]:
    """Second pass: profiler + tracemalloc.  Returns (handlers, memory,
    counters) — counters are cross-checked against the clean pass."""
    profiler = EventLoopProfiler()
    tracemalloc.start()
    try:
        outcome, _ = run(seed, quick, profiler=profiler, placement=placement)
        current, peak = tracemalloc.get_traced_memory()
        stats = tracemalloc.take_snapshot().statistics("filename")
    finally:
        tracemalloc.stop()
    memory = {
        "peak_heap_bytes": peak,
        "current_heap_bytes": current,
        "live_blocks": sum(stat.count for stat in stats),
        "live_bytes": sum(stat.size for stat in stats),
    }
    return _profiler_rows(profiler), memory, outcome.counters


def run_workload(
    name: str,
    seed: int = 0,
    quick: bool = False,
    with_memory: bool = True,
    shards: int = 1,
    helpers: Optional[int] = None,
    helper_capacity: Optional[int] = None,
    helper_policy: Optional[str] = None,
    placement: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one named workload and return its BENCH result dict.

    :param name: ``kernel``, ``fig8``, ``chaos``, ``scale``, ``live``,
        ``helpers``, ``placement``, ``restripe`` or ``mbr``.
    :param seed: RNG seed for the run (stamped into the result).
    :param quick: Reduced-scale variant (CI smoke).
    :param with_memory: Skip the instrumented pass when False (faster;
        ``handlers``/``memory`` are then empty).
    :param shards: Spawn-worker count driving the ``scale`` tier's
        partitioned groups; every other workload ignores it.
    :param placement: Slot-placement policy override for the
        ``kernel``/``fig8``/``chaos`` tiers (None keeps each tier's
        baseline config; the ``placement`` tier always compares all
        policies).  Non-default policies change the gated counters, so
        committed baselines only apply at the default.
    """
    if shards < 1:
        raise BenchError(f"shards must be >= 1, got {shards}")
    if name == "scale":
        return _run_scale_workload(seed=seed, quick=quick, shards=shards)
    if name == "live":
        # Imported lazily: the live tier drags in the socket backend.
        from repro.bench.live import run_live_workload

        return run_live_workload(seed=seed, quick=quick)
    if name == "placement":
        # Imported lazily: the policy tier drags in the workload stack.
        from repro.bench.placement import run_placement_workload

        return run_placement_workload(seed=seed, quick=quick)
    if name == "restripe":
        # Imported lazily: drags in the rebalancer and faults stack.
        from repro.bench.restripe import run_restripe_workload

        return run_restripe_workload(seed=seed, quick=quick)
    if name == "mbr":
        from repro.bench.mbr import run_mbr_workload

        return run_mbr_workload(seed=seed, quick=quick)
    if name == "helpers":
        # Imported lazily: the edge tier drags in the helper subsystem.
        from repro.bench.helpers import run_helpers_workload

        overrides = {
            key: value
            for key, value in (
                ("helpers", helpers),
                ("helper_capacity", helper_capacity),
                ("helper_policy", helper_policy),
            )
            if value is not None
        }
        return run_helpers_workload(seed=seed, quick=quick, **overrides)
    runner = _WORKLOAD_RUNNERS.get(name)
    if runner is None:
        raise BenchError(f"unknown workload {name!r} (have {WORKLOADS})")
    clean, params = runner(seed, quick, placement=placement)
    result = _base_result(name, "quick" if quick else "full", seed, params)
    result["perf"] = clean.perf_dict()
    result["counters"] = clean.counters
    if with_memory:
        handlers, memory, counters = _instrumented(
            runner, seed, quick, placement=placement
        )
        if counters != clean.counters:
            raise BenchError(
                f"workload {name!r} is nondeterministic: instrumented pass "
                f"counters {counters} != clean pass {clean.counters}"
            )
        result["handlers"] = handlers
        result["memory"] = memory
    else:
        result["handlers"] = []
        result["memory"] = {}
    return result


def _run_scale_workload(
    seed: int = 0, quick: bool = False, shards: int = 1
) -> Dict[str, Any]:
    """Cub-count sweep; one clean timing pass per size.

    Full mode appends the :data:`SCALE_TIERS` rows (256 and 1024 cubs),
    each carrying both a monolithic single-heap measurement and the
    partitioned-groups measurement with its ``shard_speedup`` ratio;
    quick mode (CI smoke) stops at the classic sweep.
    """
    sizes = SCALE_CUBS_QUICK if quick else SCALE_CUBS_FULL
    sim_seconds = 10.0 if quick else 20.0
    sweep: List[Dict[str, Any]] = []
    for num_cubs in sizes:
        config = _scale_config(num_cubs)
        outcome = _timed_system_run(
            _scale_build(num_cubs, seed, sim_seconds), profiler=None
        )
        sweep.append(
            {
                "cubs": num_cubs,
                "streams": max(1, config.num_slots // 2),
                "perf": outcome.perf_dict(),
                "events_per_cub_sec": round(
                    outcome.events / num_cubs / outcome.sim_seconds, 1
                )
                if outcome.sim_seconds > 0
                else 0.0,
                "counters": outcome.counters,
            }
        )
    if not quick:
        for tier_cubs in SCALE_TIERS:
            sweep.append(_run_scale_tier(tier_cubs, seed, shards))
    result = _base_result(
        "scale",
        "quick" if quick else "full",
        seed,
        {
            "cubs": list(sizes) + ([] if quick else list(SCALE_TIERS)),
            "load": 0.5,
            "sim_seconds": sim_seconds,
            "shards": shards,
        },
    )
    # Top-level perf mirrors the largest size so the baseline gate has a
    # single headline number to check.
    result["perf"] = sweep[-1]["perf"]
    result["counters"] = sweep[-1]["counters"]
    result["sweep"] = sweep
    result["handlers"] = []
    result["memory"] = {}
    return result


# ----------------------------------------------------------------------
# Persistence and the baseline gate
# ----------------------------------------------------------------------
def result_filename(name: str) -> str:
    return f"BENCH_{name}.json"


def write_result(result: Dict[str, Any], out_dir: str) -> str:
    """Write one result as ``BENCH_<name>.json`` under ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, result_filename(result["name"]))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_result(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        result = json.load(handle)
    if result.get("bench_format") != BENCH_FORMAT:
        raise BenchError(
            f"{path}: bench_format {result.get('bench_format')!r} "
            f"(this tool reads {BENCH_FORMAT})"
        )
    return result


def _perf_regression(
    label: str, current: Dict, baseline: Dict, tolerance: float
) -> List[str]:
    problems: List[str] = []
    base_eps = baseline.get("events_per_sec", 0.0)
    cur_eps = current.get("events_per_sec", 0.0)
    if tolerance > 0 and base_eps > 0 and cur_eps < base_eps * (1.0 - tolerance):
        problems.append(
            f"{label}: events/sec regressed {base_eps:.0f} -> {cur_eps:.0f} "
            f"({cur_eps / base_eps - 1.0:+.1%}, tolerance -{tolerance:.0%})"
        )
    return problems


def _counter_drift(label: str, current: Dict, baseline: Dict) -> List[str]:
    problems: List[str] = []
    for key in sorted(baseline):
        if current.get(key) != baseline[key]:
            problems.append(
                f"{label}: counter {key} changed "
                f"{baseline[key]} -> {current.get(key)} (exact match required)"
            )
    return problems


def diff_results(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    perf_tolerance: float = DEFAULT_PERF_TOLERANCE,
) -> List[str]:
    """Compare a bench result against a baseline.

    :returns: A list of human-readable problems; empty means the gate
        passes.  Protocol counters must match exactly; events/sec may
        drop by at most ``perf_tolerance`` (set <= 0 to skip the perf
        check, e.g. across different machines).
    """
    name = current.get("name", "?")
    problems: List[str] = []
    for key in ("name", "mode", "seed"):
        if current.get(key) != baseline.get(key):
            problems.append(
                f"{name}: {key} mismatch (current {current.get(key)!r}, "
                f"baseline {baseline.get(key)!r}) — results not comparable"
            )
    if problems:
        return problems
    problems += _counter_drift(
        name, current.get("counters", {}), baseline.get("counters", {})
    )
    problems += _perf_regression(
        name, current.get("perf", {}), baseline.get("perf", {}), perf_tolerance
    )
    base_sweep = {row["cubs"]: row for row in baseline.get("sweep", [])}
    cur_sweep = {row["cubs"]: row for row in current.get("sweep", [])}
    for cubs, base_row in sorted(base_sweep.items()):
        cur_row = cur_sweep.get(cubs)
        label = f"{name}[cubs={cubs}]"
        if cur_row is None:
            problems.append(f"{label}: missing from current sweep")
            continue
        problems += _counter_drift(
            label, cur_row.get("counters", {}), base_row.get("counters", {})
        )
        problems += _perf_regression(
            label, cur_row.get("perf", {}), base_row.get("perf", {}),
            perf_tolerance,
        )
        # Tier rows carry a second (monolithic single-heap) measurement;
        # its counters are exact-gated too — the monolith and the
        # partitioned groups must BOTH replay bit-identically.
        if "monolith_counters" in base_row:
            problems += _counter_drift(
                f"{label} monolith",
                cur_row.get("monolith_counters", {}),
                base_row.get("monolith_counters", {}),
            )
            problems += _perf_regression(
                f"{label} monolith",
                cur_row.get("monolith_perf", {}),
                base_row.get("monolith_perf", {}),
                perf_tolerance,
            )
    return problems


def summary_lines(result: Dict[str, Any]) -> List[str]:
    """Human-readable one-screen summary of a bench result."""
    perf = result.get("perf", {})
    head = f"{result['name']:<8} [{result['mode']}] "
    if "events" in perf:
        head += (
            f"{perf['events']:>9d} events in {perf.get('wall_s', 0.0):7.2f}s "
            f"= {perf.get('events_per_sec', 0.0):>10.0f} ev/s, "
            f"{perf.get('sim_per_wall', 0.0):6.1f}x real time"
        )
    else:
        # Tiers with no simulator (mbr) count calls, not events.
        head += (
            f"{perf.get('ops', 0):>9d} ops in {perf.get('wall_s', 0.0):7.2f}s "
            f"= {perf.get('ops_per_sec', 0.0):>10.0f} ops/s"
        )
    out = [head]
    memory = result.get("memory") or {}
    if memory:
        out.append(
            f"         peak heap {memory.get('peak_heap_bytes', 0) / 1e6:.1f} MB, "
            f"{memory.get('live_blocks', 0)} live blocks "
            f"({memory.get('live_bytes', 0) / 1e6:.1f} MB live)"
        )
    for row in result.get("handlers", [])[:5]:
        mean_us = row["wall_s"] / row["calls"] * 1e6 if row["calls"] else 0.0
        out.append(
            f"         {row['name']:<48s} {row['calls']:>8d} calls "
            f"{row['wall_s'] * 1e3:9.2f} ms ({mean_us:6.1f} us/call)"
        )
    for row in result.get("codecs", []):
        out.append(
            f"         codec={row['codec']:<7s} {row['frames']:>7d} frames "
            f"{row['bytes'] / 1e6:7.2f} MB  "
            f"{row['frames_per_sec']:>10.0f} frames/s "
            f"({row['mean_frame_bytes']:.0f} B/frame)"
        )
    for experiment in result.get("experiments", []):
        for line in experiment.get("lines", []):
            out.append(f"         {line}")
    cluster = result.get("cluster") or {}
    if cluster:
        out.append(
            f"         cluster: {cluster.get('viewers', 0)} viewers on "
            f"{cluster.get('cubs', 0)} cubs/{cluster.get('hubs', 0)} hubs, "
            f"{cluster.get('viewers_admitted_per_sec', 0.0):.1f} admitted/s, "
            f"p99 lateness {cluster.get('block_lateness_p99_s', 0.0):.3f}s, "
            f"{'PASS' if cluster.get('passed') else 'FAIL'}"
        )
    for row in result.get("sweep", []):
        line = (
            f"         cubs={row['cubs']:<4d} streams={row['streams']:<5d} "
            f"{row['perf']['events_per_sec']:>10.0f} ev/s  "
            f"{row['events_per_cub_sec']:>8.1f} ev/cub/sim-s"
        )
        if "shard_speedup" in row:
            line += (
                f"  ({row['groups']}x{row['cubs_per_group']} groups on "
                f"{row['shards']} worker(s): {row['shard_speedup']:.2f}x "
                f"vs monolith "
                f"{row['monolith_perf']['events_per_sec']:.0f} ev/s)"
            )
        out.append(line)
    return out


def run_bench(
    workloads: Optional[List[str]] = None,
    out_dir: str = ".",
    seed: int = 0,
    quick: bool = False,
    with_memory: bool = True,
    baseline_dir: Optional[str] = None,
    perf_tolerance: float = DEFAULT_PERF_TOLERANCE,
    echo: Callable[[str], None] = print,
    shards: int = 1,
    helpers: Optional[int] = None,
    helper_capacity: Optional[int] = None,
    helper_policy: Optional[str] = None,
    placement: Optional[str] = None,
) -> int:
    """Run the bench matrix end to end; returns a process exit code.

    Writes one ``BENCH_<name>.json`` per workload into ``out_dir``; with
    ``baseline_dir``, diffs each result against the committed baseline
    and returns 1 on any regression.  ``shards`` sets the ``scale``
    tier's spawn-worker count (see :func:`run_workload`).
    """
    names = list(workloads) if workloads else list(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            echo(f"error: unknown workload {name!r} (have {', '.join(WORKLOADS)})")
            return 2
    failures: List[str] = []
    for name in names:
        result = run_workload(
            name, seed=seed, quick=quick, with_memory=with_memory,
            shards=shards, helpers=helpers,
            helper_capacity=helper_capacity, helper_policy=helper_policy,
            placement=placement,
        )
        path = write_result(result, out_dir)
        for line in summary_lines(result):
            echo(line)
        echo(f"         -> {path}")
        if baseline_dir is not None:
            base_path = os.path.join(baseline_dir, result_filename(name))
            if not os.path.exists(base_path):
                echo(f"         (no baseline at {base_path}; skipping diff)")
                continue
            problems = diff_results(
                result, load_result(base_path), perf_tolerance=perf_tolerance
            )
            if problems:
                failures += problems
                for problem in problems:
                    echo(f"         REGRESSION {problem}")
            else:
                echo(f"         baseline diff vs {base_path}: OK")
    if failures:
        echo(f"\n{len(failures)} regression(s) against baseline")
        return 1
    return 0
