#!/usr/bin/env python3
"""Run the Tiger reproduction benchmark.

One workload, clean (end-to-end metrics) or traced (per-layer metrics)::

    python3 perfbench/run.py --workload fig8_steady --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload mbr_admission --seed 0 --seconds 30 --trace 1

Every workload, each clean and then traced, in child processes::

    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Run it from anywhere; it imports the program from ``src/`` next to this
directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A traced run
also writes its per-layer and per-span table to ``perfbench/out/``.
Exit status: 0 when every check passed, 1 when a check or the run
failed, 2 when the program or an argument is missing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("fig8_steady", "failover_churn", "mbr_admission")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="host seconds of repetitions in a clean run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_result(name: str, seed: int, result) -> None:
    print(f"workload {name}  seed {seed}  run {result['kind']}")
    if result["error"] is not None:
        at = result["error_time"]
        where = f" at t={at:.6f} sim-s" if at is not None else ""
        print(f"  error{where}: {result['error']}")
        print(f"  failed run: all {result['attempted']} requests count as "
              "failed; no latency or host numbers are reported")
    if result["kind"] == "clean" and result["error"] is None:
        factors = " ".join(f"{factor:.4f}" for factor in result["speed_factors"])
        print(f"  {result['reps']} repetitions, host times scaled to the "
              f"reference speed by factors {factors} "
              f"({result['calibration_samples']} calibration samples); "
              f"{result['samples']} samples per {result['op_unit']}; "
              f"set-up median of {result['setup_samples']}")
    for metric, value, unit in result["report"]:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {metric:<22} {shown:>14} {unit}")
    outcome = result.get("outcome")
    if outcome and "cub.blocks_sent" in outcome:
        counters = " ".join(
            f"{key}={outcome[key]}" for key in sorted(outcome)
            if key.startswith("cub.") and key != "cub.server_missed_blocks"
        )
        print(f"  counters: {counters}")
    if result["kind"] == "traced" and result["error"] is None:
        print(f"  drive host s: clean {result['clean_drive_s']:.4f}  "
              f"traced {result['traced_drive_s']:.4f}")
        print(f"  {'layer':<20} {'calls':>10} {'self_s':>10}")
        for layer, row in sorted(result["layers"].items(),
                                 key=lambda item: -item[1]["self_s"]):
            print(f"  {layer:<20} {row['calls']:>10} {row['self_s']:>10.4f}")
    for check, passed, detail in result["checks"]:
        print(f"  check {check:<22} {'ok' if passed else 'FAILED'}  {detail}")


def write_trace_table(name: str, seed: int, result) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}-layers.json"
    table = {
        "workload": name,
        "seed": seed,
        "clean_drive_s": result["clean_drive_s"],
        "traced_drive_s": result["traced_drive_s"],
        "metrics": {key: value for key, (value, _unit)
                    in result["metrics"].items()},
        "layers": result["layers"],
        "setup_layers": result["setup_layers"],
        "spans": result["spans"],
    }
    path.write_text(json.dumps(table, indent=1) + "\n")
    return path


def run_one(args) -> int:
    from perfbench.measure import clean_run, traced_run
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        result = traced_run(workload)
    else:
        result = clean_run(workload, args.seconds)
    print_result(args.workload, args.seed, result)
    if result["kind"] == "traced" and result["error"] is None:
        print(f"  table: {write_trace_table(args.workload, args.seed, result)}")
    correct = result["error"] is None and all(
        passed for _name, passed, _detail in result["checks"]
    )
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in result["metrics"].items()
        },
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload clean then traced, one child process per run, so
    each run's peak memory is its own."""
    status = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = child.stdout.splitlines() or [""]
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except ValueError:
                print(f"error: {name} trace {trace} printed no result")
                result = {"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}
            summary[f"{name}/trace{trace}"] = result
            status = max(status, child.returncode)
    print(json.dumps({
        "correct": all(run["correct"] for run in summary.values()),
        "attempted": sum(run["attempted"] for run in summary.values()),
        "failed": sum(run["failed"] for run in summary.values()),
        "metrics": {
            f"{run}.{key}": value
            for run, result in summary.items()
            for key, value in result["metrics"].items()
        },
    }))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing: no {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
