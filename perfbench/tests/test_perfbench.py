"""Determinism and layer-accounting tests of the benchmark.

Run from the repository root with ``python -m pytest perfbench/tests``.
The workloads are shortened here; the checks are the ones the benchmark
applies to its full-length runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.calibrate import Calibrator
from perfbench.measure import ACCOUNTED_MIN, traced_run
from perfbench.workloads import FailoverChurn, Fig8Steady, MbrAdmissionWorkload

ROOT = Path(__file__).resolve().parents[2]

SHORT = {
    "fig8_steady": lambda seed: Fig8Steady(seed, sim_seconds=15.0),
    "failover_churn": lambda seed: FailoverChurn(seed, sim_seconds=30.0),
    "mbr_admission": lambda seed: MbrAdmissionWorkload(seed, ops=400),
}


def clean_result(workload):
    """Simulated results of one clean run, or its error and sim time."""
    workload.setup()
    workload.drive()
    if workload.error is not None:
        return ("error", workload.error, workload.error_time)
    return ("ok", workload.outcome())


@pytest.mark.parametrize("name", sorted(SHORT))
def test_two_clean_runs_with_one_seed_agree(name):
    first = clean_result(SHORT[name](3))
    second = clean_result(SHORT[name](3))
    assert first == second


@pytest.mark.parametrize("name", ["fig8_steady", "mbr_admission"])
def test_calibration_between_chunks_leaves_results_unchanged(name):
    workload = SHORT[name](3)
    workload.setup()
    calibrator = Calibrator(workload.calibration)
    workload.drive(calibrator.poll)
    assert calibrator.samples
    assert ("ok", workload.outcome()) == clean_result(SHORT[name](3))


def test_seeds_give_different_inputs():
    assert FailoverChurn(0).arrivals != FailoverChurn(1).arrivals
    assert MbrAdmissionWorkload(0).plan != MbrAdmissionWorkload(1).plan


@pytest.mark.parametrize("name", ["fig8_steady", "mbr_admission"])
def test_traced_run_agrees_with_clean_and_accounts_for_its_time(name):
    result = traced_run(SHORT[name](0))
    checks = {check: passed for check, passed, _detail in result["checks"]}
    assert checks["traced_equals_clean"]
    assert checks["layer_accounting"]
    assert result["metrics"]["trace.accounted_ratio"][0] >= ACCOUNTED_MIN
    assert all(checks.values()), result["checks"]


def test_netschedule_runs_only_in_mbr_admission():
    fig8 = traced_run(SHORT["fig8_steady"](0))["metrics"]
    mbr = traced_run(SHORT["mbr_admission"](0))
    for method in ("find_offsets", "can_insert", "peak_load_in", "load_at",
                   "insert", "remove"):
        assert fig8[f"core.netschedule.{method}.calls"][0] == 0
        assert mbr["metrics"][f"core.netschedule.{method}.calls"][0] > 0
    share = mbr["metrics"]["core.netschedule.self_s"][0] / mbr["traced_drive_s"]
    assert share >= 0.5


def test_periodic_ticks_are_split_by_function():
    spans = {row["span"] for row in traced_run(SHORT["fig8_steady"](0))["spans"]}
    assert "repro.core.cub:Cub._pump" in spans
    assert "repro.core.cub:Cub._send_heartbeats" in spans
    assert "repro.sim.process:Process.every.<locals>.tick" in spans


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig8_steady",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60,
    )
    assert child.returncode != 0
    for line in child.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
