"""Every example must compile AND run headlessly from a bare checkout.

"Headlessly" is the part that catches real drift: the test suite runs
with ``PYTHONPATH=src`` in the environment, and ``subprocess.run``
inherits it — so an example with a broken import chain still passed a
naive execution test.  Here the variable is stripped from the child
environment, which is exactly what a user typing
``python examples/quickstart.py`` gets; the ``_bootstrap`` shim inside
each example has to do the path work itself.
"""

import os
import py_compile
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
ALL_EXAMPLES = [
    "quickstart.py",
    "failover_drill.py",
    "hot_movie_premiere.py",
    "multibitrate_schedule.py",
    "capacity_planning.py",
    "controller_failover.py",
    "mixed_bitrate_service.py",
    "schedule_gallery.py",
]

#: Output each example must produce — a marker from its final section,
#: so an example that half-runs and exits 0 still fails the smoke test.
#: The multibitrate marker pins the quantized packing's decisions, so a
#: placement search that silently changes them fails too.
EXPECTED_OUTPUT = {
    "quickstart.py": "Invariants hold",
    "capacity_planning.py": "central ctrl",
    "multibitrate_schedule.py": "quantized : 429 entries",
}


def _run_headless(script: str) -> subprocess.CompletedProcess:
    """Run one example the way a user would: no PYTHONPATH, plain python."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key != "PYTHONPATH"
    }
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, script)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


@pytest.mark.parametrize("script", ALL_EXAMPLES)
def test_example_compiles(script):
    py_compile.compile(os.path.join(EXAMPLES_DIR, script), doraise=True)


@pytest.mark.parametrize("script", ALL_EXAMPLES)
def test_example_runs_headless(script):
    result = _run_headless(script)
    assert result.returncode == 0, (
        f"{script} failed without PYTHONPATH:\n{result.stderr}"
    )
    marker = EXPECTED_OUTPUT.get(script)
    if marker is not None:
        assert marker in result.stdout, (
            f"{script} ran but did not print {marker!r}"
        )
