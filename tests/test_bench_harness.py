"""The benchmark harness still runs end to end against the current sources.

`bench/tracer.py` binds gnlab functions by name and reads some of their
arguments by position, so a rename or deletion in `src/` shows up here as an
absent metric; a broken result line shows up as unparsable JSON.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_trace_of_size_ladder():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "size-ladder", "--seed", "3",
         "--seconds", "0", "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert not [line for line in proc.stderr.splitlines() if "absent" in line]


@pytest.mark.parametrize(("workload", "counter"), [
    ("chain50", "dmrg.solve_calls"),
    ("statevector-prep", "exact.propagator_builds"),
])
def test_smoke_trace_binds_every_target(workload, counter):
    """A rebound target, or an argument read at the wrong position, fails here."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert not [line for line in proc.stderr.splitlines() if "absent" in line]
    assert result["metrics"][counter]["value"] > 0
