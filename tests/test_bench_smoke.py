"""The benchmark's reference checks on the saturation and the plain-fragment
sweep workloads, at their quick sizes (about a second each), so that each
test run also checks the outputs the benchmark checks."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["entail-k", "entail-sweep"])
def test_quick_run_is_correct(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--quick", "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, done.stdout
    assert summary["failed"] == 0, done.stdout
    assert summary["attempted"] > 0
