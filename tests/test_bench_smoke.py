"""The benchmark's reference checks on every workload at its quick size (a
few seconds in all): the saturation and plain-fragment sweep workloads in
process, the cold oracle and the CSV audit through the command line; so
that each test run also checks the outputs the benchmark checks."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["entail-k", "entail-sweep", "oracle-cold", "audit-csv"])
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
