"""The benchmark's traced run on every workload.

``perfbench/run.py --trace 1`` runs each workload's passes untraced and
traced and exits 0 only when every output matches its recorded digest,
every span the workload requires fires, and each item's span agrees with
its latency.  So a change that stops a required span from firing fails
here, not only in a hand run of the benchmark.
"""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["construct", "interp", "certify", "ring"])
def test_traced_run_passes(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
