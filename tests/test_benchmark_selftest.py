"""The benchmark harness's own tests, run with the package's tests.

``perfbench/`` traces functions by name and counts work from their
arguments (the rows of every ``propagate_grid`` call, the draws of every
``RngStream.normals_at`` call).  A change that breaks that coupling fails
here, not only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
