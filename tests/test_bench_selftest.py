"""The benchmark's tiny self-test runs with the package's tests.

``bench/selftest.py`` checks the benchmark's reference values and runs every
workload at a tiny size, traced and untraced, against ``src/`` of this
checkout.  A kernel change that breaks a workload then fails here, before a
benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "bench/selftest.py"], cwd=ROOT, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stdout[-4000:] + out.stderr[-2000:]
