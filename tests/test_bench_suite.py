"""The benchmark's own test suite passes against this checkout.

``bench/tests`` pins the tracer, the workloads and the oracles.  It runs
in a subprocess from the repository root, as ``python -m pytest -q
bench/tests``, so that a change to the library that breaks the benchmark
fails here too.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_tests_pass():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "bench/tests"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
