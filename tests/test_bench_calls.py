"""The benchmark's own calls into genfrac still run and pass their checks.

One round of every workload runs through each operation's ``run`` and
``check``, and every function the tracer wraps
still exists, so a change that breaks a call site in ``bench/`` fails here
rather than only when the benchmark runs.
"""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import tracing, workloads  # noqa: E402


@pytest.mark.parametrize("name", ["eigen-fine", "gronwall", "march", "mc"])
def test_one_round_runs_and_passes_its_checks(name):
    workload = workloads.WORKLOADS[name]
    checks = workloads.Checks()
    for op in workload.round(0, 0, workload.setup()):
        op.check(op.run(), checks)
    assert checks.failures == []


@pytest.mark.parametrize("span", sorted(tracing.TRACED))
def test_traced_targets_exist(span):
    module, function = tracing.TRACED[span]
    assert callable(getattr(importlib.import_module(module), function, None))
