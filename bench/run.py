"""Benchmark of genfrac: one workload per call, results as one JSON line.

    python3 bench/run.py --workload march --seed 0 --seconds 25 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  The workload runs in a fresh single-threaded Python
process.  Before it, four more fresh processes only import and build the
first round's inputs, so that ``setup_s`` is a median of five set-ups.  With ``--trace 0`` the last line carries the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced run, whose
spans are written to ``.bench_out/`` in the checkout.  Exit code 0 means
a result was printed; ``correct`` says whether every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("eigen-fine", "march", "gronwall", "mc")
#: every run must end within this many seconds
DEADLINE_S = 175.0
#: processes that only set up, besides the measured one
SETUP_PROBES = 4
#: BLAS and OpenMP pools stay at one thread, so runs compare on a busy machine
SINGLE_THREAD = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}


class BenchError(RuntimeError):
    pass


def _worker(args, extra, timeout: float) -> tuple:
    """Start one worker process, wait for it, and return (spawn time, result)."""
    cmd = [sys.executable, "-m", "bench.worker", "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    env = dict(os.environ, **SINGLE_THREAD)
    env.pop("PYTHONPATH", None)
    spawned_at = time.time()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        # subprocess.run has killed the worker and waited for it
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return spawned_at, json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    if not (ROOT / "src" / "genfrac" / "__init__.py").is_file():
        print(f"run.py: no genfrac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            spawned_at, probe = _worker(args, ["--setup-only"], 60.0)
            setups.append(probe["ready_at"] - spawned_at)
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        spawned_at, res = _worker(args, extra, DEADLINE_S - (time.monotonic() - start))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    setups.append(res["ready_at"] - spawned_at)

    metrics = dict(res["metrics"])
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for failure in res["failures"] + res["raised"]:
        print(f"FAILED {failure}")
    print(f"workload {args.workload}  seed {args.seed}  rounds {res['rounds']}  "
          f"attempted {res['attempted']}  failed {res['failed']}  "
          f"failed checks {len(res['failures'])}")
    for name, m in sorted(metrics.items()):
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    if res["trace_file"]:
        print(f"  spans written to {res['trace_file']}")
    print(json.dumps({
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
