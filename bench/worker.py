"""One workload in one fresh process; started by ``run.py``.

    python3 -m bench.worker --workload march --seed 0 --seconds 25 --trace 0

Imports genfrac from ``src/`` of the checkout, builds the inputs of the
first round, notes the wall-clock time at which the first operation is
ready, then runs whole rounds of operations until the next round would
end past ``--seconds``.  Only the program calls of an operation are timed;
checks run between them.  The last line of standard output is a JSON
object with the counts, the failed checks and the metrics; a traced run
also writes its spans to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import genfrac

    where = Path(genfrac.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"genfrac was imported from {where}, not from {ROOT / 'src'}")


def _layer_metrics(tracer, rounds: int, op_times, checks) -> dict:
    """Per-layer figures of one round (sums over the run divided by rounds)."""
    own = tracer.self_times()
    per_round = lambda v: v / rounds  # noqa: E731
    sweeps = tracer.counters.get("solver.sweeps", 0.0)
    estimates = tracer.counters.get("mc.estimates", 0.0)
    paths = tracer.counters.get("mc.paths_drawn", 0.0)
    seconds = {
        "kernels.build_s": own.get("kernels.build", 0.0),
        "laplace.curve_s": own.get("laplace.curve", 0.0),
        "phiexp.suggest_s": own.get("phiexp.suggest", 0.0),
        "phiexp.powers_s": own.get("phiexp.powers", 0.0),
        "phiexp.series_curve_s": own.get("phiexp.series_curve", 0.0),
        "solver.solve_s": own.get("solver.solve", 0.0),
        "solver.holder_s": own.get("solver.holder", 0.0),
        "gronwall.check_s": own.get("gronwall.check", 0.0),
        "gronwall.series_bound_s": own.get("gronwall.series_bound", 0.0),
        "gronwall.ml_bound_s": own.get("gronwall.ml_bound", 0.0),
        "gronwall.monotone_bound_s": own.get("gronwall.monotone_bound", 0.0),
        "gronwall.continuity_s": own.get("gronwall.continuity", 0.0),
        # a tempered draw's stable proposals count towards the tempered sampler
        "mc.sample_stable_s": tracer.inclusive_times("mc.sample_stable", "mc.sample_tempered"),
        "mc.sample_tempered_s": tracer.inclusive_times("mc.sample_tempered"),
    }
    metrics = {name: (per_round(v), "s") for name, v in seconds.items()}
    metrics.update({
        "phiexp.powers_k": (per_round(tracer.counters.get("phiexp.powers_k", 0.0)), "count"),
        "solver.segments": (per_round(tracer.counters.get("solver.segments", 0.0)), "count"),
        "solver.sweeps": (per_round(sweeps), "count"),
        "solver.sweep_us": (1e6 * own.get("solver.solve", 0.0) / sweeps if sweeps else 0.0, "us"),
        "mc.paths_drawn": (per_round(paths), "count"),
        "mc.paths_per_estimate": (paths / estimates if estimates else 0.0, "ratio"),
        "trace.ops_per_s": (len(op_times) / sum(op_times), "ops/s"),
    })
    for name, unit in (("phiexp.series_err", "abs"), ("phiexp.laplace_err", "abs"),
                       ("kernels.U_relerr_tempered", "rel"), ("solver.linear_err", "abs"),
                       ("solver.fp_residual", "abs"), ("gronwall.saturated_err", "abs")):
        metrics[name] = (checks.errors.get(name, 0.0), unit)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_program()
    from bench.workloads import WORKLOADS, Checks

    workload = WORKLOADS[args.workload]
    state = workload.setup()
    ops = workload.round(args.seed, 0, state)
    ready_at = time.time()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    tracer = trace_file = None
    if args.trace:
        from bench.tracing import Tracer

        tracer = Tracer()
        tracer.install()
    checks = Checks()
    raised = []
    op_times = []
    attempted = failed = rounds = 0
    start = time.perf_counter()
    try:
        while True:
            for op in ops:
                attempted += 1
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        result = op.run()
                    else:
                        tracer.begin_op(attempted)
                        result = tracer.span("op", op.run)
                        tracer.count("mc.estimates", op.estimates)
                except Exception:  # an operation that raises is counted, not fatal
                    failed += 1
                    raised.append(f"{op.label}: {traceback.format_exc()}")
                    continue
                op_times.append(time.perf_counter() - t0)
                try:
                    op.check(result, checks)
                except Exception:  # a check that cannot finish is a failed check
                    checks.failures.append(f"{op.label}: check raised {traceback.format_exc()}")
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed * (rounds + 1) / rounds > args.seconds:
                break
            ops = workload.round(args.seed, rounds, state)
    finally:
        if tracer is not None:
            tracer.uninstall()

    if not op_times:
        raise RuntimeError("every operation failed")
    if tracer is None:
        metrics = {
            "ops_per_s": {"value": len(op_times) / sum(op_times), "unit": "ops/s"},
            "op_p50_s": {"value": statistics.median(op_times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    else:
        metrics = _layer_metrics(tracer, rounds, op_times, checks)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_file)
    print(json.dumps({
        "ready_at": ready_at,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "failures": checks.failures,
        "raised": raised,
        "metrics": metrics,
        "trace_file": None if trace_file is None else str(trace_file.relative_to(ROOT)),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
