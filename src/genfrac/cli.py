"""Command-line front door.

Every command but ``catalog`` writes, through :func:`_emit`, CSV curves, a
JSON report that lists every resolved setting (no silent defaults), and a
manifest whose hash covers the full configuration minus the output
directory; identical manifests reproduce byte-identical CSV bodies.  The
configuration holds what every input file held, not only its path, and the
manifest records the grid that ran.

Exit codes: 0 success, 1 numerical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from functools import partial
from itertools import combinations
from pathlib import Path

import numpy as np

from . import __version__
from .bernstein import load_phi_config, parse_phi_spec, read_kv_file, validate_bernstein
from .errors import NumericalError
from .grids import Grid
from .gronwall import (
    GronwallInstance,
    check_instance,
    run_random_harness,
)
from .kernels import build_kernel_table, kernel_table_to_csv
from .mc import (
    McConfig,
    _exp_samples,
    estimate_moments,
    estimate_phi_exp_mc,
    estimate_potential_mc,
    laplace_exponent_check,
)
from .phiexp import (
    convolution_powers,
    phi_exp_laplace_curve,
    phi_exp_series_curve,
    suggest_power_count,
)
from .problems import load_problem_file
from .solver import solve_to_horizon, verify_holder

_CATALOG_HELP = {
    "stable": ("stable:ALPHA", "phi(x) = x^a, closed-form kernels, envelope exponent a"),
    "tempered": ("tempered:ALPHA,THETA", "phi(x) = (x+th)^a - th^a, inverted kernels"),
    "mixture": ("mixture:W@A+W@A", "phi(x) = sum w_i x^(a_i), inverted kernels"),
}


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _phi_from_arg(spec: str):
    """Catalog spec (stable:0.5, ...) or config:PATH for a key-value file."""
    if spec.startswith("config:"):
        return load_phi_config(spec.partition(":")[2])
    return parse_phi_spec(spec)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
            fh.write("\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _manifest(out: Path, command: str, config: dict, grid, seed=None) -> None:
    # the output directory has no bearing on the numbers produced
    hashed = {k: v for k, v in config.items() if k != "out"}
    body = json.dumps(hashed, sort_keys=True, default=str)
    manifest = {
        "command": command,
        "config_hash": hashlib.sha256(body.encode()).hexdigest(),
        "phi_spec": config.get("phi"),
        "grid": None if grid is None else {"T": grid.horizon, "N": grid.cells},
        "seed": seed,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    _write_json(out / f"{command}_manifest.json", manifest)


def _emit(args, phi, grid, write_csv, report: dict, seed=None, **extra) -> Path:
    """The one output path of every command that writes files.

    In ``args.out`` it writes ``<command>.csv`` through ``write_csv(path)``,
    ``<command>_report.json`` as ``{"config": config} | report`` and the
    manifest, where ``config`` is every parsed option except ``func``
    (``command`` among them), ``phi_meta = phi.describe()`` and ``extra``.
    The manifest records ``grid``, the grid that ran (None where none did).
    Returns the CSV path.
    """
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = {k: v for k, v in vars(args).items() if k != "func"}
    config |= {"phi_meta": phi.describe()} | extra
    csv_path = out / f"{args.command}.csv"
    write_csv(csv_path)
    _write_json(out / f"{args.command}_report.json", {"config": config} | report)
    _manifest(out, args.command, config, grid, seed)
    return csv_path


# -- commands -----------------------------------------------------------------


def cmd_catalog(args) -> int:
    if args.phi:
        phi = _phi_from_arg(args.phi)
        info = phi.describe()
        for key in sorted(info):
            print(f"{key:>22}: {info[key]}")
        report = validate_bernstein(phi, [0.5, 1.0, 2.0, 4.0], order=3)
        print(f"{'sign spot-check':>22}: {'ok' if report.ok else report.violations}")
        return 0
    print(f"{'kind':<10} {'spec':<22} description")
    for kind, (spec, desc) in _CATALOG_HELP.items():
        print(f"{kind:<10} {spec:<22} {desc}")
    return 0


def cmd_kernels(args) -> int:
    phi = _phi_from_arg(args.phi)
    grid = Grid(args.T, args.N)
    kt = build_kernel_table(phi, grid)
    report = {
        "beta": kt.beta,
        "c_assump": kt.c_assump,
        "c_fit": kt.c_fit,
        "c_env_U": kt.c_env_U,
        "U_at_T": kt.U_node[-1],
    }
    path = _emit(args, phi, grid, partial(kernel_table_to_csv, kt), report)
    print(f"kernels: wrote {path} (c_fit={kt.c_fit:.6g})")
    return 0


def cmd_eigen(args) -> int:
    phi = _phi_from_arg(args.phi)
    grid = Grid(args.T, args.N)
    lam = args.lam
    methods = ["series", "laplace", "mc"] if args.method == "all" else [args.method]

    columns = {}
    if "series" in methods:
        kt = build_kernel_table(phi, grid)
        k_need = suggest_power_count(kt, lam)
        cp = convolution_powers(kt, k_need)
        columns["series"] = phi_exp_series_curve(cp, lam)
    if "laplace" in methods:
        vals = np.empty(grid.cells + 1)
        vals[0] = 1.0
        vals[1:] = phi_exp_laplace_curve(phi, lam, grid.nodes[1:])
        columns["laplace"] = vals
    if "mc" in methods:
        mc_cfg = McConfig(
            phi=phi, n_paths=args.paths, dt=args.dt, t_max=args.T, seed=args.seed
        )
        stride = max(1, grid.cells // 64)
        idx = np.arange(0, grid.cells + 1, stride)
        if idx[-1] != grid.cells:
            idx = np.append(idx, grid.cells)
        vals = np.full(grid.cells + 1, np.nan)
        vals[0] = 1.0
        vals[idx[1:]] = _exp_samples(mc_cfg, lam, grid.nodes[idx[1:]]).mean(axis=0)
        columns["mc"] = vals

    names = list(columns)
    deltas = {f"{a}_{b}": columns[a] - columns[b] for a, b in combinations(names, 2)}
    header = ["t", *names, *(f"delta_{k}" for k in deltas)]
    rows = np.column_stack([grid.nodes, *columns.values(), *deltas.values()])
    report = {"methods": names} | {
        f"max_abs_delta_{k}": float(np.nanmax(np.abs(d))) for k, d in deltas.items()
    }
    seed = args.seed if "mc" in methods else None
    path = _emit(args, phi, grid, partial(_write_csv, header=header, rows=rows), report, seed)
    print(f"eigen: wrote {path} with methods {names}")
    return 0


def cmd_solve(args) -> int:
    phi = _phi_from_arg(args.phi)
    problem, radius, meta = load_problem_file(args.problem)
    grid = Grid(problem.horizon, args.N)
    kt = build_kernel_table(phi, grid)
    sol, states = solve_to_horizon(
        problem, kt, radius, tol=args.tol, max_iter=args.max_iter
    )
    l_est, _ = verify_holder(sol, kt.beta)

    header = ["t"] + [f"f{k}" for k in range(sol.dim)]
    rows = np.column_stack([sol.grid.nodes, sol.values])
    report = {
        "t_prime": states[0].t_prime,
        "bielecki_tau": states[0].bielecki_tau,
        "segments": len(states),
        "iterations": [s.iteration_count for s in states],
        "contraction_ratios": [s.contraction_ratio_estimates for s in states],
        "residual_sup": max(s.residual_sup for s in states),
        "holder_estimate": l_est,
    }
    path = _emit(
        args, phi, grid, partial(_write_csv, header=header, rows=rows), report,
        problem_meta=meta,
    )
    print(
        f"solve: {len(states)} segment(s), T'={states[0].t_prime:.6g}, "
        f"holder L~{l_est:.4g}; wrote {path}"
    )
    return 0


def cmd_gronwall(args) -> int:
    phi = _phi_from_arg(args.phi)

    extra = {}
    if args.random:
        grid = Grid(args.T, args.N)
        kt = build_kernel_table(phi, grid)
        rep = run_random_harness(kt, args.seeds, master_seed=args.seed)
        counts = {
            "instances": rep.n_instances,
            "certificate_failures": rep.n_certificate_failures,
            "series_violations": rep.n_series_violations,
            "order_violations": rep.n_order_violations,
            "monotone_violations": rep.n_monotone_violations,
            "worst_series_margin": rep.worst_series_margin,
            "worst_order_margin": rep.worst_order_margin,
        }
        header, rows = list(counts), [list(counts.values())]
        report = {"mode": "random", "ok": rep.ok, "instances": rep.n_instances}
        seed, summary = args.seed, f"{rep.n_instances} instances"
    else:
        kv = read_kv_file(args.instance)
        extra["instance_meta"] = dict(kv)
        try:
            horizon = float(kv.pop("t"))
            x, a, g = (np.asarray([float(v) for v in kv.pop(key).split(",")]) for key in "xag")
        except KeyError as exc:
            raise ValueError(f"instance file missing required key: {exc}") from exc
        if kv:
            raise ValueError(f"unrecognized instance keys: {sorted(kv)}")
        grid = Grid(horizon, len(x) - 1)
        kt = build_kernel_table(phi, grid)
        inst = GronwallInstance.build(grid, x, a, g)
        rep = check_instance(inst, kt)
        header = ["t", "x", "series_bound", "ml_bound", "slack"]
        rows = np.column_stack([grid.nodes, inst.x.scalar(), rep.series, rep.ml, rep.slack])
        report = {
            "mode": "instance",
            "certificate_ok": rep.certificate_ok,
            "ok_series": rep.ok_series,
            "ok_order": rep.ok_order,
            "ok_monotone": rep.ok_monotone,
            "ok": rep.ok,
        }
        seed, summary = None, "instance"
    _emit(args, phi, grid, partial(_write_csv, header=header, rows=rows), report, seed, **extra)
    print(f"gronwall: {summary} ok={rep.ok}")
    return 0 if rep.ok else 1


def cmd_mc(args) -> int:
    phi = _phi_from_arg(args.phi)
    kind, _, params = args.estimate.partition(":")
    kind = kind.lower()
    cfg = McConfig(
        phi=phi, n_paths=args.paths, dt=args.dt, t_max=args.tmax, seed=args.seed
    )
    rows, header = [], ["quantity", "value", "std_error"]
    if kind == "u":
        t = float(params) if params else cfg.t_max
        est = estimate_potential_mc(cfg, t)
        rows.append([f"U({t:g})", est.value, est.std_error])
    elif kind == "phiexp":
        lam_s, _, t_s = params.partition(",")
        lam = float(lam_s)
        t = float(t_s) if t_s else cfg.t_max
        est = estimate_phi_exp_mc(cfg, lam, t)
        rows.append([f"e({t:g};{lam:g})", est.value, est.std_error])
    elif kind == "moments":
        k_s, _, t_s = params.partition(",")
        k_max = int(k_s)
        t = float(t_s) if t_s else cfg.t_max
        for k, est in enumerate(estimate_moments(cfg, t, k_max)):
            rows.append([f"E[L^{k}({t:g})]/{k}!", est.value, est.std_error])
    elif kind == "laplace":
        lams = [float(x) for x in params.split(",") if x]
        header = ["quantity", "value", "std_error", "target"]
        for row in laplace_exponent_check(cfg, lams):
            rows.append(
                [
                    f"E[exp(-{row['lam']:g} sigma(dt))]",
                    row["empirical"],
                    row["std_error"],
                    row["target"],
                ]
            )
    else:
        raise ValueError(f"unknown estimate kind {kind!r} (use U|phiexp|moments|laplace)")

    report = {"rows": len(rows)}
    path = _emit(args, phi, None, partial(_write_csv, header=header, rows=rows), report, args.seed)
    print(f"mc: wrote {path} ({len(rows)} row(s))")
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genfrac",
        description="kernels, solvers, eigenfunctions, bounds and Monte Carlo "
        "for memory-derivative Cauchy problems",
    )
    parser.add_argument("--version", action="version", version=f"genfrac {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    out_default = os.environ.get("GENFRAC_OUT", ".")

    def common(p, horizon=True):
        p.add_argument(
            "--phi", required=True,
            help="e.g. stable:0.5, tempered:0.5,1.0, mixture:0.3@0.4+0.7@0.8, "
            "or config:FILE",
        )
        p.add_argument("--out", default=out_default,
                       help="output directory (default $GENFRAC_OUT or .)")
        if horizon:
            p.add_argument("--T", type=float, default=1.0, help="time horizon")
        p.add_argument("--N", type=int, default=1024, help="grid cells")

    p = sub.add_parser("catalog", help="list catalog kinds or describe one")
    p.add_argument("--phi", default=None)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("kernels", help="tabulate kernels and export CSV")
    common(p)
    p.set_defaults(func=cmd_kernels)

    p = sub.add_parser("eigen", help="evaluate the eigenfunction by one or all routes")
    common(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--method", choices=["series", "laplace", "mc", "all"], default="all")
    p.add_argument("--paths", type=int, default=20000)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("solve", help="solve a problem file by Picard marching")
    common(p, horizon=False)  # the problem file owns T
    p.add_argument("--problem", required=True, help="key-value problem file")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=200)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gronwall", help="verify the bound chain on instances")
    common(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--instance", default=None, help="key-value instance file (t,x,a,g)")
    mode.add_argument("--random", action="store_true", help="run the seeded random harness")
    p.add_argument("--seeds", type=int, default=100, help="number of random instances")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.set_defaults(func=cmd_gronwall)

    p = sub.add_parser("mc", help="Monte Carlo estimates from subordinator paths")
    p.add_argument("--phi", required=True)
    p.add_argument("--out", default=out_default)
    p.add_argument("--paths", type=int, default=100000)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--tmax", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--estimate",
        required=True,
        help="U[:t] | phiexp:LAM[,t] | moments:KMAX[,t] | laplace:LAM1,LAM2,...",
    )
    p.set_defaults(func=cmd_mc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
