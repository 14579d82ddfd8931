"""Refinement fits behind the grid-method tolerances of ``workloads.FITS``.

For every check with a grid-method tolerance this measures the sup error
against its oracle at several N, fits log(err) = log(C) + p log(h) by
least squares, and raises C until the fitted line bounds every measured
point.  The eigen and Picard fits stop at N = 4096 so that the tolerance
at the benchmark's N = 16384 is an extrapolation, not a copy of the error
measured there.  Run from the repository root:

    python3 -m bench.refine            # prints the fits as JSON

Takes about two minutes on one core.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import genfrac as gf  # noqa: E402

from . import oracles  # noqa: E402
from .workloads import EIGEN_LAMS, EIGEN_PHIS, SATURATED, eigen_curves, eigen_oracle, fit_key  # noqa: E402

EIGEN_CELLS = (256, 512, 1024, 2048, 4096)
SATURATED_CELLS = (64, 128, 256, 512, 1024)


def fit(cells, errors):
    """(C, p) with err <= C h^p at every measured point, h = 1/N."""
    h = 1.0 / np.asarray(cells, dtype=float)
    err = np.asarray(errors, dtype=float)
    p, _log_c = np.polyfit(np.log(h), np.log(err), 1)
    c = float(np.max(err / h ** p))
    return c, float(p)


def eigen_error(spec: str, lam: float, cells: int) -> float:
    phi = gf.parse_phi_spec(spec)
    grid = gf.Grid(1.0, cells)
    _kt, series, laplace = eigen_curves(phi, lam, grid)
    exact = eigen_oracle(phi, lam, grid.nodes)
    # mixtures have no closed form; the Laplace curve (7 digits, independent
    # of N) stands in for the exact curve
    ref = laplace if exact is None else exact
    return float(np.abs(series - ref).max())


def linear_error(cells: int) -> float:
    kt = gf.build_kernel_table(gf.parse_phi_spec("stable:0.5"), gf.Grid(1.0, cells))
    problem = gf.make_problem(gf.rhs_linear([[-1.0]]), [1.0], 1.0)
    sol, _ = gf.solve_to_horizon(problem, kt, 0.5, tol=1e-10)
    return float(np.abs(sol.values[:, 0] - oracles.stable_half_eigen(-1.0, kt.grid.nodes)).max())


def saturated_errors(a0: float, g0: float, cells: int):
    """(sup |x - exact|, sup (exact - ml)^+) for the equality case."""
    kt = gf.build_kernel_table(gf.parse_phi_spec("stable:0.5"), gf.Grid(1.0, cells))
    cp = gf.convolution_powers(kt, max(8, gf.suggest_power_count(kt, 1.5)))
    grid = kt.grid
    inst = gf.saturated_instance(kt, gf.GridFunction.constant(grid, g0),
                                 gf.GridFunction.constant(grid, a0))
    rep = gf.check_instance(inst, kt, cp)
    exact = a0 * oracles.ml_half(g0 * np.sqrt(grid.nodes))
    return float(np.abs(inst.x.scalar() - exact).max()), float(max((exact - rep.ml).max(), 0.0))


def main() -> int:
    out = {}
    for spec in EIGEN_PHIS:
        for lam in EIGEN_LAMS:
            errs = [eigen_error(spec, lam, n) for n in EIGEN_CELLS]
            key = fit_key(gf.parse_phi_spec(spec), lam)
            out[key] = {"cells": EIGEN_CELLS, "errors": errs, "C_p": fit(EIGEN_CELLS, errs)}
            print(key, out[key], file=sys.stderr, flush=True)
    errs = [linear_error(n) for n in EIGEN_CELLS]
    out["picard linear lam=-1"] = {"cells": EIGEN_CELLS, "errors": errs,
                                   "C_p": fit(EIGEN_CELLS, errs)}
    for a0, g0 in SATURATED:
        pairs = [saturated_errors(a0, g0, n) for n in SATURATED_CELLS]
        errs = [e for e, _ in pairs]
        key = f"saturated a={a0:g} g={g0:g}"
        out[key] = {"cells": SATURATED_CELLS, "errors": errs, "C_p": fit(SATURATED_CELLS, errs),
                    "ml_shortfall": [s for _, s in pairs]}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
