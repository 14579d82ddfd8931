"""The four workloads: their inputs, their operations and their checks.

A workload is a list of operations per round.  ``Workload.round(seed, r,
state)`` builds the inputs of round r from the run's seed alone.  An
operation's ``run`` makes only the program calls that are timed; its
``check`` compares the result with ``oracles`` or with a property the
method must have.  Tolerances of grid methods are ``HEADROOM * C * h**p`` with C and
p from ``refine.py`` (see README); Laplace tolerances come from the
stated accuracy of Gaver-Stehfest order 16, about 7 significant digits;
Monte Carlo checks allow 4 standard errors plus the first-passage bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

import numpy as np

import genfrac as gf

from . import oracles

# -- tolerances ------------------------------------------------------------------

#: factor between the refinement fit and a tolerance
HEADROOM = 3.0
#: sup |error| <= C * h**p fitted over N by refine.py; keys name the check
FITS: Dict[str, tuple] = {
    "eigen stable:0.5 lam=-1": (0.311, 0.982),
    "eigen stable:0.5 lam=1": (0.431, 1.018),
    "eigen tempered:0.5,1 lam=-1": (0.36, 0.998),
    "eigen tempered:0.5,1 lam=1": (94.3, 1.469),
    "eigen mixture:0.3@0.4+0.7@0.8 lam=-1": (0.253, 1.597),
    "eigen mixture:0.3@0.4+0.7@0.8 lam=1": (0.534, 1.543),
    "picard linear lam=-1": (0.311, 0.982),
    "saturated a=1 g=1": (1.95, 1.237),
    "saturated a=0.5 g=1.5": (41.2, 1.456),
}
#: Gaver-Stehfest order 16 gives about 7 digits; one digit is kept as margin
LAPLACE_REL = 1e-6
#: Picard tolerance handed to the solver, and the residual it promises
PICARD_TOL = 1e-10
MC_SIGMAS = 4.0


def grid_tolerance(key: str, h: float) -> float:
    c, p = FITS[key]
    return HEADROOM * c * h ** p


# -- operations and checks ---------------------------------------------------------


class Checks:
    """Failed checks and the largest error seen under each metric name."""

    def __init__(self):
        self.failures: List[str] = []
        self.errors: Dict[str, float] = {}

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def within(self, err: float, tol: float, what: str, metric: str = "") -> None:
        err = float(err)
        if metric:
            self.errors[metric] = max(self.errors.get(metric, 0.0), err)
        self.expect(bool(err <= tol), f"{what}: error {err:.3e} > tolerance {tol:.3e}")


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any, Checks], None]
    #: estimates an mc operation returns (0 elsewhere)
    estimates: int = 0


def _rng(seed: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, round_index])


# -- eigen-fine ------------------------------------------------------------------------

EIGEN_N = 16384
EIGEN_PHIS = ("stable:0.5", "tempered:0.5,1.0", "mixture:0.3@0.4+0.7@0.8")
EIGEN_LAMS = (-1.0, 1.0)


def eigen_curves(phi, lam: float, grid: gf.Grid):
    """One eigenfunction curve from scratch by the series and Laplace routes,
    as ``genfrac eigen --method series`` and ``--method laplace`` do."""
    kt = gf.build_kernel_table(phi, grid)
    k_need = gf.suggest_power_count(kt, lam)
    cp = gf.convolution_powers(kt, k_need)
    series = gf.phi_exp_series_curve(cp, lam)
    laplace = np.empty(grid.cells + 1)
    laplace[0] = 1.0
    laplace[1:] = gf.phi_exp_laplace_curve(phi, lam, grid.nodes[1:])
    return kt, series, laplace


def eigen_oracle(phi, lam: float, t: np.ndarray):
    """Exact e(t; lam), or None where no closed form is known (mixtures)."""
    if phi.kind == "stable" and phi.alpha == 0.5:
        return oracles.stable_half_eigen(lam, t)
    if phi.kind == "tempered":
        return oracles.tempered_eigen(phi.alpha, phi.theta, lam, t)
    return None


def fit_key(phi, lam: float) -> str:
    return f"eigen {phi.label} lam={lam:g}"


def check_eigen(phi, lam: float, grid: gf.Grid, result, checks: Checks) -> None:
    kt, series, laplace = result
    label = fit_key(phi, lam)
    checks.expect(bool(np.all(np.isfinite(series)) and np.all(np.isfinite(laplace))),
                  f"{label}: non-finite curve")
    checks.expect(series[0] == 1.0, f"{label}: series curve does not start at 1")
    series_tol = grid_tolerance(label, grid.step)
    exact = eigen_oracle(phi, lam, grid.nodes)
    if exact is not None:
        checks.within(np.abs(series - exact).max(), series_tol,
                      f"{label}: series vs oracle", "phiexp.series_err")
        lap_err = np.abs(laplace - exact)
        checks.within(lap_err.max(), LAPLACE_REL * max(1.0, float(np.abs(exact).max())),
                      f"{label}: Laplace vs oracle", "phiexp.laplace_err")
        checks.within((lap_err / np.maximum(1.0, np.abs(exact))).max(), LAPLACE_REL,
                      f"{label}: Laplace vs oracle, relative")
    if phi.kind == "tempered":
        exact_u = oracles.tempered_moment(phi.alpha, phi.theta, grid.nodes[1:])
        rel = np.abs(kt.U_node[1:] - exact_u) / exact_u
        checks.within(rel.max(), LAPLACE_REL, f"{label}: tempered U vs series oracle",
                      "kernels.U_relerr_tempered")
    if phi.kind in ("tempered", "mixture"):
        bound = series_tol + LAPLACE_REL * np.maximum(1.0, np.abs(laplace))
        gap = np.abs(series - laplace) - bound
        checks.within(max(gap.max(), 0.0), 0.0, f"{label}: series and Laplace curves disagree")


def eigen_round(seed: int, round_index: int) -> List[Op]:
    """The six (phi, lam) pairs in a fixed order.  The seed changes nothing:
    the pairs are the workload, and a fixed order keeps the peak memory,
    which depends on the order of the large allocations, the same."""
    grid = gf.Grid(1.0, EIGEN_N)
    ops = []
    for spec in EIGEN_PHIS:
        phi = gf.parse_phi_spec(spec)
        for lam in EIGEN_LAMS:
            ops.append(Op(
                label=fit_key(phi, lam),
                run=lambda phi=phi, lam=lam: eigen_curves(phi, lam, grid),
                check=lambda res, ch, phi=phi, lam=lam: check_eigen(phi, lam, grid, res, ch),
            ))
    return ops


# -- march ---------------------------------------------------------------------------


@dataclass
class MarchCase:
    label: str
    phi: Any
    spec: Any  # genfrac.problems.RhsSpec
    f0: float
    radius: float
    cells: int


def march_cases(rng: np.random.Generator) -> List[MarchCase]:
    """The four problems; the seed moves f0 within 1-2% of its nominal value."""
    stable = gf.parse_phi_spec("stable:0.5")
    tempered = gf.parse_phi_spec("tempered:0.5,1.0")
    logistic = gf.rhs_logistic(1.0)
    jitter = rng.uniform(-1.0, 1.0, size=4)
    return [
        MarchCase("logistic stable:0.5 R=0.05 N=4096", stable, logistic,
                  0.4 + 0.004 * jitter[0], 0.05, 4096),
        MarchCase("logistic stable:0.5 R=0.5 N=16384", stable, logistic,
                  0.4 + 0.004 * jitter[1], 0.5, 16384),
        MarchCase("linear lam=-1 stable:0.5 R=0.5 N=16384", stable, gf.rhs_linear([[-1.0]]),
                  1.0 + 0.02 * jitter[2], 0.5, 16384),
        MarchCase("logistic tempered:0.5,1 R=0.2 N=4096", tempered, logistic,
                  0.4 + 0.004 * jitter[3], 0.2, 4096),
    ]


def march_solve(case: MarchCase):
    """One ``solve_to_horizon`` from scratch, as ``genfrac solve`` does."""
    kt = gf.build_kernel_table(case.phi, gf.Grid(1.0, case.cells))
    problem = gf.make_problem(case.spec, [case.f0], 1.0)
    sol, _states = gf.solve_to_horizon(problem, kt, case.radius, tol=PICARD_TOL)
    return kt, sol


def check_march(case: MarchCase, result, checks: Checks) -> None:
    kt, sol = result
    label = case.label
    if sol.grid.cells != case.cells:
        checks.expect(False, f"{label}: solution stops at {sol.grid.cells} of {case.cells} cells")
        return
    f = sol.values[:, 0]
    t = sol.grid.nodes
    h = sol.grid.step
    if case.spec.label == "logistic":
        checks.expect(bool(np.all(np.diff(f) >= 0.0)), f"{label}: solution not increasing")
        checks.expect(bool(f[1:].min() > case.f0 and f.max() < 1.0),
                      f"{label}: solution leaves (f0, 1)")
    if case.phi.kind == "stable":
        masses = oracles.stable_cell_masses(case.phi.alpha, 1.0, case.cells)
        slack = 0.0
    else:
        exact_u = oracles.tempered_moment(case.phi.alpha, case.phi.theta, t)
        masses = np.diff(exact_u)
        # the table's kernel error moves the residual by at most sum|dW| sup|F|
        g_sup = float(np.abs(case.spec.fn(t, sol.values)).max())
        slack = float(np.abs(masses - kt.u_cell).sum()) * g_sup
    resid = oracles.fixed_point_residual(masses, case.spec.fn, [case.f0], sol.values, 1.0)
    checks.within(resid, 2.0 * PICARD_TOL + slack, f"{label}: full-grid fixed-point residual",
                  "solver.fp_residual" if case.phi.kind == "stable" else "")
    if case.spec.label == "linear":
        exact = case.f0 * oracles.stable_half_eigen(-1.0, t)
        checks.within(np.abs(f - exact).max(), case.f0 * grid_tolerance("picard linear lam=-1", h),
                      f"{label}: linear solution vs f0 E_1/2(-sqrt t)", "solver.linear_err")


def check_holder(case: MarchCase, sol, estimate: float, checks: Checks) -> None:
    """Bounds any correct estimate of the logistic solution's Hoelder constant
    must meet: the first cell gives the lower one exactly (W_0 = h^b / Gamma(1+b)
    and F rises on (0, 1/2)), |I g(t) - I g(s)| <= 2 sup|g| U(t - s) the upper."""
    t = sol.grid.nodes
    gamma_b = math.gamma(1.0 + case.phi.beta)
    f_first = float(case.spec.fn(t[:1], sol.values[:1])[0, 0])
    g_sup = float(np.abs(case.spec.fn(t, sol.values)).max())
    checks.expect(estimate >= f_first / gamma_b * (1.0 - 1e-9),
                  f"{case.label}: Hoelder estimate {estimate:.4g} below its first-cell bound")
    checks.expect(estimate <= 2.0 * g_sup / gamma_b * (1.0 + 1e-9),
                  f"{case.label}: Hoelder estimate {estimate:.4g} above 2 sup|F| / Gamma(1+b)")


def march_round(seed: int, round_index: int) -> List[Op]:
    """Four solves, and the Hoelder estimate of the first solution as a fifth
    operation, so that the median falls inside one kind of operation."""
    cases = march_cases(_rng(seed, round_index))
    first = {}

    def solve_first():
        first["result"] = march_solve(cases[0])
        return first["result"]

    def holder():
        _kt, sol = first["result"]
        return sol, gf.verify_holder(sol, cases[0].phi.beta)[0]

    ops = [
        Op(cases[0].label, solve_first, lambda res, ch: check_march(cases[0], res, ch)),
        Op(f"hoelder {cases[0].label}", holder,
           lambda res, ch: check_holder(cases[0], res[0], res[1], ch)),
    ]
    for case in cases[1:]:
        ops.append(Op(
            label=case.label,
            run=lambda case=case: march_solve(case),
            check=lambda res, ch, case=case: check_march(case, res, ch),
        ))
    return ops


# -- gronwall ------------------------------------------------------------------------

GRONWALL_N = 256
GRONWALL_RANDOM = {"stable:0.5": 24, "tempered:0.5,1.0": 8}
SATURATED = ((1.0, 1.0), (0.5, 1.5))
CONTINUITY_DELTAS = (1e-3, -1e-2, 5e-2)


def gronwall_tables():
    """Kernel tables and powers per phi, built once as ``genfrac gronwall`` does."""
    grid = gf.Grid(1.0, GRONWALL_N)
    tables = {}
    for spec in GRONWALL_RANDOM:
        kt = gf.build_kernel_table(gf.parse_phi_spec(spec), grid)
        tables[spec] = (kt, gf.convolution_powers(kt, max(8, gf.suggest_power_count(kt, 1.5))))
    return tables


def _check_report(label: str, rep, checks: Checks) -> None:
    checks.expect(rep.ok, f"{label}: bound chain violated (certificate {rep.certificate_ok}, "
                          f"series {rep.ok_series}, order {rep.ok_order}, monotone {rep.ok_monotone})")


def run_saturated(kt, cp, a0: float, g0: float):
    """The equality case x = a + g I[x] for constant a and g, and its check."""
    grid = kt.grid
    a = gf.GridFunction.constant(grid, a0)
    g = gf.GridFunction.constant(grid, g0)
    inst = gf.saturated_instance(kt, g, a)
    return inst, gf.check_instance(inst, kt, cp)


def check_saturated(a0: float, g0: float, result, checks: Checks) -> None:
    inst, rep = result
    label = f"saturated a={a0:g} g={g0:g}"
    _check_report(label, rep, checks)
    t = inst.grid.nodes
    exact = a0 * oracles.ml_half(g0 * np.sqrt(t))
    tol = grid_tolerance(label, inst.grid.step)
    checks.within(np.abs(inst.x.scalar() - exact).max(), tol,
                  f"{label}: x vs a E_1/2(g sqrt t)", "gronwall.saturated_err")
    checks.within(max(float((exact - rep.ml).max()), 0.0), tol,
                  f"{label}: Mittag-Leffler envelope below the closed form")


def gronwall_round(seed: int, round_index: int, tables) -> List[Op]:
    """Seeded random instances (stable ones in the majority), two saturated
    equality cases and one continuity experiment."""
    rng = _rng(seed, round_index)
    ops = []
    for spec, count in GRONWALL_RANDOM.items():
        kt, cp = tables[spec]
        for k in range(count):
            inst = gf.random_instance(kt, rng)
            label = f"random {spec} #{k}"
            ops.append(Op(
                label=label,
                run=lambda inst=inst, kt=kt, cp=cp: gf.check_instance(inst, kt, cp),
                check=lambda rep, ch, label=label: _check_report(label, rep, ch),
            ))
    kt, cp = tables["stable:0.5"]
    for a0, g0 in SATURATED:
        ops.append(Op(
            label=f"saturated a={a0:g} g={g0:g}",
            run=lambda a0=a0, g0=g0: run_saturated(kt, cp, a0, g0),
            check=lambda res, ch, a0=a0, g0=g0: check_saturated(a0, g0, res, ch),
        ))
    problem = gf.make_problem(gf.rhs_linear([[-0.5]]), [0.4], 1.0)
    ops.append(Op(
        label="continuity linear lam=-0.5",
        run=lambda: gf.continuity_experiment_initial(problem, kt, cp, 2.0, CONTINUITY_DELTAS),
        check=lambda rep, ch: ch.expect(rep.ok, f"continuity bound violated: {rep.rows}"),
    ))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# -- mc ------------------------------------------------------------------------------

MC_PHIS = ("stable:0.5", "tempered:0.5,1.0")
MC_PATHS = 2000
MC_PATHS_INCREMENT = 5000
MC_DT = 1e-3
MC_T = 1.0
MC_TAIL_S = (1.0, 2.0)
MC_TAIL_X = 1.0
MC_LAPLACE_LAMS = (0.5, 1.0, 2.0)


def mc_moment(phi, k: int, t: float) -> float:
    if phi.kind == "stable":
        return float(oracles.stable_moment(phi.alpha, t, k))
    return float(oracles.tempered_moment(phi.alpha, phi.theta, t, k)[0])


def _within_se(checks: Checks, label: str, est, target: float, bias: float) -> None:
    err = abs(est.value - target)
    checks.within(err, MC_SIGMAS * est.std_error + bias,
                  f"{label}: estimate {est.value:.6g} vs {target:.6g} (se {est.std_error:.2e})")


def _check_moments(phi, ests, checks: Checks) -> None:
    u = mc_moment(phi, 1, MC_T)
    # L is read off on the dt grid and exceeds the true passage by at most dt
    _within_se(checks, f"mc {phi.label} E[L]", ests[1], u, MC_DT)
    _within_se(checks, f"mc {phi.label} E[L^2]/2", ests[2], mc_moment(phi, 2, MC_T),
               MC_DT * u + 0.5 * MC_DT ** 2)


def _check_eigen_mc(phi, lam: float, est, checks: Checks) -> None:
    target = float(eigen_oracle(phi, lam, np.array([MC_T]))[0])
    bias = math.expm1(abs(lam) * MC_DT) * target
    _within_se(checks, f"mc {phi.label} e(1; {lam:g})", est, target, bias)


def _check_tail(phi, rows, checks: Checks) -> None:
    phix = float(phi.phi(MC_TAIL_X))
    for row in rows:
        # the discrete L exceeds the continuum one by at most dt
        bound = math.exp(MC_TAIL_X * MC_T - (row["s"] - MC_DT) * phix)
        checks.expect(row["empirical"] <= bound + MC_SIGMAS * row["std_error"],
                      f"mc {phi.label} P(L > {row['s']:g}) = {row['empirical']:.4g} "
                      f"above its bound {bound:.4g}")


def _check_laplace_exponent(phi, rows, checks: Checks) -> None:
    # exp(-lam sigma(dt)) lies in [0, 1], so its variance is at most m (1 - m)
    # for mean m; the sample standard error is no guide here, because a few
    # rare large increments carry the whole deviation from 1
    for row in rows:
        target = math.exp(-MC_DT * float(phi.phi(row["lam"])))
        se = math.sqrt(target * (1.0 - target) / MC_PATHS_INCREMENT)
        checks.within(abs(row["empirical"] - target), MC_SIGMAS * se,
                      f"mc {phi.label} E[exp(-{row['lam']:g} sigma(dt))]")


def mc_round(seed: int, round_index: int) -> List[Op]:
    """Each estimator on each phi, with a fresh sampling seed per round."""
    mc_seed = int(np.random.SeedSequence([seed, round_index]).generate_state(1)[0])
    ops = []
    for spec in MC_PHIS:
        phi = gf.parse_phi_spec(spec)
        cfg = gf.McConfig(phi=phi, n_paths=MC_PATHS, dt=MC_DT, t_max=MC_T, seed=mc_seed)
        cfg_inc = gf.McConfig(phi=phi, n_paths=MC_PATHS_INCREMENT, dt=MC_DT, t_max=MC_T,
                              seed=mc_seed)
        u = mc_moment(phi, 1, MC_T)
        ops += [
            Op(f"mc {spec} potential", lambda cfg=cfg: gf.estimate_potential_mc(cfg, MC_T),
               lambda est, ch, phi=phi, u=u: _within_se(ch, f"mc {phi.label} U(1)", est, u, MC_DT),
               estimates=1),
            Op(f"mc {spec} moments", lambda cfg=cfg: gf.estimate_moments(cfg, MC_T, 2),
               lambda ests, ch, phi=phi: _check_moments(phi, ests, ch), estimates=2),
            Op(f"mc {spec} e(1;-1)", lambda cfg=cfg: gf.estimate_phi_exp_mc(cfg, -1.0, MC_T),
               lambda est, ch, phi=phi: _check_eigen_mc(phi, -1.0, est, ch), estimates=1),
            Op(f"mc {spec} e(1;1)", lambda cfg=cfg: gf.estimate_phi_exp_mc(cfg, 1.0, MC_T),
               lambda est, ch, phi=phi: _check_eigen_mc(phi, 1.0, est, ch), estimates=1),
            Op(f"mc {spec} tail", lambda cfg=cfg: gf.tail_bound_check(cfg, MC_T, MC_TAIL_S, MC_TAIL_X),
               lambda rows, ch, phi=phi: _check_tail(phi, rows, ch), estimates=len(MC_TAIL_S)),
            Op(f"mc {spec} laplace exponent",
               lambda cfg=cfg_inc: gf.laplace_exponent_check(cfg, MC_LAPLACE_LAMS),
               lambda rows, ch, phi=phi: _check_laplace_exponent(phi, rows, ch),
               estimates=len(MC_LAPLACE_LAMS)),
        ]
    return ops


# -- registry ------------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    setup: Callable[[], Any]  # shared state built once per process
    round: Callable[[int, int, Any], List[Op]]


WORKLOADS = {
    "eigen-fine": Workload("eigen-fine", lambda: None, lambda s, r, _: eigen_round(s, r)),
    "march": Workload("march", lambda: None, lambda s, r, _: march_round(s, r)),
    "gronwall": Workload("gronwall", gronwall_tables, gronwall_round),
    "mc": Workload("mc", lambda: None, lambda s, r, _: mc_round(s, r)),
}
