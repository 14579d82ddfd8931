"""Grönwall-type bounds for the memory-integral inequality.

For grid functions x, a, g >= 0 with g nondecreasing and
x <= a + g * I[x], three bound curves are available, ordered
series <= mittag-leffler-envelope, plus the monotone product form when a
is nondecreasing:

* series:   the resolvent sum sum_k B^k a with (B f)(t) = g(t) * I[f](t),
  i.e. the grid solution of x = a + B x, found by one forward solve;
* envelope: a(t) + c G(beta+1) g(t) * int_0^t E'_beta(c G(beta) g(t)
  (t-s)^beta) (t-s)^(beta-1) a(s) ds,  built from the fitted kernel
  envelope c (the E' argument scales with (t-s)^beta so the integrand
  majorizes every series term).  On the uniform grid the cell weight and
  the argument depend on the lag i-1-j alone, so the envelope is K history
  sums, one per power of E'_beta, through the history-sum primitive;
* monotone: a(t) * e(t; g(T)), e = 1 + g(T) * I[e] solved as the series.

The envelope and the monotone form refuse a g that is not nondecreasing.

``check_instance`` verifies the chain nodewise with an explicit numerical
slack: bounds that hold in exact arithmetic can cross by the product-
integration error of either side, so findings below the slack are noise,
not violations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np
from scipy.special import gamma as _gamma

from .grids import Grid, GridFunction, _require_grid
from .kernels import KernelTable, _conv_prefix, _frac_integral_values, _resolvent_solve
from .mittag import derivative_log_terms
from .phiexp import ConvolutionPowers, _require_table, phi_exp_grid_curve
from .problems import IvpProblem
from .solver import _horizon_index, picard_solve, select_horizon

__all__ = [
    "GronwallInstance",
    "apply_B",
    "series_bound",
    "ml_bound",
    "monotone_bound",
    "check_instance",
    "InstanceReport",
    "saturated_instance",
    "random_instance",
    "run_random_harness",
    "HarnessReport",
    "continuity_experiment_initial",
    "continuity_experiment_parameter",
    "ParamFamily",
    "ContinuityReport",
]

#: calibration constant of the quadrature-slack model used by check_instance;
#: pinned ~15x above the observed first-order error of either bound curve on
#: the constant-coefficient equality case under grid refinement
_SLACK_SCALE = 4.0

#: powers of E'_beta per history sum in ml_bound; bounds the N x slab temporaries
_SLAB = 32


def _nonneg(v: np.ndarray) -> bool:
    """v never lies below 0 by more than rounding, 1e-12."""
    return bool(np.all(v >= -1e-12))


def _nondecreasing(v: np.ndarray) -> bool:
    """v never drops by more than rounding at its own scale, 1e-12 (1 + max|v|)."""
    return bool(np.all(np.diff(v) >= -1e-12 * (1.0 + float(np.abs(v).max()))))


def _g_values(g: GridFunction) -> np.ndarray:
    """g at the nodes, refused with ValueError unless :func:`_nonneg` and
    :func:`_nondecreasing`, clipped at 0."""
    gv = g.scalar()
    if not _nonneg(gv):
        raise ValueError("the bounds require g >= 0")
    if not _nondecreasing(gv):
        raise ValueError("the bounds require a nondecreasing g")
    return np.maximum(gv, 0.0)


@dataclass
class GronwallInstance:
    """Scalar triple (x, a, g) subject to x <= a + g * I[x]."""

    grid: Grid
    x: GridFunction
    a: GridFunction
    g: GridFunction
    a_nonneg: bool
    g_nonneg: bool
    g_nondecreasing: bool
    a_nondecreasing: bool

    @classmethod
    def build(cls, grid: Grid, x, a, g) -> "GronwallInstance":
        fx, fa, fg = (
            f if isinstance(f, GridFunction) else GridFunction(grid, f) for f in (x, a, g)
        )
        _require_grid(grid, fx, fa, fg)
        _, av, gv = (f.scalar() for f in (fx, fa, fg))  # scalar() refuses d != 1
        return cls(
            grid=grid,
            x=fx,
            a=fa,
            g=fg,
            a_nonneg=_nonneg(av),
            g_nonneg=_nonneg(gv),
            g_nondecreasing=_nondecreasing(gv),
            a_nondecreasing=_nondecreasing(av),
        )

    def require_valid(self) -> None:
        if not (self.a_nonneg and self.g_nonneg and self.g_nondecreasing):
            raise ValueError("instance needs a, g >= 0 and g nondecreasing")


def apply_B(kt: KernelTable, g: GridFunction, f: GridFunction) -> GridFunction:
    """(B f)(t_i) = g(t_i) * (I f)(t_i), scalar functions only."""
    if g.dim != 1 or f.dim != 1:
        raise ValueError("apply_B is defined for scalar grid functions")
    _require_grid(kt.grid, g, f)
    vals = g.scalar() * _frac_integral_values(kt.u_cell, f.values)[:, 0]
    return GridFunction(kt.grid, vals)


def series_bound(kt: KernelTable, g: GridFunction, a: GridFunction) -> GridFunction:
    """The resolvent sum sum_k B^k a, solved exactly on the grid as
    x = a + B x by one forward march.

    Raises NonconvergenceError where the sum diverges on the grid,
    max|g| * W_0 / 2 >= 1.
    """
    _require_grid(kt.grid, g, a)
    return GridFunction(kt.grid, _resolvent_solve(kt.u_cell, a.values, g.scalar()))


def ml_bound(kt: KernelTable, g: GridFunction, a: GridFunction) -> GridFunction:
    """Closed-form envelope bound with the Mittag-Leffler derivative.

    Row i sums cells j < i with the exact cell mass wgt_l of
    (t_i - s)^(beta-1) and the argument z_ij = g_i * zeta_l at the cell
    midpoint, both functions of the lag l = i-1-j alone.  Expanding E'_beta
    gives sum_k (g_i / g_max)^(k-1) * S_k[i], where S_k is one history sum
    of the midpoint values of a against the lag column
    wgt_l * k (g_max zeta_l)^(k-1) / Gamma(beta k + 1); K is the term count
    of E'_beta at z_max = g_max * zeta_(N-1), and the columns are formed in
    log space and summed in slabs.

    Refuses with ValueError g < -1e-12, clipping g at 0, a g that is not
    nondecreasing, and a z_max outside the derivative's domain (see
    :func:`genfrac.mittag.derivative_log_terms`).
    """
    _require_grid(kt.grid, g, a)
    gv = _g_values(g)
    av = a.scalar()
    beta = kt.beta
    t = kt.grid.nodes
    s_mid = t[:-1] + 0.5 * kt.grid.step
    g_max = float(gv[1:].max())
    z_max = g_max * kt.c_fit * _gamma(beta) * s_mid[-1] ** beta
    # the domain refusals (beta = 1 among them) hold for g = 0 too
    log_terms = derivative_log_terms(beta, z_max)
    out = av.copy()
    if z_max == 0.0:
        return GridFunction(kt.grid, out)
    # log of the lag column entries: cell mass, then zeta_l / zeta_(N-1) per power
    log_wgt = np.log(np.diff(t ** beta) / beta)[:, None]
    log_shrink = beta * np.log(s_mid / s_mid[-1])[:, None]
    a_mid = 0.5 * (av[:-1] + av[1:])
    ratio = (gv[1:] / g_max)[:, None]
    hist = np.zeros(kt.grid.cells)
    for k0 in range(0, len(log_terms), _SLAB):
        p = np.arange(k0, min(k0 + _SLAB, len(log_terms)))
        cols = np.exp(log_wgt + log_terms[p] + log_shrink * p)
        hist += (_conv_prefix(a_mid, cols) * ratio ** p).sum(axis=1)
    out[1:] += kt.c_fit * _gamma(beta + 1.0) * gv[1:] * hist
    return GridFunction(kt.grid, out)


def monotone_bound(kt: KernelTable, g: GridFunction, a: GridFunction) -> GridFunction:
    """a(t) * e(t; g(T)), e = :func:`phi_exp_grid_curve`; a nondecreasing, g as ml_bound."""
    _require_grid(kt.grid, g, a)
    av = a.scalar()
    if not _nondecreasing(av):
        raise ValueError("monotone bound requires a nondecreasing a")
    return GridFunction(kt.grid, av * phi_exp_grid_curve(kt, _g_values(g)[-1]))


def _quadrature_slack(kt: KernelTable, g: GridFunction, ref: np.ndarray) -> np.ndarray:
    """Per-node allowance for product-integration error of the bound curves.

    First-order error model: both curve discretizations err by
    O(h * scale) with scale set by the kernel envelope, g, and the size of
    the bound itself; the calibration constant is pinned by the
    constant-coefficient equality case under grid refinement.
    """
    h = kt.grid.step
    g_max = float(np.abs(g.scalar()).max())
    scale = kt.c_fit * _gamma(kt.beta) * max(g_max, 1.0)
    return _SLACK_SCALE * h * scale * (1.0 + np.abs(ref)) * kt.grid.horizon ** (kt.beta - 1.0)


@dataclass
class InstanceReport:
    certificate_ok: bool
    series: np.ndarray
    ml: np.ndarray
    monotone: Optional[np.ndarray]
    slack: np.ndarray
    margin_series: np.ndarray  # series - x  (>= -slack when the bound holds)
    margin_order: np.ndarray  # ml - series
    margin_monotone: Optional[np.ndarray]
    ok_series: bool
    ok_order: bool
    ok_monotone: Optional[bool]

    @property
    def ok(self) -> bool:
        mono = True if self.ok_monotone is None else self.ok_monotone
        return self.certificate_ok and self.ok_series and self.ok_order and mono


def check_instance(
    inst: GronwallInstance,
    kt: KernelTable,
    cp: Optional[ConvolutionPowers] = None,
) -> InstanceReport:
    """Verify x <= series <= envelope (and the monotone form when
    applicable) within 1e-8 plus twice the quadrature-error estimate.  ``cp``
    is only checked by :func:`_require_table`; ROADMAP 1(c) deletes it after 1(b)."""
    inst.require_valid()
    _require_table(kt, cp)
    _require_grid(kt.grid, inst)
    xv = inst.x.scalar()
    av = inst.a.scalar()
    certificate_ok = bool(np.all(xv <= av + apply_B(kt, inst.g, inst.x).scalar() + 1e-10))

    sb = series_bound(kt, inst.g, inst.a).scalar()
    mb = ml_bound(kt, inst.g, inst.a).scalar()
    slack = 1e-8 + 2.0 * _quadrature_slack(kt, inst.g, sb)

    margin_series = sb - xv
    margin_order = mb - sb
    ok_series = bool(np.all(margin_series >= -slack))
    ok_order = bool(np.all(margin_order >= -slack))

    monotone = margin_mono = ok_mono = None
    if inst.a_nondecreasing:
        monotone = monotone_bound(kt, inst.g, inst.a).scalar()
        margin_mono = monotone - xv
        ok_mono = bool(np.all(margin_mono >= -slack))

    return InstanceReport(
        certificate_ok=certificate_ok,
        series=sb,
        ml=mb,
        monotone=monotone,
        slack=slack,
        margin_series=margin_series,
        margin_order=margin_order,
        margin_monotone=margin_mono,
        ok_series=ok_series,
        ok_order=ok_order,
        ok_monotone=ok_mono,
    )


def saturated_instance(kt: KernelTable, g: GridFunction, a: GridFunction) -> GronwallInstance:
    """Equality case: x = a + B x, the grid solution that
    :func:`series_bound` returns, packed as an instance."""
    x = series_bound(kt, g, a)
    return GronwallInstance.build(kt.grid, x, a, g)


def _smooth_positive(rng, nodes: np.ndarray, lo: float, hi: float) -> np.ndarray:
    knots_t = np.linspace(0.0, nodes[-1], 6)
    knots_v = rng.uniform(lo, hi, size=6)
    return np.interp(nodes, knots_t, knots_v)


def random_instance(kt: KernelTable, rng: np.random.Generator) -> GronwallInstance:
    """Random valid instance: positive spline a <= 2, nondecreasing spline
    g <= 1.5 and x = a + B(r * a) with r in [0, 1], which guarantees the
    inequality."""
    nodes = kt.grid.nodes
    av = _smooth_positive(rng, nodes, 0.1, 2.0)
    knots = np.linspace(0.0, nodes[-1], 6)
    increments = rng.uniform(0.0, 1.0, size=6)
    gk = np.cumsum(increments)
    gk = gk / gk[-1] * rng.uniform(0.3, 1.0) * 1.5
    gv = np.interp(nodes, knots, gk)
    a = GridFunction(kt.grid, av)
    g = GridFunction(kt.grid, gv)
    shrink = rng.uniform(0.0, 1.0, size=nodes.shape)
    xv = av + apply_B(kt, g, GridFunction(kt.grid, shrink * av)).scalar()
    return GronwallInstance.build(kt.grid, xv, a, g)


@dataclass
class HarnessReport:
    n_instances: int
    n_certificate_failures: int
    n_series_violations: int
    n_order_violations: int
    n_monotone_violations: int
    worst_series_margin: float
    worst_order_margin: float

    @property
    def ok(self) -> bool:
        return (
            self.n_certificate_failures
            == self.n_series_violations
            == self.n_order_violations
            == self.n_monotone_violations
            == 0
        )


def run_random_harness(
    kt: KernelTable,
    n_instances: int,
    master_seed: int = 0,
) -> HarnessReport:
    """Check the bound chain on seeded random instances."""
    if n_instances < 1:
        raise ValueError(f"n_instances must be >= 1, got {n_instances}")
    seeds = np.random.SeedSequence(master_seed).spawn(n_instances)
    cert = series_v = order_v = mono_v = 0
    worst_series = math.inf
    worst_order = math.inf
    for ss in seeds:
        inst = random_instance(kt, np.random.default_rng(ss))
        rep = check_instance(inst, kt)
        cert += 0 if rep.certificate_ok else 1
        series_v += 0 if rep.ok_series else 1
        order_v += 0 if rep.ok_order else 1
        if rep.ok_monotone is False:
            mono_v += 1
        worst_series = min(worst_series, float((rep.margin_series + rep.slack).min()))
        worst_order = min(worst_order, float((rep.margin_order + rep.slack).min()))
    return HarnessReport(
        n_instances=n_instances,
        n_certificate_failures=cert,
        n_series_violations=series_v,
        n_order_violations=order_v,
        n_monotone_violations=mono_v,
        worst_series_margin=worst_series,
        worst_order_margin=worst_order,
    )


# -- continuity experiments ----------------------------------------------------


@dataclass
class ContinuityReport:
    rows: List[dict]
    bound_factor: float
    t_prime: float
    ok: bool


#: relative quadrature allowance on the continuity bounds
_CONTINUITY_SLACK = 0.05
#: Picard tolerance of every continuity run; twice it is allowed on top of each bound
_CONTINUITY_TOL = 1e-10


def _perturbation_report(problem, perturb, kt, R, m, lam, deltas, bound) -> ContinuityReport:
    """Solve ``problem`` and ``perturb(delta)`` for every delta on nodes
    0..m and compare the nodewise deviations with ``bound(|delta|, e)``,
    e = e(t_i; lam) for i = 0..m the grid solution of e = 1 + lam * I[e]
    over the first m cells, plus the quadrature and Picard allowances."""
    deltas = list(deltas)
    if not deltas:
        raise ValueError("deltas must not be empty")
    e_curve = _resolvent_solve(kt.u_cell[:m], np.ones((m + 1, 1)), np.full(m + 1, lam))[:, 0]
    base, _ = picard_solve(problem, kt, R, tol=_CONTINUITY_TOL, horizon_index=m)
    rows = []
    for delta in deltas:
        dvec = np.atleast_1d(np.asarray(delta, dtype=float))
        dnorm = float(np.linalg.norm(dvec))
        sol, _ = picard_solve(perturb(dvec), kt, R, tol=_CONTINUITY_TOL, horizon_index=m)
        deviation = np.linalg.norm(sol.values - base.values, axis=1)
        allowed = bound(dnorm, e_curve) * (1.0 + _CONTINUITY_SLACK) + 2.0 * _CONTINUITY_TOL
        worst = float(deviation.max())
        rows.append(
            {
                "delta": dnorm,
                "deviation": worst,
                "bound": float(np.max(allowed)),
                "ratio": worst / dnorm if dnorm > 0 else 0.0,
                "ok": bool(np.all(deviation <= allowed)),
            }
        )
    ok = all(row["ok"] for row in rows)
    return ContinuityReport(rows, float(e_curve[-1]), float(kt.grid.nodes[m]), ok)


def continuity_experiment_initial(
    problem: IvpProblem,
    kt: KernelTable,
    cp: Optional[ConvolutionPowers],
    R: float,
    deltas,
) -> ContinuityReport:
    """Perturb the initial datum and compare the solution deviation with
    |delta| * e(T'; L), the Lipschitz factor of the solution map.

    All perturbations must stay inside the unit ball around f0 so one
    horizon serves every run (the ball radius 1 matches the enlarged
    local-bound radius R + 1 + |f0| used to select it).  ``cp`` is only
    checked by :func:`_require_table`; ROADMAP 1(c) deletes it after 1(b).
    """
    _require_table(kt, cp)
    deltas = [np.atleast_1d(np.asarray(delta, dtype=float)) for delta in deltas]
    if any(np.linalg.norm(dvec) > 1.0 for dvec in deltas):
        raise ValueError("perturbations must stay inside the unit ball")
    r_tilde = R + 1.0 + float(np.linalg.norm(problem.f0))
    m = _horizon_index(problem.spec.c_bound, r_tilde, kt.U_node, R)
    L = float(problem.spec.lip_l(r_tilde))

    def perturb(dvec):
        return replace(problem, f0=problem.f0 + dvec)

    return _perturbation_report(problem, perturb, kt, R, m, L, deltas, lambda d, e: d * e[-1])


@dataclass
class ParamFamily:
    """Parameterized right-hand sides F(t, y; v) with uniform metadata.

    ``make(v)`` returns the problem at parameter v; ``lip_param`` bounds
    |F(t, x; v1) - F(t, x; v2)| / |v1 - v2| on the working ball,
    ``lip_state`` the state-Lipschitz constant, both uniform over the
    parameter neighbourhood exercised.
    """

    make: callable
    lip_param: float
    lip_state: float
    label: str = ""


def continuity_experiment_parameter(
    family: ParamFamily,
    kt: KernelTable,
    v0,
    deltas,
    R: float,
) -> ContinuityReport:
    """Perturb the parameter and compare nodewise deviations with
    lip_param * |dv| * U(t) * e(t; lip_state).

    One horizon serves every run: T' is the shortest of the horizons that
    :func:`select_horizon` gives the problem at v0 and each perturbed
    problem, so every run is confined to its ball on [0, T'].
    """
    v0 = np.atleast_1d(np.asarray(v0, dtype=float))
    deltas = [np.atleast_1d(np.asarray(delta, dtype=float)) for delta in deltas]

    def perturb(dvec):
        return family.make(v0 + dvec)

    problem = family.make(v0)
    m = min(select_horizon(p, kt, R) for p in (problem, *map(perturb, deltas)))
    U = kt.U_node[: m + 1]

    def bound(dnorm, e):
        return family.lip_param * dnorm * (U * e)

    return _perturbation_report(problem, perturb, kt, R, m, family.lip_state, deltas, bound)
