import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erfcx, gammaln

from genfrac import (
    Grid,
    GridFunction,
    GronwallInstance,
    HorizonError,
    NonconvergenceError,
    NumericalError,
    build_kernel_table,
    ParamFamily,
    apply_B,
    check_instance,
    continuity_experiment_initial,
    convolution_powers,
    continuity_experiment_parameter,
    make_problem,
    mittag_leffler,
    mittag_leffler_derivative,
    ml_bound,
    monotone_bound,
    parse_phi_spec,
    phi_exp_series,
    phi_exp_series_curve,
    random_instance,
    rhs_linear,
    rhs_logistic,
    run_random_harness,
    saturated_instance,
    series_bound,
    suggest_power_count,
    TruncationError,
)
from genfrac.kernels import _frac_integral_values
from genfrac.phiexp import SERIES_TOL

from conftest import ML_ORACLE


def const(kt, value):
    return GridFunction.constant(kt.grid, value)


class TestApplyB:
    def test_unit_functions_give_distribution(self, kt_stable_512):
        out = apply_B(kt_stable_512, const(kt_stable_512, 1.0), const(kt_stable_512, 1.0))
        assert out.scalar() == pytest.approx(kt_stable_512.U_node, rel=1e-12)

    def test_zero_cases(self, kt_stable_512):
        one = const(kt_stable_512, 1.0)
        zero = const(kt_stable_512, 0.0)
        assert np.all(apply_B(kt_stable_512, one, zero).values == 0.0)
        assert np.all(apply_B(kt_stable_512, zero, one).values == 0.0)

    def test_monotone_in_argument(self, kt_stable_512):
        rng = np.random.default_rng(0)
        n = kt_stable_512.grid.cells + 1
        g = GridFunction(kt_stable_512.grid, rng.uniform(0, 2, n))
        f1 = rng.uniform(0, 1, n)
        f2 = f1 + rng.uniform(0, 1, n)
        b1 = apply_B(kt_stable_512, g, GridFunction(kt_stable_512.grid, f1)).scalar()
        b2 = apply_B(kt_stable_512, g, GridFunction(kt_stable_512.grid, f2)).scalar()
        assert np.all(b1 <= b2 + 1e-14)


class TestSeriesBound:
    def test_zero_a(self, kt_stable_512):
        out = series_bound(kt_stable_512, const(kt_stable_512, 1.0), const(kt_stable_512, 0.0))
        assert np.all(out.values == 0.0)

    def test_zero_g_returns_a(self, kt_stable_512):
        a = GridFunction(kt_stable_512.grid, 1.0 + kt_stable_512.grid.nodes)
        out = series_bound(kt_stable_512, const(kt_stable_512, 0.0), a)
        assert out.scalar() == pytest.approx(a.scalar(), rel=1e-12)

    def test_unit_case_is_eigen_series(self, kt_stable_512):
        one = const(kt_stable_512, 1.0)
        out = series_bound(kt_stable_512, one, one)
        assert out.scalar()[-1] == pytest.approx(ML_ORACLE[(0.5, 1.0)], abs=1e-2)

    def test_negative_g_matches_erfcx(self, stable_half):
        # E_1/2(-3 sqrt t) at t = 1 is erfcx(3)
        kt = build_kernel_table(stable_half, Grid(1.0, 64))
        out = series_bound(kt, const(kt, -3.0), const(kt, 1.0))
        assert out.scalar()[-1] == pytest.approx(erfcx(3.0), abs=1e-3)

    def test_negative_g_is_certified_by_the_envelope(self, stable_half):
        kt = build_kernel_table(stable_half, Grid(1.0, 64))
        out = series_bound(kt, const(kt, -1.0), const(kt, 1.0))
        assert out.scalar()[-1] == pytest.approx(ML_ORACLE[(0.5, -1.0)], abs=1e-3)

    @pytest.mark.parametrize("solve", [series_bound, saturated_instance])
    def test_refuses_where_the_series_diverges(self, stable_half, solve):
        # W_0/2 = 0.0705 on this grid, so g = 30 puts the diagonal past 1
        kt = build_kernel_table(stable_half, Grid(1.0, 64))
        with pytest.raises(NonconvergenceError):
            solve(kt, const(kt, 30.0), const(kt, 1.0))

    @pytest.mark.parametrize("solve", [series_bound, monotone_bound])
    def test_overflow_is_a_numerical_failure(self, stable_half, solve):
        # W_0/2 = 0.0353 here, so g = 26 keeps the diagonal at 0.92 < 1,
        # yet the solution passes the largest double before t = 1
        kt = build_kernel_table(stable_half, Grid(1.0, 256))
        with pytest.raises(NumericalError, match="overflowed"):
            solve(kt, const(kt, 26.0), const(kt, 1.0))

    def test_tempered_instance_equals_saturated(self, tempered_half):
        kt = build_kernel_table(tempered_half, Grid(1.0, 1024))
        t = kt.grid.nodes
        a = GridFunction(kt.grid, 0.5 + t)
        g = GridFunction(kt.grid, 0.2 + 1.3 * t)
        out = series_bound(kt, g, a).scalar()
        assert np.array_equal(out, saturated_instance(kt, g, a).x.scalar())


def _ml_bound_per_node(kt, g, a):
    """Reference envelope: one row per node, one scalar E'_beta per cell."""
    t = kt.grid.nodes
    beta, c = kt.beta, kt.c_fit
    gv, av = g.scalar(), a.scalar()
    a_mid = 0.5 * (av[:-1] + av[1:])
    s_mid = t[:-1] + 0.5 * kt.grid.step
    out = av.copy()
    for i in range(1, kt.grid.cells + 1):
        wgt = ((t[i] - t[:i]) ** beta - (t[i] - t[1 : i + 1]) ** beta) / beta
        z = c * math.gamma(beta) * gv[i] * (t[i] - s_mid[:i]) ** beta
        deriv = np.array([mittag_leffler_derivative(beta, float(zj)) for zj in z])
        out[i] += c * math.gamma(beta + 1.0) * gv[i] * float(np.dot(wgt, deriv * a_mid[:i]))
    return out


class TestMlBound:
    def test_zero_a(self, kt_stable_512):
        out = ml_bound(kt_stable_512, const(kt_stable_512, 1.0), const(kt_stable_512, 0.0))
        assert np.all(out.values == 0.0)

    def test_zero_g_returns_a(self, kt_stable_512):
        a = GridFunction(kt_stable_512.grid, 1.0 + kt_stable_512.grid.nodes ** 2)
        out = ml_bound(kt_stable_512, const(kt_stable_512, 0.0), a)
        assert out.scalar() == pytest.approx(a.scalar(), rel=1e-12)

    def test_dominates_series_bound(self, kt_stable_512):
        one = const(kt_stable_512, 1.0)
        sb = series_bound(kt_stable_512, one, one).scalar()
        mb = ml_bound(kt_stable_512, one, one).scalar()
        assert np.all(mb >= sb - 1e-9)

    @pytest.mark.parametrize(
        "spec, cells, g_top",
        [
            ("stable:0.5", 128, 1.5),
            ("tempered:0.5,1.0", 128, 1.5),
            ("mixture:0.3@0.4+0.7@0.8", 128, 1.5),
            ("stable:0.5", 64, 25.0),  # z up to ~25: about 1600 powers of E'
        ],
    )
    def test_matches_per_node_reference(self, spec, cells, g_top):
        kt = build_kernel_table(parse_phi_spec(spec), Grid(1.0, cells))
        rng = np.random.default_rng(cells)
        g = GridFunction(kt.grid, np.sort(rng.uniform(0.0, g_top, cells + 1)))
        a = GridFunction(kt.grid, rng.uniform(0.1, 2.0, cells + 1))
        ref = _ml_bound_per_node(kt, g, a)
        assert ml_bound(kt, g, a).scalar() == pytest.approx(ref, rel=1e-12)

    def test_constant_coefficients_converge_to_closed_form(self, stable_half):
        # for constant a, g the envelope is a E_beta(c G(beta) g t^beta),
        # on stable:0.5 a erfcx(-c G(1/2) g sqrt t)
        a0, g0 = 0.8, 1.2
        errs = []
        for cells in (256, 1024, 4096):
            kt = build_kernel_table(stable_half, Grid(1.0, cells))
            t = kt.grid.nodes
            exact = a0 * erfcx(-kt.c_fit * math.gamma(0.5) * g0 * np.sqrt(t))
            errs.append(np.abs(ml_bound(kt, const(kt, g0), const(kt, a0)).scalar() - exact).max())
        orders = np.log(np.array(errs[:-1]) / errs[1:]) / math.log(4.0)
        assert np.all(orders >= 0.9), (errs, orders)

    def test_derivative_domain_edge(self, stable_half):
        # a_mid = (1, 0, 0, ...) leaves wgt_(N-1) E'(z_max) alone in the last row
        kt = build_kernel_table(stable_half, Grid(1.0, 8))
        t, h = kt.grid.nodes, kt.grid.step
        a = GridFunction(kt.grid, np.r_[1.0, (-1.0) ** np.arange(kt.grid.cells)])
        zeta_last = kt.c_fit * math.gamma(0.5) * (t[-2] + 0.5 * h) ** 0.5
        wgt_last = (t[-1] ** 0.5 - t[-2] ** 0.5) / 0.5
        g0 = 26.5 / zeta_last
        row = ml_bound(kt, const(kt, g0), a).scalar()[-1] - a.scalar()[-1]
        envelope = row / (kt.c_fit * math.gamma(1.5) * g0 * wgt_last)
        assert envelope == pytest.approx(mittag_leffler_derivative(0.5, 26.5), rel=1e-12)
        with pytest.raises(ValueError, match="not finite"):
            ml_bound(kt, const(kt, 26.6 / zeta_last), a)

    def test_refusals(self, kt_stable_512, tempered_half):
        one = const(kt_stable_512, 1.0)
        t = kt_stable_512.grid.nodes
        with pytest.raises(ValueError, match="g >= 0"):
            ml_bound(kt_stable_512, GridFunction(kt_stable_512.grid, t - 0.1), one)
        with pytest.raises(ValueError, match="index"):
            ml_bound(replace(kt_stable_512, beta=1.0), one, one)
        with pytest.raises(ValueError, match="grid mismatch"):
            ml_bound(kt_stable_512, one, GridFunction.constant(Grid(1.0, 256), 1.0))
        # z_max ~ 36 is past the series-safe domain |z| <= 26.63 of index 1/2
        kt = build_kernel_table(tempered_half, Grid(1.0, 512))
        g = GridFunction(kt.grid, 0.2 + 9.8 * kt.grid.nodes)
        with pytest.raises(ValueError, match="domain"):
            ml_bound(kt, g, const(kt, 1.0))


class TestMonotoneBound:
    def test_zero_g_is_one(self, kt_stable_512):
        one = const(kt_stable_512, 1.0)
        out = monotone_bound(kt_stable_512, const(kt_stable_512, 0.0), one)
        assert np.all(out.values == 1.0)

    def test_unit_case_matches_series(self, kt_stable_512, kt_tempered_512):
        # the grid resolvent and the convolution-power series are one
        # eigenfunction: they agree within the series' certified tail
        for kt in (kt_stable_512, kt_tempered_512):
            one = const(kt, 1.0)
            cp = convolution_powers(kt, suggest_power_count(kt, 1.5))
            for lam in (0.5, 1.5):
                out = monotone_bound(kt, const(kt, lam), one).scalar()
                assert out == pytest.approx(phi_exp_series_curve(cp, lam), rel=2 * SERIES_TOL)

    def test_product_form(self, kt_stable_512):
        t = kt_stable_512.grid.nodes
        a = GridFunction(kt_stable_512.grid, 1.0 + t)
        out = monotone_bound(kt_stable_512, const(kt_stable_512, 1.0), a).scalar()
        for idx in (0, 256, 512):
            ref = (1.0 + t[idx]) * mittag_leffler(0.5, math.sqrt(t[idx]))
            assert out[idx] == pytest.approx(ref, rel=1e-3)

    def test_decreasing_a_rejected(self, kt_stable_512):
        a = GridFunction(kt_stable_512.grid, 2.0 - kt_stable_512.grid.nodes)
        with pytest.raises(ValueError):
            monotone_bound(kt_stable_512, const(kt_stable_512, 1.0), a)

    @pytest.mark.parametrize("bound", [monotone_bound, ml_bound])
    @pytest.mark.parametrize(
        "shape", [lambda t: 1.5 * (1.0 - t), lambda t: 1.5 * np.sin(np.pi * t)],
        ids=["falling", "sine"],
    )
    def test_g_not_nondecreasing_is_refused(self, stable_half, bound, shape):
        # on stable:0.5, N = 256, a = 1 these g put the monotone curve 1.39
        # and 4.65 below the equality solution, and the envelope 0.29 and 1.41
        kt = build_kernel_table(stable_half, Grid(1.0, 256))
        g = GridFunction(kt.grid, shape(kt.grid.nodes))
        with pytest.raises(ValueError, match="nondecreasing g"):
            bound(kt, g, const(kt, 1.0))


class TestCheckInstance:
    def test_saturated_equality(self, kt_stable_512, cp_stable_512):
        one = const(kt_stable_512, 1.0)
        inst = saturated_instance(kt_stable_512, one, one)
        sb = series_bound(kt_stable_512, one, one).scalar()
        x = inst.x.scalar()
        gap = np.abs(x[1:] - sb[1:]) / np.abs(sb[1:])
        assert gap.max() <= 1e-3
        rep = check_instance(inst, kt_stable_512, cp_stable_512)
        assert rep.ok

    def test_zero_x_full_margin(self, kt_stable_512, cp_stable_512):
        grid = kt_stable_512.grid
        inst = GronwallInstance.build(
            grid,
            np.zeros(grid.cells + 1),
            1.0 + grid.nodes,
            np.ones(grid.cells + 1),
        )
        rep = check_instance(inst, kt_stable_512, cp_stable_512)
        assert rep.ok
        assert np.all(rep.margin_series >= 1.0)

    def test_violating_instance_flagged(self, kt_stable_512, cp_stable_512):
        grid = kt_stable_512.grid
        inst = GronwallInstance.build(
            grid,
            np.full(grid.cells + 1, 50.0),  # way above anything a=1, g=1 allows
            np.ones(grid.cells + 1),
            np.ones(grid.cells + 1),
        )
        rep = check_instance(inst, kt_stable_512, cp_stable_512)
        assert not rep.certificate_ok
        assert not rep.ok

    def test_invalid_instance_rejected(self, kt_stable_512, cp_stable_512):
        grid = kt_stable_512.grid
        inst = GronwallInstance.build(
            grid,
            np.zeros(grid.cells + 1),
            np.ones(grid.cells + 1),
            2.0 - grid.nodes,  # decreasing g violates the hypotheses
        )
        with pytest.raises(ValueError):
            check_instance(inst, kt_stable_512, cp_stable_512)

    def test_nondecreasing_a_judged_at_its_own_scale(self, stable_half):
        # a drop of 4e-12 in a = 1 exceeds a's rounding allowance 2e-12 but
        # not g's 6e-12: the instance must not be sent to the monotone bound
        kt = build_kernel_table(stable_half, Grid(1.0, 256))
        a = np.ones(257)
        a[100:] -= 4e-12
        inst = GronwallInstance.build(kt.grid, a, a, np.full(257, 5.0))
        assert not inst.a_nondecreasing
        rep = check_instance(inst, kt)
        assert rep.ok_monotone is None
        assert rep.ok

    def test_g_below_zero_by_rounding_is_answered(self, kt_stable_512, cp_stable_512):
        grid = kt_stable_512.grid
        g = np.ones(grid.cells + 1)
        g[0] = -1e-13
        inst = GronwallInstance.build(grid, np.full(grid.cells + 1, 0.5), g + 1.0, g)
        inst.require_valid()
        rep = check_instance(inst, kt_stable_512, cp_stable_512)
        assert rep.ok
        clipped = ml_bound(kt_stable_512, const(kt_stable_512, 1.0), inst.a).scalar()
        assert np.array_equal(rep.ml, clipped)

    def test_random_harness_small(self, kt_stable_512):
        rep = run_random_harness(kt_stable_512, 20, master_seed=123)
        assert rep.ok
        assert rep.n_instances == 20

    @pytest.mark.parametrize("n", [0, -1])
    def test_random_harness_needs_an_instance(self, kt_stable_512, n):
        # no instance would certify nothing and report worst margins of inf
        with pytest.raises(ValueError, match="n_instances must be >= 1"):
            run_random_harness(kt_stable_512, n)

    def test_random_instances_are_valid(self, kt_stable_512):
        rng = np.random.default_rng(77)
        for _ in range(5):
            inst = random_instance(kt_stable_512, rng)
            inst.require_valid()
            xv = inst.x.scalar()
            gv = inst.g.scalar()
            av = inst.a.scalar()
            memory = _frac_integral_values(kt_stable_512.u_cell, inst.x.values)[:, 0]
            assert np.all(xv <= av + gv * memory + 1e-10)


class TestOperatorPowerProperties:
    def test_power_bound_vs_convolution_powers(self, kt_stable_512, cp_stable_512):
        # B^k 1 <= g(t)^k u_k(t) for nondecreasing g
        rng = np.random.default_rng(21)
        for _ in range(10):
            gv = np.cumsum(rng.uniform(0, 0.01, kt_stable_512.grid.cells + 1))
            gv = gv / gv[-1] * rng.uniform(0.2, 1.5)
            g = GridFunction(kt_stable_512.grid, gv)
            term = const(kt_stable_512, 1.0)
            for k in range(1, 7):
                term = apply_B(kt_stable_512, g, term)
                bound = gv ** k * cp_stable_512.u_star[k]
                assert np.all(term.scalar() <= bound * (1 + 1e-9) + 1e-15)

    def test_product_commutation_bound(self, kt_stable_512):
        # B^k(f1 f2) <= f1 B^k f2 for nondecreasing f1 >= 0
        rng = np.random.default_rng(33)
        n = kt_stable_512.grid.cells + 1
        for _ in range(10):
            gv = np.cumsum(rng.uniform(0, 0.01, n))
            g = GridFunction(kt_stable_512.grid, gv / gv[-1])
            f1 = np.cumsum(rng.uniform(0, 0.02, n))
            f2 = rng.uniform(0, 2.0, n)
            lhs = GridFunction(kt_stable_512.grid, f1 * f2)
            rhs = GridFunction(kt_stable_512.grid, f2)
            for _k in range(1, 5):
                lhs = apply_B(kt_stable_512, g, lhs)
                rhs = apply_B(kt_stable_512, g, rhs)
                assert np.all(lhs.scalar() <= f1 * rhs.scalar() + 1e-12)

    def test_vanishing_powers_with_envelope_rate(self, kt_stable_512):
        # ||B^k f||_inf dies out at the Gamma(k beta) envelope rate
        kt = kt_stable_512
        rng = np.random.default_rng(55)
        n = kt.grid.cells + 1
        # smooth positive f: the envelope compares against a continuum
        # integral, so the input must be resolvable by the quadrature
        knots = np.linspace(0.0, kt.grid.horizon, 8)
        fv = np.interp(kt.grid.nodes, knots, rng.uniform(0, 2.0, 8))
        gv = np.ones(n) * 1.3
        g = GridFunction(kt.grid, gv)
        f = GridFunction(kt.grid, fv)
        l1_f = float(np.trapezoid(fv, kt.grid.nodes))
        sups = []
        term = f
        for k in range(1, 21):
            term = apply_B(kt, g, term)
            sup = float(np.abs(term.scalar()).max())
            sups.append(sup)
            if k * kt.beta < 1.0:
                continue  # the T^(k beta - 1) envelope needs k beta >= 1
            env = (
                (kt.c_fit * math.gamma(kt.beta) * 1.3) ** k
                / math.exp(float(gammaln(kt.beta * k)))
                * kt.grid.horizon ** (kt.beta * k - 1.0)
                * l1_f
            )
            assert sup <= env * (1 + 1e-9)
        assert sups[-1] < 1e-3 * max(sups)


class TestContinuity:
    def test_initial_zero_delta(self, kt_stable_512, cp_stable_512):
        problem = make_problem(rhs_linear([[-1.0]]), [1.0], 1.0)
        rep = continuity_experiment_initial(
            problem, kt_stable_512, cp_stable_512, R=2.0, deltas=[np.zeros(1)]
        )
        assert rep.rows[0]["deviation"] <= 1e-10
        assert rep.ok

    def test_initial_linear_exact_deviation(self, kt_stable_512, cp_stable_512):
        # linearity: the perturbed solution shifts by delta * e(t; -1),
        # whose sup over [0, T'] is |delta| at t = 0
        problem = make_problem(rhs_linear([[-1.0]]), [1.0], 1.0)
        rep = continuity_experiment_initial(
            problem, kt_stable_512, cp_stable_512, R=2.0, deltas=[0.1, -0.1]
        )
        assert rep.ok
        for row in rep.rows:
            assert row["deviation"] == pytest.approx(0.1, rel=1e-9)
            assert row["deviation"] < row["bound"]

    def test_initial_logistic_ratios_stable(self, kt_stable_512, cp_stable_512):
        problem = make_problem(rhs_logistic(1.0), [0.4], 1.0)
        rep = continuity_experiment_initial(
            problem,
            kt_stable_512,
            cp_stable_512,
            R=1.0,
            deltas=[0.01, 0.02, 0.04],
        )
        assert rep.ok
        ratios = [row["ratio"] for row in rep.rows]
        assert max(ratios) / min(ratios) <= 1.2

    def test_powers_on_another_grid_are_refused(self, stable_half):
        kt = build_kernel_table(stable_half, Grid(1.0, 256))
        cp = convolution_powers(build_kernel_table(stable_half, Grid(2.0, 256)), 72)
        problem = make_problem(rhs_linear([[-1.0]]), [1.0], 1.0)
        with pytest.raises(ValueError, match="another kernel table"):
            continuity_experiment_initial(problem, kt, cp, R=2.0, deltas=[0.1])

    def test_powers_of_another_phi_are_refused(self, stable_half, tempered_half):
        # one grid, so a grid check passes them; the two functions that still
        # take powers read nothing from them, but refuse foreign ones
        grid = Grid(1.0, 256)
        kt_s, kt_t = (build_kernel_table(phi, grid) for phi in (stable_half, tempered_half))
        cp_s, cp_t = (convolution_powers(kt, 8) for kt in (kt_s, kt_t))
        inst = saturated_instance(kt_t, const(kt_t, 1.5), const(kt_t, 1.0))
        with pytest.raises(ValueError, match="another kernel table"):
            check_instance(inst, kt_t, cp_s)
        problem = make_problem(rhs_linear([[-0.5]]), [0.4], 1.0)
        with pytest.raises(ValueError, match="another kernel table"):
            continuity_experiment_initial(problem, kt_s, cp_t, R=2.0, deltas=[1e-3, -1e-2, 5e-2])

    def test_empty_deltas_are_refused(self, kt_stable_512, cp_stable_512):
        # no perturbation would compare nothing and report ok
        problem = make_problem(rhs_linear([[-1.0]]), [1.0], 1.0)
        with pytest.raises(ValueError, match="deltas must not be empty"):
            continuity_experiment_initial(problem, kt_stable_512, cp_stable_512, R=2.0, deltas=())
        family = ParamFamily(
            make=lambda v: make_problem(rhs_linear([[float(v[0])]]), [1.0], 1.0),
            lip_param=1.0,
            lip_state=1.5,
        )
        with pytest.raises(ValueError, match="deltas must not be empty"):
            continuity_experiment_parameter(family, kt_stable_512, v0=[-1.0], deltas=[], R=2.0)

    def test_initial_rejects_large_delta(self, kt_stable_512, cp_stable_512, monkeypatch):
        # refused before the first solve
        import genfrac.gronwall

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before refusing")

        monkeypatch.setattr(genfrac.gronwall, "picard_solve", no_solve)
        problem = make_problem(rhs_linear([[-1.0]]), [1.0], 1.0)
        with pytest.raises(ValueError, match="unit ball"):
            continuity_experiment_initial(
                problem, kt_stable_512, cp_stable_512, R=2.0, deltas=[0.1, 1.5]
            )

    def test_initial_without_shared_horizon(self, kt_stable_512, cp_stable_512):
        # a numerical failure, not a usage mistake
        problem = make_problem(rhs_linear([[-1.0]]), [1.0], 1.0)
        with pytest.raises(HorizonError):
            continuity_experiment_initial(
                problem, kt_stable_512, cp_stable_512, R=1e-4, deltas=[0.1]
            )

    def test_initial_rejects_nonpositive_radius(self, kt_stable_512, cp_stable_512):
        # checked before the local bound sees the radius: a fractional power
        # of a negative radius is not a real number
        from genfrac import rhs_power

        problem = make_problem(rhs_power(1.0, 1.5), [0.2], 1.0)
        with pytest.raises(ValueError, match="R must be positive"):
            continuity_experiment_initial(
                problem, kt_stable_512, cp_stable_512, R=-5.0, deltas=[0.1]
            )

    def test_parameter_eigen_family(self, kt_stable_512):
        def make(v):
            return make_problem(rhs_linear([[float(v[0])]]), [1.0], 1.0)

        family = ParamFamily(make=make, lip_param=1.0, lip_state=1.5, label="v*y")
        rep = continuity_experiment_parameter(
            family,
            kt_stable_512,
            v0=[-1.0],
            deltas=[0.1, -0.1, 0.0],
            R=2.0,
        )
        assert rep.ok
        assert rep.rows[2]["deviation"] <= 1e-10
        assert rep.rows[0]["ratio"] == rep.rows[0]["deviation"] / 0.1
        assert rep.rows[2]["ratio"] == 0.0

    def test_parameter_factor_is_certified_at_its_own_horizon(self, kt_stable_512):
        # 28 powers certify e(t; 1.5) up to T' = t_147, the horizon of
        # v = -1.1, but not up to T = 1; the factor is e(T'; 1.5) itself
        def make(v):
            return make_problem(rhs_linear([[float(v[0])]]), [1.0], 1.0)

        cp = convolution_powers(kt_stable_512, 28)
        with pytest.raises(TruncationError):
            phi_exp_series_curve(cp, 1.5)
        family = ParamFamily(make=make, lip_param=1.0, lip_state=1.5)
        rep = continuity_experiment_parameter(
            family, kt_stable_512, v0=[-1.0], deltas=[0.1, -0.1], R=2.0
        )
        assert rep.ok
        m = int(round(rep.t_prime / kt_stable_512.grid.step))
        assert m < kt_stable_512.grid.cells
        assert rep.bound_factor == pytest.approx(phi_exp_series(cp, 1.5, m), rel=2 * SERIES_TOL)

    def test_parameter_horizon_covers_every_perturbation(self, stable_half):
        # F = -y + v from v0 = 0: the horizon of v0 alone is T' = 0.5, on
        # which the run at v = 10 left its ball at the first iteration; the
        # shared T' is now the horizon of v = 10, and every run is confined
        from genfrac import rhs_affine, select_horizon

        kt = build_kernel_table(stable_half, Grid(1.0, 128))

        def make(v):
            return make_problem(rhs_affine([[-1.0]], [float(v[0])]), [0.5], 1.0)

        family = ParamFamily(make=make, lip_param=1.0, lip_state=1.0)
        assert kt.grid.nodes[select_horizon(make([0.0]), kt, 2.0)] == 0.5
        rep = continuity_experiment_parameter(
            family, kt, v0=[0.0], deltas=[0.05, 1.0, 3.0, 10.0], R=2.0
        )
        assert rep.ok
        assert rep.t_prime == kt.grid.nodes[select_horizon(make([10.0]), kt, 2.0)] < 0.5

    def test_parameter_affine_family(self, kt_stable_512):
        from genfrac import rhs_affine

        def make(v):
            return make_problem(rhs_affine([[-1.0]], [float(v[0])]), [0.5], 1.0)

        family = ParamFamily(make=make, lip_param=1.0, lip_state=1.0, label="-y+v")
        rep = continuity_experiment_parameter(
            family, kt_stable_512, v0=[0.0], deltas=[0.05], R=2.0
        )
        assert rep.ok
