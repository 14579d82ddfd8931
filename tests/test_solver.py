import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfrac import (
    ConfinementError,
    GridFunction,
    HorizonError,
    NonconvergenceError,
    NumericalError,
    RhsSpec,
    continue_solution,
    make_problem,
    mittag_leffler,
    neumann_affine_solve,
    phi_exp_grid_curve,
    pick_bielecki_tau,
    picard_solve,
    rhs_constant,
    rhs_linear,
    rhs_logistic,
    rhs_power,
    rhs_zero,
    select_horizon,
    solve_to_horizon,
    verify_holder,
)
from genfrac.solver import _theoretical_contraction

from conftest import INV_GAMMA_1_5, ML_ORACLE


def bounded_problem(c_value: float, f0=0.0, horizon=1.0):
    """Problem whose local bound is a constant, for horizon tests."""
    spec = RhsSpec(
        fn=lambda ts, ys: np.zeros_like(ys),
        dim=1,
        c_bound=lambda R: c_value,
        lip_l=lambda R: 0.0,
        label="bounded",
    )
    return make_problem(spec, np.atleast_1d(f0), horizon)


class TestSelectHorizon:
    def test_stable_example(self, kt_stable_4096):
        # C * U(T') < R with C=2, R=1 caps T' at (R Gamma(1.5) / C)^2
        m = select_horizon(bounded_problem(2.0), kt_stable_4096, R=1.0)
        t_prime = kt_stable_4096.grid.nodes[m]
        cap = 0.19634954084936207
        assert t_prime <= cap
        assert cap - t_prime <= kt_stable_4096.grid.step
        assert 2.0 * kt_stable_4096.U_node[m] < 1.0
        assert 2.0 * kt_stable_4096.U_node[m + 1] >= 1.0

    def test_vacuous_bound_gives_full_horizon(self, kt_stable_512):
        m = select_horizon(bounded_problem(0.0), kt_stable_512, R=1.0)
        assert m == kt_stable_512.grid.cells
        assert kt_stable_512.grid.nodes[m] == kt_stable_512.grid.horizon

    def test_too_coarse_raises(self, kt_stable_512):
        with pytest.raises(HorizonError):
            select_horizon(bounded_problem(5.0), kt_stable_512, R=1e-6)

    @pytest.mark.parametrize("radius", [np.inf, np.nan])
    def test_radius_must_be_finite(self, kt_stable_512, radius):
        # an infinite ball makes the affine bound |xi| + |M| R read 0 * inf
        problem = make_problem(rhs_zero(1), [1.0], 1.0)
        with pytest.raises(ValueError, match="R must be positive and finite"):
            solve_to_horizon(problem, kt_stable_512, radius)
        with pytest.raises(ValueError, match="R must be positive and finite"):
            picard_solve(problem, kt_stable_512, radius, horizon_index=8)


class TestBieleckiTau:
    def test_zero_lipschitz(self, kt_stable_512):
        assert pick_bielecki_tau(kt_stable_512, 0.0, 0.5) == 0.0

    def test_doubling_scales_by_conjugate_power(self, kt_stable_512):
        # beta = 1/2 gives p = 3/2, conjugate exponent 3
        t1 = pick_bielecki_tau(kt_stable_512, 1.0, 0.19)
        t2 = pick_bielecki_tau(kt_stable_512, 2.0, 0.19)
        assert t2 / t1 == pytest.approx(8.0, rel=1e-12)

    def test_achieves_half_contraction(self, kt_stable_512):
        for L, tp in ((0.5, 0.3), (3.0, 0.8), (10.0, 1.0)):
            tau = pick_bielecki_tau(kt_stable_512, L, tp)
            assert _theoretical_contraction(kt_stable_512, L, tp, tau) == pytest.approx(
                0.5, rel=1e-12
            )


class TestPicard:
    def test_zero_rhs_converges_immediately(self, kt_stable_512):
        problem = make_problem(rhs_zero(1), [2.5], 1.0)
        sol, state = picard_solve(problem, kt_stable_512, R=1.0)
        assert np.all(sol.values == 2.5)
        assert state.iteration_count == 1

    def test_constant_rhs_is_distribution(self, kt_stable_512):
        problem = make_problem(rhs_constant([1.0]), [0.0], 1.0)
        sol, state = picard_solve(problem, kt_stable_512, R=2.0)
        assert sol.scalar() == pytest.approx(
            kt_stable_512.U_node[: sol.grid.cells + 1], abs=1e-10
        )
        assert state.iteration_count <= 2

    def test_linear_decay_matches_oracle(self, kt_stable_4096):
        problem = make_problem(rhs_linear([[-1.0]]), [1.0], 1.0)
        sol, state = picard_solve(
            problem, kt_stable_4096, R=2.0, tol=1e-12, horizon_index=4096
        )
        assert sol.scalar()[-1] == pytest.approx(ML_ORACLE[(0.5, -1.0)], abs=5e-3)
        assert state.residual_sup <= 2e-12

    def test_quadratic_rhs_step_doubling(self, stable_half):
        from genfrac import Grid, build_kernel_table

        sols = {}
        for n in (2048, 4096):
            kt = build_kernel_table(stable_half, Grid(1.0, n))
            problem = make_problem(rhs_power(1.0, 2.0), [0.1], 1.0)
            sol, _ = picard_solve(problem, kt, R=0.4, tol=1e-12, horizon_index=n)
            sols[n] = sol.scalar()
        assert np.abs(sols[2048] - sols[4096][::2]).max() <= 5e-4

    def test_uniqueness_probe(self, kt_stable_512):
        problem = make_problem(rhs_logistic(1.0), [0.5], 1.0)
        tol = 1e-11
        rng = np.random.default_rng(3)
        shift = 0.5 * 0.6 * rng.choice([-1.0, 1.0])
        a, _ = picard_solve(problem, kt_stable_512, R=0.6, tol=tol)
        b, _ = picard_solve(
            problem, kt_stable_512, R=0.6, tol=tol, initial=np.array([0.5 + shift])
        )
        assert np.abs(a.values - b.values).max() <= 2 * tol

    def test_contraction_ratios_below_theory(self, kt_stable_512):
        problem = make_problem(rhs_logistic(1.0), [0.5], 1.0)
        _, state = picard_solve(problem, kt_stable_512, R=0.6, tol=1e-11)
        assert state.successive_norms[-1] < 1e-11
        for ratio in state.contraction_ratio_estimates[1:]:
            assert ratio < 0.5

    def test_confinement_error_on_forced_horizon(self, kt_stable_512):
        # forcing the full horizon with a tiny ball must abort, not project
        problem = make_problem(rhs_constant([5.0]), [0.0], 1.0)
        with pytest.raises(ConfinementError):
            picard_solve(problem, kt_stable_512, R=0.5, horizon_index=512)

    def test_initial_outside_ball_rejected(self, kt_stable_512):
        problem = make_problem(rhs_zero(1), [0.0], 1.0)
        with pytest.raises(ValueError):
            picard_solve(problem, kt_stable_512, R=0.1, initial=np.array([5.0]))

    def test_vector_problem(self, kt_stable_512):
        rot = rhs_linear([[0.0, -1.0], [1.0, 0.0]])
        problem = make_problem(rot, [1.0, 0.0], 1.0)
        sol, _ = picard_solve(problem, kt_stable_512, R=1.0, tol=1e-11)
        assert sol.dim == 2
        assert sol.values[0] == pytest.approx([1.0, 0.0])


class TestContinuation:
    def test_zero_rhs_stays_constant(self, kt_stable_512):
        problem = make_problem(rhs_zero(1), [1.5], 1.0)
        sol, _ = picard_solve(problem, kt_stable_512, R=1.0, horizon_index=200)
        ext, _ = continue_solution(problem, kt_stable_512, sol, R=1.0)
        assert np.all(ext.values == 1.5)
        assert ext.grid.cells == 512

    def test_two_stage_matches_single(self, kt_stable_512):
        problem = make_problem(rhs_linear([[-1.0]]), [1.0], 1.0)
        single, _ = picard_solve(
            problem, kt_stable_512, R=2.0, tol=1e-12, horizon_index=512
        )
        first, _ = picard_solve(
            problem, kt_stable_512, R=2.0, tol=1e-12, horizon_index=256
        )
        both, _ = continue_solution(
            problem, kt_stable_512, first, R=2.0, tol=1e-12, extend_index=512
        )
        assert np.abs(both.values - single.values).max() <= 5e-3

    def test_larger_ball_reaches_oracle(self, kt_stable_4096):
        problem = make_problem(rhs_linear([[-1.0]]), [1.0], 1.0)
        sol, states = solve_to_horizon(problem, kt_stable_4096, R=1.0, tol=1e-11)
        assert len(states) >= 2  # marching actually happened
        assert sol.scalar()[-1] == pytest.approx(ML_ORACLE[(0.5, -1.0)], abs=5e-3)

    def test_step_mismatch_rejected(self, kt_stable_512, kt_stable_4096):
        problem = make_problem(rhs_zero(1), [1.0], 1.0)
        sol, _ = picard_solve(problem, kt_stable_512, R=1.0, horizon_index=100)
        with pytest.raises(ValueError):
            continue_solution(problem, kt_stable_4096, sol, R=1.0)

    def test_radius_increase_reaches_oracle(self, kt_stable_4096):
        # restart with a doubled confinement ball still lands on the
        # eigenfunction values
        from genfrac.mittag import mittag_leffler

        problem = make_problem(rhs_linear([[-1.0]]), [1.0], 1.0)
        sol, _ = picard_solve(problem, kt_stable_4096, R=0.5, tol=1e-11)
        while sol.grid.cells < 4096:
            sol, _ = continue_solution(problem, kt_stable_4096, sol, R=1.0, tol=1e-11)
        for idx in (1024, 2048, 4096):
            t = kt_stable_4096.grid.nodes[idx]
            ref = mittag_leffler(0.5, -np.sqrt(t))
            assert sol.scalar()[idx] == pytest.approx(ref, abs=5e-3)

    @pytest.mark.parametrize("extend_index", [1000, 200, 100, -1])
    def test_extend_index_outside_grid_rejected(self, kt_stable_512, extend_index):
        problem = make_problem(rhs_logistic(1.0), [0.4], 1.0)
        sol, _ = picard_solve(problem, kt_stable_512, R=0.5, horizon_index=200)
        with pytest.raises(ValueError, match="extend_index"):
            continue_solution(problem, kt_stable_512, sol, R=0.5, extend_index=extend_index)

    def test_residual_is_fixed_point_residual(self, kt_stable_512):
        # recompute max |A f - f| on each continuation segment, with the
        # memory over the solved prefix taken from the returned solution
        problem = make_problem(rhs_logistic(1.0), [0.4], 1.0)
        tol = 1e-10
        sol, states = solve_to_horizon(problem, kt_stable_512, R=0.2, tol=tol)
        assert len(states) > 3
        W = kt_stable_512.u_cell
        h = kt_stable_512.grid.step
        nodes = kt_stable_512.grid.nodes
        f = sol.values
        g = problem.eval_rhs(nodes[:-1] + 0.5 * h, 0.5 * (f[:-1] + f[1:]))
        for prev, state in zip(states, states[1:]):
            mp, m = prev.horizon_index, state.horizon_index
            g_hist = np.zeros((m, 1))
            g_hist[:mp] = g[:mp]
            hist = np.convolve(W[:m], g_hist[:, 0])[mp:m]
            seg = np.convolve(W[: m - mp], g[mp:m, 0])[: m - mp]
            af = problem.f0[0] + hist + seg
            residual = float(np.abs(af - f[mp + 1 : m + 1, 0]).max())
            assert state.residual_sup == pytest.approx(residual, rel=1e-12)
            assert residual <= tol

    def test_segment_march_is_pinned(self, kt_stable_4096):
        # the segment schedule and the sweeps per segment of a long march;
        # the frozen history only moves the last digits, never a decision
        problem = make_problem(rhs_logistic(1.0), [0.4], 1.0)
        tol = 1e-10
        _, states = solve_to_horizon(problem, kt_stable_4096, R=0.05, tol=tol)
        sweeps = [s.iteration_count for s in states]
        assert len(states) == 602
        assert sum(sweeps) == 2411
        assert sweeps == [5] * 11 + [4] * 26 + [3] * 8 + [4] * 557
        assert max(s.residual_sup for s in states) <= 2 * tol

    def test_global_runs_agree_across_segmentations(self, kt_stable_512):
        # global uniqueness probe: different restart schedules (induced by
        # different confinement radii) yield the same full-grid solution
        problem = make_problem(rhs_logistic(1.0), [0.5], 1.0)
        tol = 1e-11
        a, states_a = solve_to_horizon(problem, kt_stable_512, R=0.3, tol=tol)
        b, states_b = solve_to_horizon(problem, kt_stable_512, R=2.0, tol=tol)
        assert len(states_a) != len(states_b)  # genuinely different schedules
        assert np.abs(a.values - b.values).max() <= 20 * tol


class TestHolder:
    def test_constant_is_zero(self, kt_stable_512):
        f = GridFunction.constant(kt_stable_512.grid, 4.0)
        l_est, _ = verify_holder(f, 0.5)
        assert l_est == 0.0

    def test_distribution_constant(self, stable_half):
        from genfrac import Grid, build_kernel_table

        for n in (512, 1024, 2048):
            kt = build_kernel_table(stable_half, Grid(1.0, n))
            f = GridFunction(kt.grid, kt.U_node)
            l_est, pair = verify_holder(f, 0.5)
            assert l_est == pytest.approx(INV_GAMMA_1_5, rel=1e-6)
            assert pair[0] == 0

    def test_solution_estimate_stabilizes(self, stable_half):
        from genfrac import Grid, build_kernel_table

        ests = []
        for n in (512, 1024, 2048):
            kt = build_kernel_table(stable_half, Grid(1.0, n))
            problem = make_problem(rhs_linear([[-1.0]]), [1.0], 1.0)
            sol, _ = picard_solve(problem, kt, R=2.0, tol=1e-11, horizon_index=n)
            l_est, _ = verify_holder(sol, 0.5)
            ests.append(l_est)
        assert max(ests) / min(ests) <= 1.25


class TestNeumann:
    def test_zero_map(self, kt_stable_512):
        out = neumann_affine_solve(kt_stable_512, [[0.0]], [2.0], [1.0])
        expect = 1.0 + 2.0 * kt_stable_512.U_node
        assert out.scalar() == pytest.approx(expect, rel=1e-12)

    def test_decay_matches_oracle(self, kt_stable_4096):
        out = neumann_affine_solve(kt_stable_4096, [[-1.0]], [0.0], [1.0])
        assert out.scalar()[-1] == pytest.approx(ML_ORACLE[(0.5, -1.0)], abs=5e-3)

    def test_growth_matches_series_route(self, kt_stable_4096):
        out = neumann_affine_solve(kt_stable_4096, [[1.0]], [0.0], [1.0])
        series = phi_exp_grid_curve(kt_stable_4096, 1.0)[4096]
        assert out.scalar()[-1] == pytest.approx(series, abs=5e-3)

    def test_agrees_with_picard(self, kt_stable_512):
        from genfrac import rhs_affine

        problem = make_problem(rhs_affine([[-0.5]], [0.3]), [1.0], 1.0)
        pic, _ = picard_solve(problem, kt_stable_512, R=2.0, tol=1e-12, horizon_index=512)
        neu = neumann_affine_solve(kt_stable_512, [[-0.5]], [0.3], [1.0])
        assert np.abs(pic.values - neu.values).max() <= 1e-10

    def test_growth_on_a_long_horizon(self, stable_half):
        # f(4) = E_1/2(sqrt 4) = E_1/2(2)
        from genfrac import Grid, build_kernel_table

        kt = build_kernel_table(stable_half, Grid(4.0, 256))
        out = neumann_affine_solve(kt, [[1.0]], [0.0], [1.0])
        assert out.scalar()[-1] == pytest.approx(ML_ORACLE[(0.5, 2.0)], rel=1e-2)

    def test_refuses_where_the_series_diverges(self, stable_half):
        # W_0/2 = 0.0705 on this grid, so rho(M) = 30 puts the diagonal past 1
        from genfrac import Grid, build_kernel_table

        kt = build_kernel_table(stable_half, Grid(1.0, 64))
        with pytest.raises(NonconvergenceError):
            neumann_affine_solve(kt, [[30.0]], [0.0], [1.0])

    @pytest.mark.parametrize(
        "linmap, xi, f0",
        [([[np.nan]], [0.0], [1.0]), ([[-1.0]], [np.inf], [1.0]), ([[-1.0]], [0.0], [np.nan])],
    )
    def test_non_finite_input_is_refused(self, kt_stable_512, linmap, xi, f0):
        # one check in the forward solve, before the spectral radius or the march
        with pytest.raises(ValueError, match="resolvent solve needs finite"):
            neumann_affine_solve(kt_stable_512, linmap, xi, f0)

    @pytest.mark.parametrize("phi", ["stable_half", "tempered_half"])
    def test_system_agrees_with_picard(self, request, phi):
        from genfrac import Grid, build_kernel_table, rhs_affine

        kt = build_kernel_table(request.getfixturevalue(phi), Grid(1.0, 1024))
        M = [[-0.8, 0.6], [-0.3, 0.4]]
        xi, f0 = [0.2, -0.1], [1.0, 0.5]
        problem = make_problem(rhs_affine(M, xi), f0, 1.0)
        pic, _ = picard_solve(problem, kt, R=3.0, tol=1e-13, horizon_index=1024)
        neu = neumann_affine_solve(kt, M, xi, f0)
        assert np.abs(pic.values - neu.values).max() <= 1e-12


def test_horizon_must_match_the_table(stable_half):
    from genfrac import Grid, build_kernel_table

    kt = build_kernel_table(stable_half, Grid(1.0, 256))
    problem = make_problem(rhs_logistic(1.0), [0.4], 2.0)
    with pytest.raises(ValueError, match="problem horizon 2 differs .* grid horizon 1"):
        solve_to_horizon(problem, kt, 0.5)


class TestSegmentContract:
    """Every call either returns a state whose residual meets tol, or raises
    ValueError (a usage mistake) or a NumericalError (a numerical failure)."""

    @given(
        cells=st.integers(2, 48),
        f0=st.floats(-0.5, 1.5),
        radius=st.one_of(st.floats(-1.0, 3.0), st.just(0.0)),
        tol=st.one_of(st.floats(1e-14, 1e-2), st.just(0.0), st.just(-1e-8)),
        horizon=st.one_of(st.none(), st.integers(-4, 60)),
        prior_cells=st.integers(1, 60),
        extend=st.one_of(st.none(), st.integers(-4, 120)),
    )
    @settings(max_examples=150, deadline=None)
    def test_returns_or_raises_documented_errors(
        self, stable_half, cells, f0, radius, tol, horizon, prior_cells, extend
    ):
        from genfrac import Grid, build_kernel_table

        kt = build_kernel_table(stable_half, Grid(1.0, cells))
        problem = make_problem(rhs_logistic(1.0), [f0], 1.0)

        def check(call):
            try:
                _, state = call()
            except (ValueError, NumericalError):
                return
            assert state.residual_sup <= tol

        check(lambda: picard_solve(problem, kt, radius, tol=tol, horizon_index=horizon))
        prior = GridFunction.constant(Grid(prior_cells * kt.grid.step, prior_cells), f0)
        check(lambda: continue_solution(problem, kt, prior, radius, tol=tol, extend_index=extend))
