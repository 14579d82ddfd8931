import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfrac import (
    ConfinementError,
    Grid,
    GridFunction,
    HolderError,
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
from genfrac.kernels import _BLOCK, _conv_prefix, _lower_toeplitz
from genfrac.solver import _horizon_index, _theoretical_contraction

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

    @pytest.mark.parametrize("bound, lip", [(np.nan, 1.0), (1.0, np.nan), (-1.0, 1.0), (1.0, -1.0)])
    def test_bad_constants_are_usage_errors(self, kt_stable_512, bound, lip):
        # a custom spec whose c_bound or lip_l is NaN or negative is refused
        # before any sweep, whether or not the horizon is forced
        spec = RhsSpec(
            fn=lambda ts, ys: np.zeros_like(ys),
            dim=1,
            c_bound=lambda R: bound,
            lip_l=lambda R: lip,
            label="bad",
        )
        problem = make_problem(spec, [0.0], 1.0)
        with pytest.raises(ValueError, match="must be nonnegative"):
            solve_to_horizon(problem, kt_stable_512, 1.0)
        if lip != 1.0:
            with pytest.raises(ValueError, match="lip_l must be nonnegative"):
                picard_solve(problem, kt_stable_512, 1.0, horizon_index=8)


def horizon_by_scan(c, U, R):
    """The full scan over every node: the reference for the bisection."""
    with np.errstate(invalid="ignore"):  # inf * 0 fails the test, as in the bisection
        ok = c * U < R
    m = len(U) - 1 if ok.all() else int(np.argmin(ok)) - 1
    if m < 1:
        raise HorizonError("no node")
    return m


class TestHorizonBisection:
    @given(
        steps=st.lists(st.sampled_from([0.0, 0.0, 1e-300, 0.25, 1.0, 3.0]), min_size=1, max_size=40),
        start=st.sampled_from([0.0, 0.5]),
        c=st.one_of(st.sampled_from([0.0, 1e-300, np.inf]), st.floats(0.0, 1e6)),
        R=st.one_of(st.floats(1e-300, 1e300), st.integers(0, 40)),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_the_full_scan(self, steps, start, c, R):
        # nondecreasing U with ties; an integer R picks the node whose
        # c * U[m] it equals exactly, where the strict test changes sides
        U = start + np.cumsum([0.0] + steps)
        if isinstance(R, int):
            R = c * float(U[min(R, len(U) - 1)])
            if not 0 < R < np.inf:
                R = 1.0
        try:
            expected = horizon_by_scan(c, U, R)
        except HorizonError:
            with pytest.raises(HorizonError):
                _horizon_index(lambda r: c, 1.0, U, R)
        else:
            assert _horizon_index(lambda r: c, 1.0, U, R) == expected


class TestBieleckiTau:
    def test_zero_lipschitz(self, kt_stable_512):
        assert pick_bielecki_tau(kt_stable_512, 0.0, 0.5) == 0.0

    @pytest.mark.parametrize("L, t_prime", [(np.nan, 0.5), (-1.0, 0.5), (1.0, 0.0), (1.0, np.nan)])
    def test_bad_arguments_are_usage_errors(self, kt_stable_512, L, t_prime):
        with pytest.raises(ValueError, match="need L >= 0 and t_prime > 0"):
            pick_bielecki_tau(kt_stable_512, L, t_prime)

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

    def test_nonconvergence_is_a_numerical_error(self, kt_stable_512):
        # one sweep cannot meet tol on a nonlinear right-hand side
        problem = make_problem(rhs_logistic(1.0), [0.4], 1.0)
        with pytest.raises(NonconvergenceError) as info:
            picard_solve(problem, kt_stable_512, R=0.5, tol=1e-12, max_iter=1)
        assert isinstance(info.value, NumericalError)
        assert len(info.value.history) == 1

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
        both, _ = picard_solve(
            problem, kt_stable_512, R=2.0, tol=1e-12, horizon_index=256
        )
        while both.grid.cells < 512:
            both, _ = continue_solution(problem, kt_stable_512, both, R=2.0, tol=1e-12)
        assert both.grid == single.grid
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

    def test_segment_march_is_pinned(self, kt_stable_4096, tempered_half):
        # the segment lengths and the sweeps per segment of the four benchmark
        # marches at N = 4096, as (value, repeats) runs: a change of summation
        # order may move the last digits, never a decision
        from genfrac import Grid, build_kernel_table

        kt_tempered = build_kernel_table(tempered_half, Grid(1.0, 4096))
        tol = 1e-10
        cases = [
            (kt_stable_4096, rhs_logistic(1.0), 0.4, 0.05,
             [(18, 1), (17, 1), (16, 1), (15, 3), (14, 5), (13, 6), (12, 11), (11, 15),
              (10, 22), (9, 35), (8, 54), (7, 91), (6, 166), (5, 191)],
             [(5, 11), (4, 26), (3, 8), (4, 557)]),
            (kt_stable_4096, rhs_logistic(1.0), 0.4, 0.5,
             [(n, 1) for n in (275, 218, 202, 191, 183, 176, 171, 166, 162, 158, 155, 152, 149,
                               147, 144, 142, 140, 138, 137, 135, 134, 132, 131, 129, 128, 101)],
             [(7, 1), (5, 3), (6, 9), (7, 13)]),
            (kt_stable_4096, rhs_linear([[-1.0]]), 1.0, 0.5,
             [(n, 1) for n in (357, 524, 624, 708, 784, 853, 246)],
             [(13, 1), (14, 3), (15, 2), (11, 1)]),
            (kt_tempered, rhs_logistic(1.0), 0.4, 0.2,
             [(n, 1) for n in (105, 86, 79, 74, 70, 67, 64, 62, 60, 58, 56, 55, 53, 52, 51, 49,
                               48, 47)]
             + [(46, 2), (45, 1), (44, 1), (43, 2), (42, 1), (41, 2), (40, 2), (39, 1), (38, 3),
                (37, 2), (36, 3), (35, 2), (34, 3), (33, 4), (32, 4), (31, 4), (30, 5), (29, 6),
                (28, 6), (27, 7), (26, 9), (25, 11), (24, 12), (23, 5), (5, 1)],
             [(6, 1), (5, 2), (4, 1), (5, 5), (6, 107), (5, 1)]),
        ]

        def runs(xs):
            out = []
            for x in xs:
                if out and out[-1][0] == x:
                    out[-1] = (x, out[-1][1] + 1)
                else:
                    out.append((x, 1))
            return out

        for kt, spec, f0, radius, cells, sweeps in cases:
            _, states = solve_to_horizon(make_problem(spec, [f0], 1.0), kt, radius, tol=tol)
            ends = [0] + [s.horizon_index for s in states]
            assert runs(np.diff(ends).tolist()) == cells
            assert runs([s.iteration_count for s in states]) == sweeps
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

    def test_march_ends_on_the_table_grid(self, stable_half, tmp_path):
        # N * (T / N) misses T = 3.3 by one ulp; the solution keeps the
        # table's grid, so the memory integral accepts it and the CSV ends at T
        from genfrac import Grid, build_kernel_table, frac_integral
        from genfrac.cli import main

        kt = build_kernel_table(stable_half, Grid(3.3, 3000))
        problem = make_problem(rhs_linear([[-0.2]]), [1.0], 3.3)
        sol, _ = solve_to_horizon(problem, kt, 1.0)
        assert sol.grid == kt.grid
        assert frac_integral(kt, sol).grid == kt.grid
        path = tmp_path / "decay.kv"
        path.write_text("d = 1\nf0 = 1.0\nT = 3.3\nR = 1.0\nrhs = linear\nmatrix = -0.2\n")
        out = tmp_path / "s"
        assert main(
            ["solve", "--phi", "stable:0.5", "--problem", str(path), "--N", "3000",
             "--out", str(out)]
        ) == 0
        last = (out / "solve.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == 3.3

    @pytest.mark.parametrize(
        "spec, f0, radius, widest",
        [
            (rhs_logistic(1.0), [0.4], 0.05, 18),
            (rhs_logistic(1.0), [0.4], 0.5, 275),
            (rhs_linear([[-1.0, 0.5], [0.0, -0.5]]), [1.0, 0.5], 0.5, 475),
        ],
        ids=["narrow", "wide", "d2"],
    )
    def test_march_is_the_public_chain(self, kt_stable_4096, spec, f0, radius, widest):
        # the march in one values array gives the bytes and states of
        # picard_solve followed by continue_solution until the grid's end
        problem = make_problem(spec, f0, 1.0)
        sol, states = solve_to_horizon(problem, kt_stable_4096, radius)
        chain, state = picard_solve(problem, kt_stable_4096, radius)
        chain_states = [state]
        while chain.grid.cells < 4096:
            chain, state = continue_solution(problem, kt_stable_4096, chain, radius)
            chain_states.append(state)
        ends = [0] + [s.horizon_index for s in states]
        assert max(np.diff(ends)) == widest  # segments span that many cells
        assert sol.grid == chain.grid
        assert sol.values.tobytes() == chain.values.tobytes()
        assert states == chain_states


@pytest.mark.parametrize("table", ["kt_stable_512", "kt_tempered_512"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 7, 18, 107, 127, 128])
def test_segment_operator_is_the_history_sum(request, table, d, k):
    # a short segment's history is T[:k, :k] @ g: the products of the direct
    # sum plus exact zeros, so it differs only by summation order
    kt = request.getfixturevalue(table)
    T = _lower_toeplitz(kt.u_cell[:_BLOCK])
    assert T.shape == (_BLOCK, _BLOCK)
    g = np.random.default_rng(k * 10 + d).standard_normal((k, d))
    direct = _conv_prefix(kt.u_cell[:k], g)
    terms = _conv_prefix(kt.u_cell[:k], np.abs(g))
    got = T[:k, :k] @ g
    assert got.shape == direct.shape
    assert np.all(np.abs(got - direct) <= 4 * np.finfo(float).eps * terms)


def holder_by_lags(f, beta):
    """The full O(N^2) scan, one lag at a time: the reference that the
    pruned scan of verify_holder must match bit for bit."""
    vals, h = f.values, f.grid.step
    best, best_pair = 0.0, (0, 0)
    for lag in range(1, f.grid.cells + 1):
        diff = np.linalg.norm(vals[lag:] - vals[:-lag], axis=1)
        i = int(np.argmax(diff))
        ratio = float(diff[i]) / (lag * h) ** beta
        if ratio > best:
            best, best_pair = ratio, (i, i + lag)
    return best, best_pair


def random_walk(seed, cells, d, scale=1.0, decimals=None):
    steps = np.random.default_rng(seed).standard_normal((cells + 1, d))
    walk = np.cumsum(steps, axis=0)
    if decimals is not None:  # rounding makes ties between pairs and lags
        walk = np.round(walk, decimals)
    return GridFunction(Grid(0.7, cells), scale * walk)


class TestHolder:
    def test_constant_is_zero(self, kt_stable_512):
        for value in (4.0, [4.0, -1.0], []):
            f = GridFunction.constant(kt_stable_512.grid, value)
            assert verify_holder(f, 0.5) == (0.0, (0, 0))

    @pytest.mark.parametrize(
        "seed, cells, d, scale, decimals",
        [
            (0, 1, 1, 1.0, None),
            (1, 2, 3, 1.0, None),
            (2, 63, 2, 1.0, None),
            (3, 64, 1, 1.0, None),
            (4, 200, 3, 1.0, None),
            (5, 1000, 1, 1.0, None),
            (6, 1500, 2, 1.0, None),
            (7, 700, 1, 1.0, 0),
            (8, 900, 3, 1.0, 0),
            (9, 1300, 1, 1.0, 1),
            (10, 800, 2, 1e-160, None),
            (11, 640, 1, 1e-160, None),
        ],
    )
    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.93])
    def test_matches_the_full_scan(self, seed, cells, d, scale, decimals, beta):
        f = random_walk(seed, cells, d, scale, decimals)
        got = verify_holder(f, beta)
        assert got == holder_by_lags(f, beta)
        assert type(got[0]) is float

    def test_matches_the_full_scan_on_steps(self):
        # sparse jumps at a small beta: the winning pairs lie far apart, where
        # most blocks are skipped and partners straddle two blocks
        for seed in range(40):
            rng = np.random.default_rng(seed)
            cells = int(rng.integers(100, 700))
            jumps = rng.standard_normal(cells + 1) * (rng.random(cells + 1) < 0.02)
            f = GridFunction(Grid(1.0, cells), np.cumsum(jumps))
            for beta in (0.1, 0.5):
                assert verify_holder(f, beta) == holder_by_lags(f, beta), (seed, beta)

    def test_solution_matches_the_full_scan(self, stable_half):
        # the singular start wins: the pair starts at node 0, and most blocks are skipped
        from genfrac import build_kernel_table

        kt = build_kernel_table(stable_half, Grid(1.0, 2047))
        problem = make_problem(rhs_logistic(1.0), [0.4], 1.0)
        sol, _ = solve_to_horizon(problem, kt, 0.05, tol=1e-10)
        got = verify_holder(sol, 0.5)
        assert got == holder_by_lags(sol, 0.5)
        assert got[1][0] == 0

    def test_memory_stays_that_of_one_lag(self):
        # the full scan peaks at its first lag; slabs add at most 1 MB to that
        f = random_walk(12, 16384, 3)
        vals = f.values
        tracemalloc.start()
        try:
            np.argmax(np.linalg.norm(vals[1:] - vals[:-1], axis=1))
            one_lag = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            verify_holder(f, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= one_lag + 2**20

    def test_overflow_is_a_numerical_error(self):
        # differences of 1e160 overflow when squared
        f = GridFunction(Grid(1.0, 100), np.linspace(0.0, 1e162, 101))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HolderError, match="overflows") as info:
                verify_holder(f, 0.5)
        assert isinstance(info.value, NumericalError)

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
    )
    @settings(max_examples=150, deadline=None)
    def test_returns_or_raises_documented_errors(
        self, stable_half, cells, f0, radius, tol, horizon, prior_cells
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
        check(lambda: continue_solution(problem, kt, prior, radius, tol=tol))
