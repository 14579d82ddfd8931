import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfrac import (
    Grid,
    GridFunction,
    build_kernel_table,
    caputo_derivative,
    check_inversion_identity,
    frac_integral,
    kernel_table_from_csv,
    kernel_table_to_csv,
)
from genfrac.errors import KernelConsistencyError, NonconvergenceError
from genfrac.kernels import _conv_prefix, _frac_integral_values, _resolvent_solve

from conftest import INV_GAMMA_1_5, INV_GAMMA_2_5

# U(t) = t^0.5 / Gamma(1.5) at t = 0, .25, .5, .75, 1  (50-digit offline)
U_STABLE_N4 = np.array(
    [
        0.0,
        0.56418958354775628695,
        0.79788456080286535588,
        0.97720502380583984317,
        1.1283791670955125739,
    ]
)


class TestBuild:
    def test_stable_closed_form_nodes(self, stable_half):
        kt = build_kernel_table(stable_half, Grid(1.0, 4))
        assert kt.U_node == pytest.approx(U_STABLE_N4, rel=1e-12)
        assert kt.u_cell[0] == pytest.approx(U_STABLE_N4[1], rel=1e-12)
        assert kt.u_cell[1] == pytest.approx(0.23369497725510906893, rel=1e-12)

    def test_tempered_renewal_limit(self, tempered_half):
        # for large T the potential grows like t / phi'(0+), phi'(0+) = 1/2
        kt = build_kernel_table(tempered_half, Grid(20.0, 256))
        assert kt.U_node[-1] == pytest.approx(40.0, abs=2.0)

    def test_cell_sums_match_distribution(self, kt_tempered_512, kt_mixture_512):
        for kt in (kt_tempered_512, kt_mixture_512):
            cum = np.concatenate(([0.0], np.cumsum(kt.u_cell)))
            assert np.all(
                np.abs(cum - kt.U_node) <= 1e-10 * (1.0 + np.abs(kt.U_node))
            )

    def test_table_invariants(self, kt_stable_512, kt_tempered_512, kt_mixture_512):
        for kt in (kt_stable_512, kt_tempered_512, kt_mixture_512):
            assert kt.U_node[0] == 0.0
            assert np.all(np.diff(kt.U_node) >= 0)
            assert np.all(kt.u_cell >= 0)
            # cell masses of a nonincreasing density are nonincreasing
            slack = 1e-9 * kt.u_cell[0]
            assert np.all(np.diff(kt.u_cell) <= slack)
            assert np.all(np.diff(kt.nu_cell) <= 1e-9 * kt.nu_cell[0])
            t = kt.grid.nodes[1:]
            assert np.all(kt.U_node[1:] <= kt.c_env_U * t ** kt.beta * (1 + 1e-12))

    def test_envelope_constant_stable_under_refinement(self, stable_half, tempered_half):
        for phi in (stable_half, tempered_half):
            fits = [
                build_kernel_table(phi, Grid(1.0, n)).c_fit for n in (256, 512, 1024)
            ]
            assert max(fits) / min(fits) < 1.05

    def test_custom_kind_inversion_route(self):
        # wrap the stable law as a custom entry: the inversion-built table
        # must reproduce the closed-form one
        from genfrac import BernsteinFunction

        custom = BernsteinFunction.custom(phi_eval=lambda lam: lam ** 0.5, beta=0.5)
        grid = Grid(1.0, 128)
        kt_custom = build_kernel_table(custom, grid)
        kt_exact = build_kernel_table(BernsteinFunction.stable(0.5), grid)
        assert kt_custom.U_node == pytest.approx(kt_exact.U_node, rel=1e-10, abs=0)
        assert kt_custom.nu_cell == pytest.approx(kt_exact.nu_cell, rel=1e-10, abs=0)


class TestConvPrefix:
    """The history sum against direct summation, across the block edges."""

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300, 4097])
    @pytest.mark.parametrize("width", [None, 1, 3])
    def test_matches_direct_convolution(self, n, width):
        # the whole prefix; narrow and wide windows that start inside the
        # cells and end at or past their end; one entirely past it, as the
        # continuation and the block history of the forward solve read it
        rng = np.random.default_rng(n)
        kernel = rng.uniform(0.0, 1.0, size=n + 5)
        shape = (n,) if width is None else (n, width)
        cells = rng.uniform(-1.0, 1.0, size=shape)
        got = _conv_prefix(kernel, cells)
        columns = cells.reshape(n, -1).T
        direct = np.stack([np.convolve(kernel[:n], c)[:n] for c in columns], axis=1)
        assert got.shape == cells.shape
        scale = np.abs(kernel[:n]).sum() * np.abs(cells).max()
        assert np.abs(got - direct.reshape(shape)).max() <= 1e-14 * scale
        direct = np.stack([np.convolve(kernel, c) for c in columns], axis=1)
        windows = {(f, s) for f in (0, 1, n // 2, n - 7, n - 1) for s in (n, n + 5) if 0 <= f < s}
        for first, stop in sorted(windows | {(n, n + 5)}):
            got = _conv_prefix(kernel, cells, first, stop)
            assert got.shape == (stop - first,) + cells.shape[1:]
            want = direct[first:stop].reshape(got.shape)
            scale = np.abs(kernel[:stop]).sum() * np.abs(cells).max()
            assert np.abs(got - want).max() <= 1e-14 * scale, (first, stop)


def _node_march(u_cell, b, g):
    """The forward solve one node at a time: x_i from one dot product with
    the solved nodes 1..i-1 and the diagonal weight W_0/2."""
    n = len(u_cell)
    half = 0.5 * u_cell[0]
    if np.ndim(g) == 1:
        step = lambda i, hist: (b[i] + g[i] * hist) / (1.0 - g[i] * half)  # noqa: E731
    else:
        solve = np.linalg.inv(np.eye(len(g)) - half * g)
        step = lambda i, hist: solve @ (b[i] + g @ hist)  # noqa: E731
    # mid[n-1-m] = (W_{m-1} + W_m)/2: the weights of nodes 1..i-1, newest first
    mid = 0.5 * (u_cell[:-1] + u_cell[1:])[::-1]
    x = np.empty_like(b, dtype=float)
    x[0] = b[0]
    for i in range(1, n + 1):
        x[i] = step(i, 0.5 * u_cell[i - 1] * x[0] + mid[n - i :] @ x[1:i])
    return x


def _relerr(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestResolventSolve:
    """The forward solve against the memory integral it inverts, and the
    blocked solve against the node march."""

    @pytest.fixture(scope="class", params=["stable:0.5", "tempered:0.5,1.0"])
    def spec(self, request):
        return request.param

    @pytest.mark.parametrize("n", [2, 127, 128, 129, 256, 300, 4097])
    def test_blocked_matches_node_march(self, spec, n):
        from genfrac import parse_phi_spec

        u_cell = build_kernel_table(parse_phi_spec(spec), Grid(1.0, n)).u_cell
        half = 0.5 * u_cell[0]
        rng = np.random.default_rng(n)
        for d in (1, 2):
            b = rng.uniform(-1.0, 1.0, size=(n + 1, d))
            g = rng.uniform(0.0, 1.5, size=n + 1)
            # one node at max|g| W_0/2 = 0.9, where the diagonal of the block is 0.1
            spike = g.copy()
            spike[rng.integers(1, n + 1)] = 0.9 / half
            for gv in (g, spike):
                want = _node_march(u_cell, b, gv)
                assert _relerr(_resolvent_solve(u_cell, b, gv), want) <= 1e-13
        for d in (2, 7):
            M = rng.uniform(-1.0, 1.0, size=(d, d))
            # coarse grids have a large W_0: keep rho(M) W_0/2 at most 1/2
            M *= min(1.0, 0.5 / (np.abs(np.linalg.eigvals(M)).max() * half))
            b = rng.uniform(-1.0, 1.0, size=(n + 1, d))
            want = _node_march(u_cell, b, M)
            assert _relerr(_resolvent_solve(u_cell, b, M), want) <= 1e-13

    @pytest.mark.parametrize("n", [2, 300, 4097])
    def test_solves_below_the_refusal_and_refuses_at_it(self, spec, n):
        from genfrac import parse_phi_spec

        u_cell = build_kernel_table(parse_phi_spec(spec), Grid(1.0, n)).u_cell
        half = 0.5 * u_cell[0]
        rng = np.random.default_rng(n)
        b = rng.uniform(-1.0, 1.0, size=(n + 1, 1))
        g = rng.uniform(0.0, 1.5, size=n + 1)
        node = rng.integers(1, n + 1)
        g[node] = 0.999 / half
        x = _resolvent_solve(u_cell, b, g)
        assert np.isfinite(x).all()
        assert _relerr(x, _node_march(u_cell, b, g)) <= 1e-13
        # 1 + 1e-12: the product with W_0/2 must not round below 1
        g[node] = (1.0 + 1e-12) / half
        with pytest.raises(NonconvergenceError):
            _resolvent_solve(u_cell, b, g)

    @pytest.mark.parametrize("n", [2, 64])
    def test_matrix_solves_below_the_refusal_and_refuses_at_it(self, spec, n):
        # a constant rate of 0.999 / (W_0/2) grows like exp(rate^2 t): the
        # grids stay coarse enough for the solution to be finite
        from genfrac import parse_phi_spec

        u_cell = build_kernel_table(parse_phi_spec(spec), Grid(1.0, n)).u_cell
        half = 0.5 * u_cell[0]
        b = np.ones((n + 1, 2))
        M = np.array([[0.999 / half, 0.3], [0.0, 0.5]])
        x = _resolvent_solve(u_cell, b, M)
        assert np.isfinite(x).all()
        assert _relerr(x, _node_march(u_cell, b, M)) <= 1e-13
        M[0, 0] = (1.0 + 1e-12) / half
        with pytest.raises(NonconvergenceError):
            _resolvent_solve(u_cell, b, M)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs_are_refused(self, kt_stable_512, bad):
        n = kt_stable_512.grid.cells + 1
        b = np.ones((n, 1))
        g = np.full(n, 0.5)
        g[7] = bad
        with pytest.raises(ValueError, match="finite"):
            _resolvent_solve(kt_stable_512.u_cell, b, g)
        b[3, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            _resolvent_solve(kt_stable_512.u_cell, b, np.full(n, 0.5))
        with pytest.raises(ValueError, match="finite"):
            _resolvent_solve(kt_stable_512.u_cell, np.ones((n, 1)), np.array([[bad]]))

    def test_scalar_g_solves_the_system(self, kt_stable_512):
        rng = np.random.default_rng(7)
        n = kt_stable_512.grid.cells + 1
        b = rng.uniform(-1.0, 1.0, size=(n, 1))
        g = rng.uniform(0.0, 1.5, size=n)
        x = _resolvent_solve(kt_stable_512.u_cell, b, g)
        resid = x - g[:, None] * _frac_integral_values(kt_stable_512.u_cell, x)
        assert np.abs(resid - b).max() <= 1e-13

    def test_matrix_g_solves_the_system(self, kt_stable_512):
        rng = np.random.default_rng(8)
        n = kt_stable_512.grid.cells + 1
        b = rng.uniform(-1.0, 1.0, size=(n, 2))
        M = rng.uniform(-1.0, 1.0, size=(2, 2))
        x = _resolvent_solve(kt_stable_512.u_cell, b, M)
        resid = x - _frac_integral_values(kt_stable_512.u_cell, x) @ M.T
        assert np.abs(resid - b).max() <= 1e-13


class TestFracIntegral:
    def test_constant_gives_distribution(self, kt_stable_512):
        one = GridFunction.constant(kt_stable_512.grid, 1.0)
        out = frac_integral(kt_stable_512, one)
        assert out.scalar() == pytest.approx(kt_stable_512.U_node, rel=1e-12)

    def test_zero(self, kt_stable_512):
        zero = GridFunction.constant(kt_stable_512.grid, 0.0)
        assert np.all(frac_integral(kt_stable_512, zero).values == 0.0)

    def test_linear_input(self, kt_stable_4096):
        f = GridFunction(kt_stable_4096.grid, kt_stable_4096.grid.nodes)
        out = frac_integral(kt_stable_4096, f)
        assert out.scalar()[-1] == pytest.approx(INV_GAMMA_2_5, abs=1e-3)

    def test_positivity(self, kt_stable_512):
        rng = np.random.default_rng(5)
        f = GridFunction(kt_stable_512.grid, rng.uniform(0, 3, kt_stable_512.grid.cells + 1))
        assert np.all(frac_integral(kt_stable_512, f).values >= 0)

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, kt_stable_512, a, b):
        rng = np.random.default_rng(11)
        n = kt_stable_512.grid.cells + 1
        f = rng.standard_normal(n)
        g = rng.standard_normal(n)
        lhs = frac_integral(
            kt_stable_512, GridFunction(kt_stable_512.grid, a * f + b * g)
        ).scalar()
        rhs = a * frac_integral(kt_stable_512, GridFunction(kt_stable_512.grid, f)).scalar()
        rhs = rhs + b * frac_integral(kt_stable_512, GridFunction(kt_stable_512.grid, g)).scalar()
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * (1.0 + np.abs(rhs)))

    def test_grid_mismatch(self, kt_stable_512):
        other = GridFunction.constant(Grid(1.0, 100), 1.0)
        with pytest.raises(ValueError):
            frac_integral(kt_stable_512, other)

    def test_vector_valued(self, kt_stable_512):
        grid = kt_stable_512.grid
        f = GridFunction(grid, np.stack([np.ones(grid.cells + 1), grid.nodes], axis=1))
        out = frac_integral(kt_stable_512, f)
        assert out.values[:, 0] == pytest.approx(kt_stable_512.U_node, rel=1e-12)


class TestCaputo:
    def test_constant_annihilated(self, kt_stable_512):
        c = GridFunction.constant(kt_stable_512.grid, 3.7)
        assert np.all(caputo_derivative(kt_stable_512, c).values == 0.0)

    def test_derivative_of_distribution_is_one(self, kt_stable_4096):
        kt = kt_stable_4096
        f = GridFunction(kt.grid, kt.U_node)
        out = caputo_derivative(kt, f).scalar()
        interior = kt.grid.nodes >= 0.05
        assert np.abs(out[interior] - 1.0).max() <= 5e-3

    def test_linear_input_classical_value(self, kt_stable_4096):
        f = GridFunction(kt_stable_4096.grid, kt_stable_4096.grid.nodes)
        out = caputo_derivative(kt_stable_4096, f).scalar()
        assert out[-1] == pytest.approx(INV_GAMMA_1_5, abs=1e-2)

    def test_grid_mismatch(self, kt_stable_512):
        other = GridFunction.constant(Grid(1.0, 100), 1.0)
        with pytest.raises(ValueError):
            caputo_derivative(kt_stable_512, other)


class TestInversionIdentity:
    def test_smooth_function_all_kinds(
        self, kt_stable_4096, kt_tempered_512, kt_mixture_512
    ):
        for kt in (kt_stable_4096, kt_tempered_512, kt_mixture_512):
            f = GridFunction(kt.grid, 1.0 + kt.grid.nodes ** 2)
            rep = check_inversion_identity(kt, f)
            assert rep.err_int_deriv <= 1e-2
            # integral-then-derivative reproduces f itself, so against
            # f - f(0) the discrepancy is the initial value
            assert rep.err_deriv_int_interior == pytest.approx(1.0, abs=1e-2)

    def test_zero_initial_value_closes_both_ways(self, kt_stable_4096):
        f = GridFunction(kt_stable_4096.grid, kt_stable_4096.grid.nodes ** 2)
        rep = check_inversion_identity(kt_stable_4096, f)
        assert rep.err_int_deriv <= 1e-2
        assert rep.err_deriv_int <= 1e-2

    def test_constant_exact(self, kt_stable_512):
        f = GridFunction.constant(kt_stable_512.grid, 2.0)
        rep = check_inversion_identity(kt_stable_512, f)
        assert rep.err_int_deriv <= 1e-14
        # derivative-after-integral reproduces f = 2, so against f - f(0) = 0
        # the interior discrepancy is the constant plus boundary-layer decay
        assert rep.err_deriv_int_interior == pytest.approx(2.0, abs=1e-2)

    def test_refinement_improves(self, stable_half):
        errs = []
        for n in (2048, 4096):
            kt = build_kernel_table(stable_half, Grid(1.0, n))
            f = GridFunction(kt.grid, np.sin(kt.grid.nodes))
            errs.append(check_inversion_identity(kt, f).err_int_deriv)
        assert errs[0] / errs[1] >= 1.7


class TestCsv:
    def test_round_trip(self, kt_tempered_512, tmp_path):
        path = tmp_path / "kernels.csv"
        kernel_table_to_csv(kt_tempered_512, path)
        back = kernel_table_from_csv(path)
        assert type(back) is type(kt_tempered_512) and back.grid == kt_tempered_512.grid
        assert back.U_node == pytest.approx(kt_tempered_512.U_node, rel=0, abs=0)
        assert back.u_cell == pytest.approx(kt_tempered_512.u_cell, rel=0, abs=0)
        assert back.nu_cell == pytest.approx(kt_tempered_512.nu_cell, rel=0, abs=0)
        assert back.beta == kt_tempered_512.beta
        assert back.c_fit == kt_tempered_512.c_fit

    @pytest.mark.parametrize(
        "mangle, message",
        [
            (lambda lines: [lines[0].replace(" c_env_U=", " c_env_u=")] + lines[1:],
             r"lacks the parameters or columns \['c_env_U'\]"),
            (lambda lines: [lines[0], lines[1].replace(",U,", ",V,")] + lines[2:],
             r"lacks the parameters or columns \['U'\]"),
            (lambda lines: lines[:2], "at least two node rows, has 0"),
            (lambda lines: _edit_row(lines, 4, lambda cells: cells[:3]), "missing or extra cells"),
            (lambda lines: _edit_row(lines, 4, lambda cells: cells + ["1"]),
             "missing or extra cells"),
            (lambda lines: _edit_cell(lines, 4, 3, "nan"), "non-finite"),
            (lambda lines: _edit_cell(lines, 4, 1, "0.5"), "not the uniform grid"),
            (lambda lines: [re.sub(r"c_fit=\S+", "c_fit=0.05", lines[0])] + lines[1:],
             "differ from"),
            (lambda lines: [re.sub(r"c_env_U=\S+", "c_env_U=2", lines[0])] + lines[1:],
             "differ from"),
            (lambda lines: _edit_cell(lines, 4, 2, "-1"), "differ from"),
            (lambda lines: [re.sub(r"beta=\S+", "beta=1", lines[0])] + lines[1:],
             "0 < beta < 1"),
        ],
        ids=["header-key", "column", "no-rows", "short-row", "extra-cell", "nan", "t-off-grid",
             "c_fit", "c_env_U", "u_cell", "beta"],
    )
    def test_malformed_file_is_value_error(self, kt_stable_512, tmp_path, mangle, message):
        path = tmp_path / "kernels.csv"
        kernel_table_to_csv(kt_stable_512, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(mangle(lines)))
        with pytest.raises(ValueError, match=message):
            kernel_table_from_csv(path)

    def test_negative_cell_mass_is_refused(self, kt_stable_512, tmp_path):
        # a file whose u_cell and U columns agree on a mass of -1 at node 2
        path = tmp_path / "kernels.csv"
        kernel_table_to_csv(kt_stable_512, path)
        lines = path.read_text().splitlines(keepends=True)
        lines = _edit_cell(lines, 4, 2, "-1")
        lines = _edit_cell(lines, 5, 3, format(kt_stable_512.U_node[2] - 1.0, ".17g"))
        path.write_text("".join(lines))
        with pytest.raises(KernelConsistencyError, match="negative u-cell mass"):
            kernel_table_from_csv(path)

    def test_declared_envelope_in_the_header_is_ignored(self, kt_tempered_512, tmp_path):
        # files written while the catalog still declared an envelope carry
        # c_assump in their header; the reader ignores header parameters it
        # does not use and rebuilds the same table
        kt = kt_tempered_512
        path = tmp_path / "kernels.csv"
        kernel_table_to_csv(kt, path)
        lines = path.read_text().splitlines(keepends=True)
        lines[0] = lines[0].replace(" c_fit=", " c_assump=2.0912596324932125 c_fit=")
        path.write_text("".join(lines))
        back = kernel_table_from_csv(path)
        assert back.grid == kt.grid
        for name in ("u_cell", "U_node", "nu_cell"):
            assert np.array_equal(getattr(back, name), getattr(kt, name))
        assert (back.beta, back.c_fit, back.c_env_U) == (kt.beta, kt.c_fit, kt.c_env_U)

    def test_rewrite_is_byte_identical(self, kt_stable_512, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        kernel_table_to_csv(kt_stable_512, p1)
        kernel_table_to_csv(kt_stable_512, p2)
        assert p1.read_bytes() == p2.read_bytes()


def _edit_row(lines, row, change):
    """lines with the cells of line ``row`` replaced by ``change(cells)``."""
    body = lines[row].rstrip("\r\n")
    edited = ",".join(change(body.split(","))) + lines[row][len(body):]
    return lines[:row] + [edited] + lines[row + 1:]


def _edit_cell(lines, row, col, value):
    return _edit_row(lines, row, lambda cells: cells[:col] + [value] + cells[col + 1:])
