import math
import time

import numpy as np
import pytest
from scipy.special import erfcx, gammaln

from genfrac import (
    Grid,
    GridFunction,
    InversionError,
    NonconvergenceError,
    NumericalError,
    TruncationError,
    build_kernel_table,
    convolution_powers,
    eigen_residual,
    mittag_leffler,
    parse_phi_spec,
    phi_exp_grid_curve,
    phi_exp_laplace_curve,
    phi_exp_series_curve,
    suggest_power_count,
)
from genfrac.kernels import INTERIOR_FRAC, _frac_integral_values

from conftest import ML_ORACLE, fsum_series


def stable_power_oracle(alpha, k, t):
    """u_k(t) = t^(k a) / Gamma(k a + 1) for the stable kernel."""
    return t ** (k * alpha) / math.exp(float(gammaln(k * alpha + 1.0)))


class TestConvolutionPowers:
    def test_first_two_exact(self, cp_stable_4096, kt_stable_4096):
        assert np.all(cp_stable_4096.u_star[0] == 1.0)
        assert cp_stable_4096.u_star[1] == pytest.approx(
            kt_stable_4096.U_node, rel=1e-14
        )

    def test_nonnegative_nondecreasing(self, cp_stable_512):
        for k in range(cp_stable_512.k_max + 1):
            row = cp_stable_512.u_star[k]
            assert np.all(row >= 0)
            assert np.all(np.diff(row) >= -1e-15)

    def test_stable_closed_form(self, cp_stable_4096):
        for k in range(1, 9):
            got = cp_stable_4096.u_star[k, -1]
            ref = stable_power_oracle(0.5, k, 1.0)
            assert got == pytest.approx(ref, rel=5e-3)

    def test_third_power_value(self, cp_stable_4096):
        assert cp_stable_4096.u_star[3, -1] == pytest.approx(
            0.75225277806367504926, abs=2e-3
        )

    def test_envelope_majorant_holds(self, cp_stable_512):
        cp = cp_stable_512
        t = cp.grid.nodes[1:]
        beta = cp.table.beta
        for k in range(1, 9):
            bound = (
                cp.table.c_env_U
                * cp.table.c_fit ** (k - 1)
                * beta
                * (math.gamma(beta) * t ** beta) ** k
                / math.exp(float(gammaln(beta * k + 1.0)))
            )
            assert np.all(cp.u_star[k, 1:] <= bound * (1.0 + 1e-9))

    @pytest.mark.parametrize(
        "table, lam", [("kt_stable_512", -6.0), ("kt_stable_4096", -3.0)], ids=["N512", "N4096"]
    )
    def test_high_powers_componentwise(self, request, table, lam):
        """Every power to rtol 1e-12 against powers built by iterating np.convolve.

        The powers span hundreds of orders of magnitude, so this is the guard
        against an FFT history sum: its error is relative to the largest
        output, and it fails here from the third power on.  N = 4096 runs
        the history sum over 32 blocks.
        """
        kt = request.getfixturevalue(table)
        k_max = suggest_power_count(kt, lam)
        cp = convolution_powers(kt, k_max)
        n = kt.grid.cells
        ref = np.ones(n + 1)
        for k in range(1, k_max + 1):
            avg = 0.5 * (ref[:-1] + ref[1:])
            ref = np.concatenate(([0.0], np.convolve(kt.u_cell, avg)[:n]))
            pos = ref > 0
            assert cp.u_star[k, pos] == pytest.approx(ref[pos], rel=1e-12, abs=0.0)

    def test_k_max_validation(self, kt_stable_512):
        with pytest.raises(ValueError):
            convolution_powers(kt_stable_512, 0)


class TestSeriesRoute:
    def test_zero_eigenvalue_exact(self, kt_stable_512):
        assert np.all(phi_exp_grid_curve(kt_stable_512, 0.0) == 1.0)

    @pytest.mark.parametrize("lam", [-1.0, 1.0])
    def test_stable_matches_oracle(self, kt_stable_4096, lam):
        got = phi_exp_grid_curve(kt_stable_4096, lam)[4096]
        assert got == pytest.approx(ML_ORACLE[(0.5, lam)], rel=1e-3)

    def test_curve_matches_pointwise(self, kt_stable_512):
        # the series curve is the grid curve of the powers' own table, node
        # for node; 4 powers are far too few to sum the series at lam = 2
        cp = convolution_powers(kt_stable_512, 4)
        for lam in (-1.5, 0.7, 2.0):
            curve = phi_exp_series_curve(cp, lam)
            grid = phi_exp_grid_curve(kt_stable_512, lam)
            for idx in (0, 128, 512):
                assert curve[idx] == grid[idx]

    def test_stable_identity_on_grid(self, kt_stable_4096):
        # e(t; lam) = E_alpha(lam t^alpha) in the stable case
        nodes = kt_stable_4096.grid.nodes
        for lam in (-2.0, 1.0):
            curve = phi_exp_grid_curve(kt_stable_4096, lam)
            for idx in (16, 256, 2048, 4096):
                ref = mittag_leffler(0.5, lam * nodes[idx] ** 0.5)
                assert curve[idx] == pytest.approx(ref, rel=2e-3)

    def test_monotone_shape(self, kt_stable_512):
        up = phi_exp_grid_curve(kt_stable_512, 1.0)
        assert np.all(np.diff(up) >= 0)
        down = phi_exp_grid_curve(kt_stable_512, -1.0)
        assert np.all(np.diff(down) <= 1e-15)
        assert np.all((down > 0) & (down <= 1.0))

    def test_underflowing_powers_give_the_grid_sum(self, mixture_phi):
        # u_k(T) falls below the smallest normal double from k = 243 on and
        # the terms still grow past the 173 powers the envelope asks for: a
        # sum of the stored powers read 1.45e50
        kt = build_kernel_table(mixture_phi, Grid(1.0, 64))
        e = phi_exp_series_curve(convolution_powers(kt, 173), 30.0)
        assert e[-1] == pytest.approx(2.92e52, rel=1e-2)
        resid = e - 1.0 - 30.0 * _frac_integral_values(kt.u_cell, e[:, None])[:, 0]
        assert np.max(np.abs(resid) / np.abs(e)) <= 1e-13

    def test_divergent_grid_series_is_refused(self, mixture_phi):
        # |lam| W_0 / 2 = 2.58: a sum of the stored powers read -3.3e182
        # for a value in (0, 1]
        kt = build_kernel_table(mixture_phi, Grid(1.0, 64))
        with pytest.raises(NonconvergenceError, match="diverges"):
            phi_exp_series_curve(convolution_powers(kt, 173), -100.0)

    def test_answers_where_the_series_cancelled(self, kt_stable_512):
        # sum|term| / |sum| passes 1e6 here, where a sum of powers refused
        e = phi_exp_grid_curve(kt_stable_512, -6.0)
        t = kt_stable_512.grid.nodes
        interior = t >= INTERIOR_FRAC * t[-1]
        assert np.max(np.abs(e - erfcx(6.0 * np.sqrt(t)))[interior]) <= 5e-4

    def test_sup_error_falls_under_refinement(self, kt_stable_512, kt_stable_1024):
        errs = []
        for kt in (kt_stable_512, kt_stable_1024):
            e = phi_exp_grid_curve(kt, -6.0)
            errs.append(np.max(np.abs(e - erfcx(6.0 * np.sqrt(kt.grid.nodes)))))
        assert errs[1] < errs[0]

    def test_overflow_is_numerical_error(self, kt_stable_1024):
        # |lam| W_0 / 2 = 0.53, but e(1; 30) = E_1/2(30) ~ 1e391
        with pytest.raises(NumericalError, match="overflowed"):
            phi_exp_grid_curve(kt_stable_1024, 30.0)

    @pytest.mark.parametrize(
        "spec, lam",
        [
            (spec, lam)
            for spec in ("stable:0.5", "tempered:0.5,1.0", "mixture:0.3@0.4+0.7@0.8")
            for lam in (-3.0, -1.0, 0.7, 2.0)
        ]
        + [("stable:0.3", 4.0)],
    )
    def test_matches_per_node_fsum_reference(self, spec, lam):
        """The grid curve against the paper's identity e = sum_k lam^k u_k,
        summed by math.fsum over the powers at every node where the sum
        keeps its digits, sum|term| <= 1e6 |sum|."""
        kt = build_kernel_table(parse_phi_spec(spec), Grid(1.0, 512))
        cp = convolution_powers(kt, suggest_power_count(kt, lam))
        total, gross = fsum_series(cp, lam)
        kept = gross <= 1e6 * np.abs(total)
        assert kept.sum() > 256
        got = phi_exp_grid_curve(kt, lam)
        assert got[kept] == pytest.approx(total[kept], rel=1e-9, abs=0.0)

    def test_suggest_power_count_scales(self, kt_stable_512):
        assert suggest_power_count(kt_stable_512, 0.0) == 1
        small = suggest_power_count(kt_stable_512, 0.5)
        large = suggest_power_count(kt_stable_512, 3.0)
        assert small < large <= 200

    def test_uncertifiable_lambda_refused_quickly(self, stable_half):
        kt = build_kernel_table(stable_half, Grid(1.0, 256))
        start = time.perf_counter()
        with pytest.raises(TruncationError):
            suggest_power_count(kt, 40.0)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize(
        "label, lam, k",
        [
            ("stable:0.5", -1.0, 32),
            ("stable:0.5", 1.0, 28),
            ("tempered:0.5,1", -1.0, 113),
            ("tempered:0.5,1", 1.0, 107),
            ("mixture:0.3@0.4+0.7@0.8", -1.0, 24),
            ("mixture:0.3@0.4+0.7@0.8", 1.0, 21),
        ],
    )
    def test_truncation_pinned_at_fine_grid(self, fine_tables, label, lam, k):
        assert suggest_power_count(fine_tables[label], lam) == k

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_lambda_rejected(self, stable_half, kt_stable_512, cp_stable_512, lam):
        # refused before any tail sum spends its term budget (nan stalled the
        # power count for minutes)
        with pytest.raises(ValueError, match="finite"):
            suggest_power_count(kt_stable_512, lam)
        with pytest.raises(ValueError, match="finite"):
            phi_exp_grid_curve(kt_stable_512, lam)
        with pytest.raises(ValueError, match="finite"):
            phi_exp_series_curve(cp_stable_512, lam)
        with pytest.raises(ValueError, match="finite"):
            phi_exp_laplace_curve(stable_half, lam, [0.5, 1.0])


class TestLaplaceRoute:
    def test_zero_eigenvalue(self, stable_half):
        got = phi_exp_laplace_curve(stable_half, 0.0, [3.0])
        assert got[0] == pytest.approx(1.0, abs=1e-8)

    def test_stable_positive_eigenvalue(self, stable_half):
        got = phi_exp_laplace_curve(stable_half, 1.0, [1.0])
        assert got[0] == pytest.approx(ML_ORACLE[(0.5, 1.0)], rel=1e-4)

    def test_stable_negative_eigenvalue(self, stable_half):
        got = phi_exp_laplace_curve(stable_half, -1.0, [1.0])
        assert got[0] == pytest.approx(ML_ORACLE[(0.5, -1.0)], rel=1e-4)

    def test_overflow_is_refused(self, stable_half):
        # e(10; 5) ~ 7.5e108 is finite; e(40; 5) ~ exp(1000) is not
        assert np.isfinite(phi_exp_laplace_curve(stable_half, 5.0, [1.0, 10.0])).all()
        with pytest.raises(InversionError, match="overflows at t = 40"):
            phi_exp_laplace_curve(stable_half, 5.0, [1.0, 10.0, 40.0, 1000.0])

    def test_tempered_cross_route(self, kt_tempered_512, tempered_half):
        series = phi_exp_grid_curve(kt_tempered_512, -1.0)[512]
        laplace = phi_exp_laplace_curve(tempered_half, -1.0, [1.0])[0]
        assert abs(series - laplace) <= 1e-3


@pytest.fixture(scope="module")
def fine_tables(catalog_phis):
    return {phi.label: build_kernel_table(phi, Grid(1.0, 16384)) for phi in catalog_phis}


@pytest.fixture(scope="module")
def kind_tables(catalog_phis):
    return [(phi, build_kernel_table(phi, Grid(1.0, 2048))) for phi in catalog_phis]


class TestRouteAgreement:
    @pytest.mark.parametrize("lam", [-5.0, -1.0, 0.0, 1.0, 2.0])
    def test_all_catalog_kinds(self, kind_tables, lam):
        # the grid series and the Laplace route are independent: neither
        # stands in for the other
        idx = [512, 1024, 2048]
        for phi, kt in kind_tables:
            lap = phi_exp_laplace_curve(phi, lam, kt.grid.nodes[idx])
            for val, ref in zip(phi_exp_grid_curve(kt, lam)[idx], lap):
                assert abs(val - ref) <= 1e-3 * (1.0 + abs(ref))


class TestEigenResidual:
    def test_zero_eigenvalue_exact(self, kt_stable_512):
        e = GridFunction.constant(kt_stable_512.grid, 1.0)
        assert eigen_residual(kt_stable_512, 0.0, e) == 0.0

    @pytest.mark.parametrize("lam", [-1.0, 1.0])
    def test_stable_eigenfunctions(self, kt_stable_4096, lam):
        curve = phi_exp_grid_curve(kt_stable_4096, lam)
        e = GridFunction(kt_stable_4096.grid, curve)
        res = eigen_residual(kt_stable_4096, lam, e)
        assert res <= 5e-2 * float(np.abs(curve).max())

    def test_rejects_bad_start(self, kt_stable_512):
        e = GridFunction.constant(kt_stable_512.grid, 2.0)
        with pytest.raises(ValueError):
            eigen_residual(kt_stable_512, 0.0, e)
