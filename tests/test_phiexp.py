import math
import time

import numpy as np
import pytest
from scipy.special import gammaln

from genfrac import (
    CancellationError,
    GridFunction,
    InversionConfig,
    TruncationError,
    convolution_powers,
    eigen_residual,
    mittag_leffler,
    parse_phi_spec,
    phi_exp_laplace_curve,
    phi_exp_series,
    phi_exp_series_curve,
    suggest_power_count,
)

from genfrac.mittag import mittag_leffler_tails
from genfrac.phiexp import CANCELLATION_LIMIT, SERIES_TOL

from conftest import ML_ORACLE


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
        beta = cp.beta
        for k in range(1, 9):
            bound = (
                cp.c_env_U
                * cp.c_env_u ** (k - 1)
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


def _reference_terms(cp, lam, K, i):
    """lam^k u_k(t_i), k = 0..K, one Python float at a time: products while
    |lam|^K < e^690, else exp(k log|lam| + log u)."""
    log_space = abs(lam) > 1.0 and K * math.log(abs(lam)) >= 690.0
    terms = []
    for k in range(K + 1):
        u = float(cp.u_star[k, i])
        if not log_space:
            terms.append(lam ** k * u)
        elif u > 0.0:
            sign = math.copysign(1.0, lam) ** k
            terms.append(sign * math.exp(k * math.log(abs(lam)) + math.log(u)))
        else:
            terms.append(0.0)
    return terms


def _certified_k(cp, lam, i):
    """First K >= 1 whose majorant tail at node i meets SERIES_TOL against
    the running sum of the terms there, or None."""
    beta = cp.beta
    x = abs(lam) * cp.c_env_u * math.gamma(beta) * cp.grid.nodes[i] ** beta
    tails = cp.c_env_U * beta / cp.c_env_u * mittag_leffler_tails(beta, x, cp.k_max + 1)
    running = 0.0
    for K, term in enumerate(_reference_terms(cp, lam, cp.k_max, i)):
        running += term
        if K >= 1 and tails[K + 1] <= SERIES_TOL * max(abs(running), 1e-300):
            return K
    return None


def _series_per_node(cp, lam, i, K):
    """Reference series value at node i with truncation K: math.fsum of the
    terms, or None where sum|term| > CANCELLATION_LIMIT * |sum|."""
    terms = _reference_terms(cp, lam, K, i)
    total = math.fsum(terms)
    if math.fsum(map(abs, terms)) > CANCELLATION_LIMIT * max(abs(total), 1e-300):
        return None
    return total


class TestSeriesRoute:
    def test_zero_eigenvalue_exact(self, cp_stable_512):
        assert phi_exp_series(cp_stable_512, 0.0, 256) == 1.0
        assert np.all(phi_exp_series_curve(cp_stable_512, 0.0) == 1.0)

    @pytest.mark.parametrize("lam", [-1.0, 1.0])
    def test_stable_matches_oracle(self, cp_stable_4096, lam):
        got = phi_exp_series(cp_stable_4096, lam, 4096)
        assert got == pytest.approx(ML_ORACLE[(0.5, lam)], rel=1e-3)

    def test_curve_matches_pointwise(self, cp_stable_512):
        # the curve truncates at the worst node, pointwise evaluation per
        # node; both are certified to 1e-10 relative
        for lam in (-1.5, 0.7):
            curve = phi_exp_series_curve(cp_stable_512, lam)
            for idx in (0, 128, 512):
                assert curve[idx] == pytest.approx(
                    phi_exp_series(cp_stable_512, lam, idx), rel=5e-10
                )

    def test_stable_identity_on_grid(self, cp_stable_4096):
        # e(t; lam) = E_alpha(lam t^alpha) in the stable case
        nodes = cp_stable_4096.grid.nodes
        for lam in (-2.0, 1.0):
            curve = phi_exp_series_curve(cp_stable_4096, lam)
            for idx in (16, 256, 2048, 4096):
                ref = mittag_leffler(0.5, lam * nodes[idx] ** 0.5)
                assert curve[idx] == pytest.approx(ref, rel=2e-3)

    def test_monotone_shape(self, cp_stable_512):
        up = phi_exp_series_curve(cp_stable_512, 1.0)
        assert np.all(np.diff(up) >= 0)
        down = phi_exp_series_curve(cp_stable_512, -1.0)
        assert np.all(np.diff(down) <= 1e-15)
        assert np.all((down > 0) & (down <= 1.0))

    def test_truncation_error_when_k_small(self, kt_stable_512):
        cp = convolution_powers(kt_stable_512, 4)
        with pytest.raises(TruncationError):
            phi_exp_series(cp, 2.0, 512)

    def test_cancellation_refusal(self, kt_stable_512):
        k = suggest_power_count(kt_stable_512, -6.0)
        cp = convolution_powers(kt_stable_512, k)
        with pytest.raises(CancellationError):
            phi_exp_series(cp, -6.0, 512)

    def test_curve_cancellation_refusal(self, kt_stable_512):
        cp = convolution_powers(kt_stable_512, suggest_power_count(kt_stable_512, -6.0))
        with pytest.raises(CancellationError, match=r"node \d+"):
            phi_exp_series_curve(cp, -6.0)

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
        """Point and curve against math.fsum node by node: 1e-15 relative
        where the terms are products, 1e-12 where they are formed in log
        space (exp and log may differ by an ulp between numpy and math).
        A refusing curve names the first node whose sum the reference refuses."""
        from genfrac import Grid, build_kernel_table

        kt = build_kernel_table(parse_phi_spec(spec), Grid(1.0, 512))
        cp = convolution_powers(kt, suggest_power_count(kt, lam))
        log_space = cp.k_max * math.log(abs(lam)) >= 690.0
        rel = 1e-12 if log_space else 1e-15
        for i in range(0, 513, 8):
            ref = _series_per_node(cp, lam, i, _certified_k(cp, lam, i))
            if ref is None:
                with pytest.raises(CancellationError, match=rf"node {i}\b"):
                    phi_exp_series(cp, lam, i)
            else:
                assert phi_exp_series(cp, lam, i) == pytest.approx(ref, rel=rel, abs=0.0)
        K = _certified_k(cp, lam, 512)
        ref = [_series_per_node(cp, lam, i, K) for i in range(513)]
        if None in ref:
            with pytest.raises(CancellationError, match=rf"node {ref.index(None)}\b"):
                phi_exp_series_curve(cp, lam)
        else:
            assert phi_exp_series_curve(cp, lam) == pytest.approx(ref, rel=rel, abs=0.0)

    def test_suggest_power_count_scales(self, kt_stable_512):
        assert suggest_power_count(kt_stable_512, 0.0) == 1
        small = suggest_power_count(kt_stable_512, 0.5)
        large = suggest_power_count(kt_stable_512, 3.0)
        assert small < large <= 200

    def test_uncertifiable_lambda_refused_quickly(self, stable_half):
        from genfrac import Grid, build_kernel_table

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
        # series route for minutes)
        with pytest.raises(ValueError, match="finite"):
            suggest_power_count(kt_stable_512, lam)
        with pytest.raises(ValueError, match="finite"):
            phi_exp_series(cp_stable_512, lam, 512)
        with pytest.raises(ValueError, match="finite"):
            phi_exp_series_curve(cp_stable_512, lam)
        with pytest.raises(ValueError, match="finite"):
            phi_exp_laplace_curve(stable_half, lam, [0.5, 1.0])


class TestLaplaceRoute:
    def test_zero_eigenvalue(self, stable_half):
        got = phi_exp_laplace_curve(stable_half, 0.0, [3.0])
        assert got[0] == pytest.approx(1.0, abs=1e-7)
        got = phi_exp_laplace_curve(
            stable_half, 0.0, [3.0], InversionConfig(method="talbot")
        )
        assert got[0] == pytest.approx(1.0, abs=1e-8)

    def test_stable_positive_eigenvalue(self, stable_half):
        got = phi_exp_laplace_curve(stable_half, 1.0, [1.0])
        assert got[0] == pytest.approx(ML_ORACLE[(0.5, 1.0)], rel=1e-4)

    def test_stable_negative_eigenvalue(self, stable_half):
        got = phi_exp_laplace_curve(stable_half, -1.0, [1.0])
        assert got[0] == pytest.approx(ML_ORACLE[(0.5, -1.0)], rel=1e-4)

    def test_tempered_cross_route(self, kt_tempered_512, tempered_half):
        k = suggest_power_count(kt_tempered_512, -1.0)
        cp = convolution_powers(kt_tempered_512, k)
        series = phi_exp_series(cp, -1.0, 512)
        laplace = phi_exp_laplace_curve(tempered_half, -1.0, [1.0])[0]
        assert abs(series - laplace) <= 1e-3


@pytest.fixture(scope="module")
def fine_tables(catalog_phis):
    from genfrac import Grid, build_kernel_table

    return {phi.label: build_kernel_table(phi, Grid(1.0, 16384)) for phi in catalog_phis}


@pytest.fixture(scope="module")
def kind_tables(catalog_phis):
    from genfrac import Grid, build_kernel_table

    out = []
    for phi in catalog_phis:
        kt = build_kernel_table(phi, Grid(1.0, 2048))
        cp = convolution_powers(kt, suggest_power_count(kt, 2.0))
        out.append((phi, kt, cp))
    return out


class TestRouteAgreement:
    #: first node of 512, 1024, 2048 at which the series refuses; the powers
    #: are sized for lam = 2, and lam = -5 outruns their certificate
    REFUSES_FROM = {
        ("stable:0.5", -5.0): 512,
        ("tempered:0.5,1", -5.0): 512,
        ("mixture:0.3@0.4+0.7@0.8", -5.0): 1024,
    }

    @pytest.mark.parametrize("lam", [-5.0, -1.0, 0.0, 1.0, 2.0])
    def test_all_catalog_kinds(self, kind_tables, lam):
        # the series agrees with the Laplace route where it certifies its
        # value and refuses where it does not: no route stands in for another
        idx = [512, 1024, 2048]
        for phi, kt, cp in kind_tables:
            first_refusal = self.REFUSES_FROM.get((phi.label, lam), math.inf)
            lap = phi_exp_laplace_curve(phi, lam, kt.grid.nodes[idx])
            for i, ref in zip(idx, lap):
                if i >= first_refusal:
                    with pytest.raises((CancellationError, TruncationError)):
                        phi_exp_series(cp, lam, i)
                else:
                    val = phi_exp_series(cp, lam, i)
                    assert abs(val - ref) <= 1e-3 * (1.0 + abs(ref))


class TestEigenResidual:
    def test_zero_eigenvalue_exact(self, kt_stable_512):
        e = GridFunction.constant(kt_stable_512.grid, 1.0)
        assert eigen_residual(kt_stable_512, 0.0, e) == 0.0

    @pytest.mark.parametrize("lam", [-1.0, 1.0])
    def test_stable_eigenfunctions(self, kt_stable_4096, cp_stable_4096, lam):
        curve = phi_exp_series_curve(cp_stable_4096, lam)
        e = GridFunction(kt_stable_4096.grid, curve)
        res = eigen_residual(kt_stable_4096, lam, e)
        assert res <= 5e-2 * float(np.abs(curve).max())

    def test_rejects_bad_start(self, kt_stable_512):
        e = GridFunction.constant(kt_stable_512.grid, 2.0)
        with pytest.raises(ValueError):
            eigen_residual(kt_stable_512, 0.0, e)
