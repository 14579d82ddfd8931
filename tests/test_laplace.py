import cmath
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gamma

from genfrac import (
    AbscissaError,
    BernsteinFunction,
    Grid,
    abscissa_for_eigen,
    build_kernel_table,
    invert_grid,
    phi_exp_laplace_curve,
)

from conftest import INV_GAMMA_1_5

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import oracles  # noqa: E402

FINE = Grid(1.0, 16384)


def ml2(a, b, x):
    """Two-parameter Mittag-Leffler E_{a,b}(x) by its power series, for |x| <= 1."""
    x = np.asarray(x, dtype=float)
    k = np.arange(120)
    terms = x[:, None] ** k / gamma(a * k + b)
    assert np.all(np.abs(terms[:, -1]) <= 1e-17 * np.abs(terms).sum(axis=1))
    return terms.sum(axis=1)


def two_term_potential(phi, t):
    """U for phi(z) = w1 z^a1 + w2 z^a2 with a1 < a2: the transform
    1 / (z phi(z)) is that of t^a2 / w2 * E_{a2-a1, 1+a2}(-(w1/w2) t^(a2-a1))."""
    (w1, w2), (a1, a2) = phi.weights, phi.alphas
    t = np.asarray(t, dtype=float)
    return t ** a2 / w2 * ml2(a2 - a1, 1.0 + a2, -(w1 / w2) * t ** (a2 - a1))


class TestBasicPairs:
    def test_constant(self):
        assert invert_grid(lambda z: 1.0 / z, [3.0]) == pytest.approx([1.0], abs=1e-10)

    def test_identity(self):
        assert invert_grid(lambda z: 1.0 / z ** 2, [2.0]) == pytest.approx([2.0], abs=1e-10)

    def test_sqrt_pair(self):
        assert invert_grid(lambda z: z ** -1.5, [1.0]) == pytest.approx(
            [INV_GAMMA_1_5], abs=1e-10
        )


class TestExponentialRoundTrip:
    def test_plain_gs_slow_decay(self):
        # without recentering, a decaying original is inverted as it stands
        ts = np.linspace(0.1, 5.0, 9)
        vals = invert_grid(lambda z: 1.0 / (z + 0.1), ts)
        assert vals == pytest.approx(np.exp(-0.1 * ts), rel=1e-10)


class TestOracles:
    """Kernel potentials and eigenfunctions against independent closed forms."""

    def test_tempered_potential(self, tempered_half):
        kt = build_kernel_table(tempered_half, FINE)
        exact = oracles.tempered_moment(0.5, 1.0, FINE.nodes[1:])
        assert kt.U_node[1:] == pytest.approx(exact, rel=1e-10, abs=0.0)

    def test_mixture_potential(self, mixture_phi):
        kt = build_kernel_table(mixture_phi, FINE)
        exact = two_term_potential(mixture_phi, FINE.nodes[1:])
        assert kt.U_node[1:] == pytest.approx(exact, rel=1e-10, abs=0.0)

    def test_mixture_closed_form_against_mpmath(self, mixture_phi):
        mpmath = pytest.importorskip("mpmath")
        (w1, w2), (a1, a2) = mixture_phi.weights, mixture_phi.alphas
        ts = [1.0 / 1024, 0.01, 0.1, 0.5, 1.0]
        with mpmath.workdps(30):
            ref = [
                float(mpmath.invertlaplace(
                    lambda z: 1 / (z * (w1 * z ** a1 + w2 * z ** a2)), t, method="talbot"))
                for t in ts
            ]
        assert two_term_potential(mixture_phi, ts) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("lam", [-1e4, -100.0, -1.0, 1.0, 5.0])
    def test_stable_eigenfunction(self, stable_half, lam):
        ts = Grid(1.0, 4096).nodes[1:]
        got = phi_exp_laplace_curve(stable_half, lam, ts)
        exact = oracles.stable_half_eigen(lam, ts)
        assert np.all(np.abs(got - exact) <= 1e-10 * np.maximum(1.0, np.abs(exact)))

    @pytest.mark.parametrize("lam", [-1.0, 1.0])
    def test_tempered_eigenfunction(self, tempered_half, lam):
        ts = Grid(1.0, 4096).nodes[1:]
        got = phi_exp_laplace_curve(tempered_half, lam, ts)
        exact = oracles.tempered_eigen(0.5, 1.0, lam, ts)
        assert np.all(np.abs(got - exact) <= 1e-10 * np.maximum(1.0, np.abs(exact)))


class TestMethodAgreement:
    def test_monotone_original(self, catalog_phis):
        # U is nondecreasing; its inversion should come out that way too
        ts = np.linspace(0.05, 5.0, 40)
        for phi in catalog_phis:
            vals = invert_grid(lambda z: 1.0 / (z * phi.phi(z)), ts)
            assert np.all(np.diff(vals) > -1e-10)

    def test_scalar_fallback(self):
        # transforms that cannot take arrays fall back to the per-node loop
        def scalar_only(z):
            if np.ndim(z):
                raise TypeError("scalar only")
            return 1.0 / (z * z)

        ts = np.array([0.5, 1.0, 2.0])
        assert invert_grid(scalar_only, ts) == pytest.approx(ts, abs=1e-10)
        assert invert_grid(
            lambda z: 1.0 / (cmath.sqrt(z) * z), [1.0]
        ) == pytest.approx([INV_GAMMA_1_5], abs=1e-10)


class TestTimesAreIndependent:
    @pytest.mark.parametrize("lam", [-1.0, 1.0])
    def test_a_time_alone_equals_it_inside_an_array(self, stable_half, lam):
        # each time is one row summed in a fixed order, whatever the row count
        alone = phi_exp_laplace_curve(stable_half, lam, [0.7])[0]
        for ts in ([0.3, 0.7, 1.0], np.r_[0.3, 0.7, np.linspace(0.01, 1.0, 100)]):
            assert phi_exp_laplace_curve(stable_half, lam, ts)[1] == alone


class TestAbscissa:
    def test_stable(self):
        phi = BernsteinFunction.stable(0.5)
        assert abscissa_for_eigen(phi, 2.0) == pytest.approx(4.0, rel=1e-9)

    def test_nonpositive(self):
        phi = BernsteinFunction.stable(0.5)
        assert abscissa_for_eigen(phi, -3.0) == 0.0
        assert abscissa_for_eigen(phi, 0.0) == 0.0

    def test_tempered(self):
        phi = BernsteinFunction.tempered(0.5, 1.0)
        assert abscissa_for_eigen(phi, 1.0) == pytest.approx(3.0, rel=1e-9)

    def test_bounded_custom_raises(self):
        phi = BernsteinFunction.custom(
            phi_eval=lambda lam: 1.0 - np.exp(-lam),
            levy_tail=lambda t: math.exp(-t),
            beta=0.5,
            c_assump=2.0,
            t0=1.0,
        )
        with pytest.raises(AbscissaError):
            abscissa_for_eigen(phi, 2.0)


class TestConfig:
    def test_time_must_be_positive(self):
        with pytest.raises(ValueError):
            invert_grid(lambda z: 1.0 / z, [1.0, 0.0])
