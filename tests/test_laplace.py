import cmath
import math

import numpy as np
import pytest

from genfrac import (
    AbscissaError,
    BernsteinFunction,
    InversionConfig,
    abscissa_for_eigen,
    invert_grid,
    parse_ilt_spec,
    phi_exp_laplace_curve,
)

from conftest import INV_GAMMA_1_5

GS = InversionConfig()
TALBOT = InversionConfig(method="talbot")


class TestBasicPairs:
    def test_constant(self):
        # Gaver-Stehfest at order 16 reproduces constants to ~4e-8; the
        # Talbot route reaches 1e-10.
        assert invert_grid(lambda z: 1.0 / z, [3.0], GS) == pytest.approx([1.0], abs=1e-7)
        assert invert_grid(lambda z: 1.0 / z, [3.0], TALBOT) == pytest.approx([1.0], abs=1e-8)

    def test_identity(self):
        assert invert_grid(lambda z: 1.0 / z ** 2, [2.0], GS) == pytest.approx([2.0], abs=1e-6)

    def test_sqrt_pair(self):
        assert invert_grid(lambda z: z ** -1.5, [1.0], GS) == pytest.approx(
            [INV_GAMMA_1_5], abs=1e-5
        )


class TestExponentialRoundTrip:
    def test_plain_gs_slow_decay(self):
        # without recentering the plain method holds ~1e-6 only for mild decay
        ts = np.linspace(0.1, 5.0, 9)
        vals = invert_grid(lambda z: 1.0 / (z + 0.1), ts, GS)
        assert vals == pytest.approx(np.exp(-0.1 * ts), rel=1e-6)


class TestMethodAgreement:
    def test_gs_vs_talbot_on_kernel_transforms(self, catalog_phis):
        ts = np.logspace(math.log10(0.01), 1.0, 12)
        for phi in catalog_phis:
            transforms = [
                lambda z: phi.phi(z) / z,
                lambda z: 1.0 / phi.phi(z),
                lambda z: 1.0 / (z * phi.phi(z)),
                lambda z: phi.phi(z) / z ** 2,
            ]
            for fn in transforms:
                a = invert_grid(fn, ts, GS)
                b = invert_grid(fn, ts, TALBOT)
                assert np.all(np.abs(a - b) <= 1e-5 * (1.0 + np.abs(b)))

    def test_monotone_original(self, catalog_phis):
        # U is nondecreasing; its inversion should come out that way too
        ts = np.linspace(0.05, 5.0, 40)
        for phi in catalog_phis:
            vals = invert_grid(lambda z: 1.0 / (z * phi.phi(z)), ts, GS)
            assert np.all(np.diff(vals) > -1e-10)

    def test_scalar_fallback(self):
        # transforms that cannot take arrays fall back to the per-time loop
        def scalar_only(z):
            if np.ndim(z):
                raise TypeError("scalar only")
            return 1.0 / (z * z)

        ts = np.array([0.5, 1.0, 2.0])
        assert invert_grid(scalar_only, ts, GS) == pytest.approx(ts, abs=1e-6)
        assert invert_grid(
            lambda z: 1.0 / (cmath.sqrt(z) * z), [1.0], TALBOT
        ) == pytest.approx([INV_GAMMA_1_5], abs=1e-8)


class TestTimesAreIndependent:
    @pytest.mark.parametrize("spec", ["gs:16", "talbot:32"])
    @pytest.mark.parametrize("lam", [-1.0, 1.0])
    def test_a_time_alone_equals_it_inside_an_array(self, stable_half, spec, lam):
        # each time is one row summed in a fixed order, whatever the row count
        cfg = parse_ilt_spec(spec)
        alone = phi_exp_laplace_curve(stable_half, lam, [0.7], cfg)[0]
        for ts in ([0.3, 0.7, 1.0], np.r_[0.3, 0.7, np.linspace(0.01, 1.0, 100)]):
            assert phi_exp_laplace_curve(stable_half, lam, ts, cfg)[1] == alone


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
            phi_eval=lambda lam: 1.0 - math.exp(-lam),
            levy_tail=lambda t: math.exp(-t),
            beta=0.5,
            c_assump=2.0,
            t0=1.0,
        )
        with pytest.raises(AbscissaError):
            abscissa_for_eigen(phi, 2.0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            InversionConfig(order=15)
        with pytest.raises(ValueError):
            InversionConfig(order=22)
        with pytest.raises(ValueError):
            InversionConfig(method="talbot", nodes=8)
        with pytest.raises(ValueError):
            InversionConfig(method="bromwich")

    def test_parse(self):
        cfg = parse_ilt_spec("gs:12")
        assert cfg.method == "gaver-stehfest" and cfg.order == 12
        cfg = parse_ilt_spec("talbot:48")
        assert cfg.method == "talbot" and cfg.nodes == 48
        with pytest.raises(ValueError):
            parse_ilt_spec("fourier:8")

    def test_time_must_be_positive(self):
        with pytest.raises(ValueError):
            invert_grid(lambda z: 1.0 / z, [1.0, 0.0], GS)
