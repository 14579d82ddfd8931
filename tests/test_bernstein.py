import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfrac import (
    BernsteinFunction,
    invert_grid,
    load_phi_config,
    parse_phi_spec,
    validate_bernstein,
)

from conftest import INV_GAMMA_0_5


class TestEvalPhi:
    def test_stable_value(self):
        assert BernsteinFunction.stable(0.5).phi(4.0) == pytest.approx(2.0)

    def test_tempered_value(self):
        phi = BernsteinFunction.tempered(0.5, 1.0)
        assert phi.phi(3.0) == pytest.approx(1.0)

    def test_small_argument(self):
        assert BernsteinFunction.stable(0.5).phi(1e-12) == pytest.approx(1e-6)

    def test_mixture_value(self):
        phi = BernsteinFunction.mixture([0.3, 0.7], [0.4, 0.8])
        expected = 0.3 * 2.0 ** 0.4 + 0.7 * 2.0 ** 0.8
        assert phi.phi(2.0) == pytest.approx(expected, rel=1e-14)

    def test_custom_delegates(self):
        phi = BernsteinFunction.custom(
            phi_eval=lambda lam: 1.0 - np.exp(-lam),
            levy_tail=lambda t: math.exp(-t),
            beta=0.5,
            c_assump=2.0,
            t0=1.0,
        )
        assert phi.phi(2.0) == pytest.approx(1.0 - math.exp(-2.0))


class TestLevyTail:
    def test_stable_closed_form(self):
        phi = BernsteinFunction.stable(0.5)
        assert phi.levy_tail(1.0) == pytest.approx(INV_GAMMA_0_5, rel=1e-12)
        assert phi.levy_tail(4.0) == pytest.approx(INV_GAMMA_0_5 / 2.0, rel=1e-12)

    def test_stable_vs_inversion(self):
        # independent route: invert phi(z)/z numerically
        phi = BernsteinFunction.stable(0.5)
        ts = [0.25, 1.0, 3.0]
        numeric = invert_grid(lambda z: phi.phi(z) / z, ts)
        for t, val in zip(ts, numeric):
            assert val == pytest.approx(phi.levy_tail(t), rel=1e-5)

    def test_tempered_vs_inversion(self):
        phi = BernsteinFunction.tempered(0.5, 1.0)
        ts = [0.1, 0.5, 2.0]
        numeric = invert_grid(lambda z: phi.phi(z) / z, ts)
        for t, val in zip(ts, numeric):
            assert val == pytest.approx(phi.levy_tail(t), rel=2e-5)

    def test_mixture_vs_inversion(self):
        phi = BernsteinFunction.mixture([0.3, 0.7], [0.4, 0.8])
        ts = [0.1, 1.0]
        numeric = invert_grid(lambda z: phi.phi(z) / z, ts)
        for t, val in zip(ts, numeric):
            assert val == pytest.approx(phi.levy_tail(t), rel=2e-5)

    def test_tail_decreases_to_zero(self, catalog_phis):
        grid = np.logspace(-2, 4, 60)
        for phi in catalog_phis:
            vals = phi.levy_tail(grid)
            assert np.all((np.diff(vals) < 0) | (vals[1:] == 0.0))
            assert vals[-1] < 1e-2 * vals[0]


class TestValidate:
    def test_stable_clean(self):
        report = validate_bernstein(
            BernsteinFunction.stable(0.5), [0.5, 1.0, 2.0, 4.0], order=3
        )
        assert report.ok

    def test_square_flagged_at_order_two(self):
        phi = BernsteinFunction.custom(
            phi_eval=lambda lam: lam ** 2,
            levy_tail=lambda t: 0.0,
            beta=0.5,
            c_assump=1.0,
            t0=1.0,
            check=False,
        )
        report = validate_bernstein(phi, [1.0, 2.0], order=2)
        assert not report.ok
        assert any(order == 2 for (_, order, _, _) in report.violations)

    def test_tempered_order_four(self):
        report = validate_bernstein(
            BernsteinFunction.tempered(0.9, 2.0), [1.0, 10.0], order=4
        )
        assert report.ok

    def test_grid_validation(self):
        phi = BernsteinFunction.stable(0.5)
        with pytest.raises(ValueError):
            validate_bernstein(phi, [2.0, 1.0], order=2)
        with pytest.raises(ValueError):
            validate_bernstein(phi, [1.0], order=9)


class TestStructure:
    @given(st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_monotone_and_concave(self, alpha):
        phi = BernsteinFunction.stable(alpha)
        grid = np.logspace(-2, 2, 30)
        vals = phi.phi(grid)
        assert np.all(np.diff(vals) >= 0)
        # concavity on a uniform grid
        lin = np.linspace(0.1, 10.0, 50)
        v = phi.phi(lin)
        assert np.all(v[2:] - 2 * v[1:-1] + v[:-2] <= 1e-10)

    def test_tempered_to_stable_limit(self):
        alpha = 0.5
        grid = np.array([0.5, 1.0, 2.0, 5.0])
        stable = BernsteinFunction.stable(alpha)
        for theta in (1e-4, 1e-6, 1e-8):
            tempered = BernsteinFunction.tempered(alpha, theta)
            gap = np.abs(tempered.phi(grid) - stable.phi(grid))
            # discrepancy is dominated by theta^alpha and vanishes with it
            assert np.all(gap <= 2.0 * (theta ** alpha + alpha * theta * grid ** (alpha - 1)))

    def test_catalog_flags(self, catalog_phis):
        for phi in catalog_phis:
            assert 0 < phi.beta < 1

    def test_stable_beta_is_alpha(self):
        assert BernsteinFunction.stable(0.3).beta == 0.3
        assert BernsteinFunction.tempered(0.7, 2.0).beta == 0.7

    @pytest.mark.parametrize(
        "beta, c_assump, t0",
        [(1.0, 1.0, 1.0), (math.nan, 1.0, 1.0), (0.5, 0.0, 1.0), (0.5, math.inf, 1.0),
         (0.5, 1.0, 0.0)],
    )
    def test_custom_envelope_checked(self, beta, c_assump, t0):
        with pytest.raises(ValueError):
            BernsteinFunction.custom(
                phi_eval=lambda lam: lam ** 0.5,
                levy_tail=lambda t: 0.0,
                beta=beta,
                c_assump=c_assump,
                t0=t0,
            )

    def test_custom_requires_monotone(self):
        with pytest.raises(ValueError):
            BernsteinFunction.custom(
                phi_eval=lambda lam: math.sin(lam) + 2.0,
                levy_tail=lambda t: 0.0,
                beta=0.5,
                c_assump=1.0,
                t0=1.0,
            )


    @pytest.mark.parametrize(
        "phi_eval",
        [lambda lam: 1.0 - math.exp(-lam),
         lambda lam: np.sqrt(lam) if np.isrealobj(lam) else complex(math.nan, 0.0)],
        ids=["raises", "non-finite"],
    )
    def test_custom_must_take_a_complex_argument(self, phi_eval):
        # the inversion that builds a custom kind's kernels evaluates phi
        # off the real axis
        with pytest.raises(ValueError, match="complex"):
            BernsteinFunction.custom(
                phi_eval=phi_eval,
                levy_tail=lambda t: math.exp(-t),
                beta=0.5,
                c_assump=2.0,
                t0=1.0,
            )


class TestTextInterfaces:
    def test_parse_stable(self):
        assert parse_phi_spec("stable:0.5").alpha == 0.5

    def test_parse_tempered(self):
        phi = parse_phi_spec("tempered:0.5,1.0")
        assert (phi.alpha, phi.theta) == (0.5, 1.0)

    def test_parse_mixture(self):
        phi = parse_phi_spec("mixture:0.3@0.4+0.7@0.8")
        assert phi.weights == (0.3, 0.7)
        assert phi.alphas == (0.4, 0.8)

    def test_parse_errors(self):
        for bad in ("gaussian:1", "stable", "mixture:0.3"):
            with pytest.raises(ValueError):
                parse_phi_spec(bad)

    def test_config_file(self, tmp_path):
        path = tmp_path / "phi.cfg"
        path.write_text("# catalog entry\nkind = tempered\nalpha = 0.5\ntheta = 1.0\nt0 = 0.5\n")
        phi = load_phi_config(path)
        assert phi.kind == "tempered" and phi.t0 == 0.5

    @pytest.mark.parametrize(
        "spec", ["mixture:inf@0.5", "mixture:nan@0.5", "mixture:1@0.5+nan@0.3", "tempered:0.5,inf"]
    )
    def test_parse_refuses_non_finite_parameters(self, spec):
        with pytest.raises(ValueError, match="positive and finite"):
            parse_phi_spec(spec)

    @pytest.mark.parametrize("override", ["beta = nan", "beta = 1.5", "c_assump = -1"])
    def test_config_overrides_are_checked(self, tmp_path, override):
        path = tmp_path / "phi.cfg"
        path.write_text(f"kind = stable\nalpha = 0.5\n{override}\n")
        with pytest.raises(ValueError, match=override.partition(" ")[0]):
            load_phi_config(path)

    def test_config_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "phi.cfg"
        path.write_text("kind = stable\nalpha = 0.5\nbogus = 1\n")
        with pytest.raises(ValueError):
            load_phi_config(path)
