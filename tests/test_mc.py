import math

import numpy as np
import pytest

from genfrac import (
    ConditioningWarning,
    McConfig,
    NumericalError,
    PathExhaustedError,
    estimate_moments,
    estimate_phi_exp_mc,
    estimate_potential_mc,
    inverse_passage,
    laplace_exponent_check,
    sample_inverse_values,
    sample_stable_increment,
    sample_tempered_increment,
    tail_bound_check,
)
from genfrac.mc import _path_rng

from conftest import INV_GAMMA_1_5, ML_ORACLE


@pytest.fixture(scope="module")
def stable_cfg(stable_half):
    return McConfig(phi=stable_half, n_paths=8000, dt=1e-3, t_max=1.0, seed=42)


@pytest.fixture(scope="module")
def inverse_samples(stable_cfg):
    return sample_inverse_values(stable_cfg, [0.25, 0.5, 1.0])


class TestStableSampler:
    def test_laplace_transform_match(self):
        rng = np.random.default_rng(1)
        x = sample_stable_increment(0.5, 1.0, rng, size=100000)
        assert np.all(x > 0)
        for lam in (0.5, 1.0, 2.0, 5.0):
            vals = np.exp(-lam * x)
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(vals.mean() - math.exp(-(lam ** 0.5))) <= 4 * se

    def test_small_dt_scaling(self):
        rng = np.random.default_rng(2)
        x = sample_stable_increment(0.5, 0.01, rng, size=100000)
        vals = np.exp(-x)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        # E[exp(-sigma(dt))] = exp(-dt * 1^alpha)
        assert abs(vals.mean() - math.exp(-0.01)) <= 4 * se

    def test_scalar_draw(self):
        rng = np.random.default_rng(3)
        assert sample_stable_increment(0.5, 1.0, rng) > 0


class TestTemperedSampler:
    def test_laplace_transform_match(self):
        rng = np.random.default_rng(4)
        alpha, theta, dt = 0.5, 1.0, 0.01
        x = sample_tempered_increment(alpha, theta, dt, rng, size=100000)
        assert np.all(x > 0)
        for lam in (0.5, 1.0, 2.0):
            target = math.exp(-dt * ((lam + theta) ** alpha - theta ** alpha))
            vals = np.exp(-lam * x)
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(vals.mean() - target) <= 4 * se

    def test_target_value_at_unit_rate(self):
        # dt=0.01, theta=1, lam=1: exp(-0.01 (sqrt(2) - 1))
        target = math.exp(-0.01 * (math.sqrt(2.0) - 1.0))
        rng = np.random.default_rng(5)
        x = sample_tempered_increment(0.5, 1.0, 0.01, rng, size=200000)
        vals = np.exp(-x)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - target) <= 4 * se

    def test_vanishing_tilt_recovers_stable_law(self):
        # theta -> 0 removes the tilt; the accepted draws follow the stable
        # law (stream positions differ, so compare distributions, not draws)
        rng = np.random.default_rng(6)
        x = sample_tempered_increment(0.5, 1e-9, 1.0, rng, size=100000)
        vals = np.exp(-x)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - math.exp(-1.0)) <= 4 * se

    def test_dt_too_large_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match="acceptance rate"):
            sample_tempered_increment(0.5, 1.0, 60.0, rng, size=10)


class TestInversePassage:
    def test_zero_level_first_step(self):
        inc = np.array([0.3, 0.5, 0.9])
        assert inverse_passage(inc, 0.0, dt=0.1) == pytest.approx(0.1)

    def test_passage_index(self):
        inc = np.array([0.3, 0.5, 0.9])  # cum: 0.3, 0.8, 1.7
        assert inverse_passage(inc, 0.7, dt=0.1) == pytest.approx(0.2)
        assert inverse_passage(inc, 1.0, dt=0.1) == pytest.approx(0.3)

    def test_exhausted_path(self):
        with pytest.raises(PathExhaustedError):
            inverse_passage(np.array([0.1, 0.1]), 5.0, dt=0.1)

    def test_array_of_levels_in_any_order(self):
        inc = np.array([0.3, 0.5, 0.9])  # cum: 0.3, 0.8, 1.7
        got = inverse_passage(inc, [1.0, 0.0, 0.7], dt=0.1)
        assert got == pytest.approx([0.3, 0.1, 0.2])
        with pytest.raises(PathExhaustedError, match="t=5"):
            inverse_passage(inc, [0.0, 5.0], dt=0.1)

    def test_monotone_along_shared_paths(self, inverse_samples):
        assert np.all(np.diff(inverse_samples, axis=1) >= 0)

    def test_shuffled_targets_permute_the_columns(self, stable_half):
        cfg = McConfig(phi=stable_half, n_paths=200, dt=1e-3, t_max=1.0, seed=3)
        targets = [0.25, 0.5, 1.0, 0.0]
        base = sample_inverse_values(cfg, targets)
        perm = [2, 0, 3, 1]
        shuffled = sample_inverse_values(cfg, [targets[k] for k in perm])
        assert np.array_equal(shuffled, base[:, perm])


class TestEstimates:
    def test_potential_estimate(self, stable_cfg, inverse_samples):
        L = inverse_samples[:, 2]
        se = L.std(ddof=1) / math.sqrt(len(L))
        assert abs(L.mean() - INV_GAMMA_1_5) <= 3 * se + stable_cfg.dt

    def test_potential_via_api(self, stable_cfg):
        est = estimate_potential_mc(stable_cfg, 1.0)
        assert abs(est.value - INV_GAMMA_1_5) <= 3 * est.std_error + stable_cfg.dt
        assert est.n_effective == stable_cfg.n_paths

    def test_phi_exp_zero_eigenvalue(self, stable_cfg):
        est = estimate_phi_exp_mc(stable_cfg, 0.0, 1.0)
        assert est.value == 1.0
        assert est.std_error == 0.0

    @pytest.mark.parametrize("lam", [-1.0, 1.0])
    def test_phi_exp_against_oracle(self, stable_cfg, lam):
        est = estimate_phi_exp_mc(stable_cfg, lam, 1.0)
        bias = abs(lam) * stable_cfg.dt * ML_ORACLE[(0.5, lam)] * 3.0
        assert abs(est.value - ML_ORACLE[(0.5, lam)]) <= 3 * est.std_error + bias

    def test_moments_match_power_law(self, stable_cfg):
        ests = estimate_moments(stable_cfg, 1.0, 2)
        assert ests[0].value == 1.0 and ests[0].std_error == 0.0
        # E[L^k]/k! = t^(k alpha) / Gamma(k alpha + 1)
        assert abs(ests[1].value - INV_GAMMA_1_5) <= 3 * ests[1].std_error + 2e-3
        assert abs(ests[2].value - 1.0) <= 3 * ests[2].std_error + 4e-3

    def test_moment_order_validation(self, stable_cfg):
        with pytest.raises(ValueError):
            estimate_moments(stable_cfg, 1.0, 7)

    def test_heavy_tail_warning(self, stable_half):
        cfg = McConfig(phi=stable_half, n_paths=400, dt=5e-3, t_max=1.0, seed=11)
        with pytest.warns(ConditioningWarning):
            estimate_phi_exp_mc(cfg, 5.0, 1.0)

    def test_phi_exp_overflow_is_numerical_error(self, stable_half):
        cfg = McConfig(phi=stable_half, n_paths=200, dt=1e-3, t_max=1.0, seed=42)
        with pytest.raises(NumericalError, match="overflowed"):
            estimate_phi_exp_mc(cfg, 2000.0, 1.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_phi_exp_non_finite_lambda_rejected(self, stable_cfg, lam):
        with pytest.raises(ValueError, match="finite"):
            estimate_phi_exp_mc(stable_cfg, lam, 1.0)

    def test_determinism(self, stable_half):
        cfg = McConfig(phi=stable_half, n_paths=500, dt=2e-3, t_max=0.5, seed=99)
        a = estimate_phi_exp_mc(cfg, -1.0, 0.5)
        b = estimate_phi_exp_mc(cfg, -1.0, 0.5)
        assert a.value == b.value and a.std_error == b.std_error

    def test_cross_route_against_series(self, stable_cfg, cp_stable_512):
        ests = estimate_moments(stable_cfg, 1.0, 3)
        for k in (1, 2, 3):
            ref = cp_stable_512.u_star[k, -1]
            bias = 2.0 * k * stable_cfg.dt
            assert abs(ests[k].value - ref) <= 3 * ests[k].std_error + bias


class TestChecks:
    def test_laplace_exponent_rows(self, stable_half):
        cfg = McConfig(phi=stable_half, n_paths=30000, dt=1e-3, t_max=1.0, seed=5)
        for row in laplace_exponent_check(cfg, [0.5, 1.0, 2.0, 5.0]):
            assert abs(row["empirical"] - row["target"]) <= 4 * row["std_error"]

    def test_laplace_exponent_std_error_bounds_the_spread(self, stable_half):
        # a few rare large increments carry the whole deviation from 1, so
        # the sample standard error of exp(-lam sigma(dt)) understates it
        cfg = McConfig(phi=stable_half, n_paths=5000, dt=1e-3, t_max=1.0, seed=3285388380)
        rows = laplace_exponent_check(cfg, [0.5])
        m = rows[0]["empirical"]
        assert rows[0]["std_error"] == math.sqrt(m * (1.0 - m) / cfg.n_paths)
        assert abs(m - rows[0]["target"]) <= 4 * rows[0]["std_error"]

    @pytest.mark.parametrize("spec", ["stable_half", "tempered_half"])
    def test_laplace_exponent_rejects_negative_lambda(self, spec, request):
        # exp(-lam sigma) leaves [0, 1] for lam < 0, and stable phi(lam) is complex
        cfg = McConfig(phi=request.getfixturevalue(spec), n_paths=100, dt=1e-3, t_max=1.0, seed=0)
        with pytest.raises(ValueError):
            laplace_exponent_check(cfg, [0.5, -1.0])

    def test_tail_bound_never_violated(self, stable_cfg, inverse_samples):
        rows = tail_bound_check(stable_cfg, 1.0, [1.0, 2.0, 3.0], x=4.0)
        for row in rows:
            assert row["empirical"] <= row["bound"] + 1e-12

    def test_tail_bound_needs_positive_x(self, stable_cfg):
        with pytest.raises(ValueError):
            tail_bound_check(stable_cfg, 1.0, [1.0], x=0.0)


class TestConfig:
    def test_validation(self, stable_half, mixture_phi):
        with pytest.raises(ValueError):
            McConfig(phi=stable_half, n_paths=10, dt=1e-3, t_max=1.0, seed=0)
        with pytest.raises(ValueError):
            McConfig(phi=stable_half, n_paths=1000, dt=0.5, t_max=1.0, seed=0)
        with pytest.raises(ValueError):
            McConfig(phi=mixture_phi, n_paths=1000, dt=1e-3, t_max=1.0, seed=0)

    def test_targets_validated(self, stable_cfg):
        with pytest.raises(ValueError):
            sample_inverse_values(stable_cfg, [2.0])  # beyond t_max
        with pytest.raises(ValueError):
            sample_inverse_values(stable_cfg, [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_target_outside_the_range_is_named(self, stable_cfg, bad):
        with pytest.raises(ValueError, match=f"target {bad}"):
            sample_inverse_values(stable_cfg, [0.5, bad])

    def test_path_streams_are_keyed(self):
        a = _path_rng(7, 0).random(4)
        b = _path_rng(7, 1).random(4)
        c = _path_rng(7, 0).random(4)
        assert not np.allclose(a, b)
        assert np.all(a == c)
