"""Each oracle checked against a second route that shares no code with it."""

import math

import numpy as np
import pytest

from bench import oracles


def ml_half_power_series(z: float) -> float:
    """E_{1/2}(z) = sum_k z^k / Gamma(k/2 + 1), summed directly."""
    return math.fsum(z ** k / math.gamma(0.5 * k + 1.0) for k in range(120))


@pytest.mark.parametrize("z", [-2.0, -1.0, -0.3, 0.0, 0.25, 1.0, 2.0])
def test_erfcx_matches_the_power_series(z):
    assert oracles.ml_half(z) == pytest.approx(ml_half_power_series(z), rel=1e-13)


def test_stable_half_eigen_is_ml_half_of_lam_sqrt_t():
    t = np.array([0.0, 0.25, 1.0])
    assert np.allclose(oracles.stable_half_eigen(-1.0, t),
                       [ml_half_power_series(-math.sqrt(s)) for s in t], rtol=1e-13)


def test_stable_second_moment_at_one_half_is_t():
    t = np.linspace(0.0, 2.0, 9)
    assert np.allclose(oracles.stable_moment(0.5, t, 2), t, rtol=1e-14)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("k", [1, 2])
def test_tempered_moments_tend_to_the_stable_ones(alpha, k):
    t = np.array([0.1, 0.5, 1.0])
    stable = oracles.stable_moment(alpha, t, k)
    errors = [np.abs(oracles.tempered_moment(alpha, theta, t, k) / stable - 1.0).max()
              for theta in (1e-2, 1e-5, 1e-8)]
    # the leading correction is of order theta^alpha
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 5.0 * 1e-8 ** alpha


def test_tempered_potential_matches_numerical_inversion():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    alpha, theta = 0.5, 1.0
    for t in (0.5, 1.0, 3.0):
        ref = mpmath.invertlaplace(
            lambda z: 1 / (z * ((z + theta) ** alpha - theta ** alpha)), t, method="talbot")
        assert oracles.tempered_moment(alpha, theta, t)[0] == pytest.approx(float(ref), rel=1e-12)


def test_tempered_eigen_has_the_closed_form_at_minus_theta_alpha():
    # lam = -theta^alpha makes phi(z) - lam = (z + theta)^alpha, so e = 1 - P(alpha, theta t)
    from scipy.special import gammainc

    alpha, theta = 0.5, 2.0
    t = np.linspace(0.0, 1.0, 11)
    got = oracles.tempered_eigen(alpha, theta, -theta ** alpha, t)
    assert np.allclose(got, 1.0 - gammainc(alpha, theta * t), rtol=0, atol=1e-15)


def test_tempered_eigen_is_the_moment_series():
    alpha, theta, lam = 0.5, 1.0, 0.7
    t = np.array([0.2, 1.0])
    series = 1.0 + sum(lam ** k * oracles.tempered_moment(alpha, theta, t, k) for k in range(1, 60))
    assert np.allclose(oracles.tempered_eigen(alpha, theta, lam, t), series, rtol=1e-13)


def test_fft_history_matches_direct_sums():
    rng = np.random.default_rng(5)
    kernel = rng.random(37)
    values = rng.random((37, 2))
    direct = np.array([[sum(kernel[i - j] * values[j, c] for j in range(i + 1))
                        for c in range(2)] for i in range(37)])
    assert np.allclose(oracles.fft_history(kernel, values), direct, rtol=1e-13, atol=1e-14)
    assert np.allclose(oracles.fft_history(kernel, values[:, 0]), direct[:, 0],
                       rtol=1e-13, atol=1e-14)


def test_fixed_point_residual_vanishes_on_an_exact_solution():
    # D f = c, f(0) = f0 has f = f0 + c U(t), and the cell masses integrate
    # a constant exactly, so the discrete map fixes f
    alpha, c, f0, n = 0.5, 0.7, [0.3], 512
    t = np.linspace(0.0, 1.0, n + 1)
    f = (f0[0] + c * oracles.stable_moment(alpha, t))[:, None]
    masses = oracles.stable_cell_masses(alpha, 1.0, n)
    const = lambda ts, ys: np.full_like(ys, c)  # noqa: E731
    assert oracles.fixed_point_residual(masses, const, f0, f, 1.0) < 1e-14
    assert oracles.fixed_point_residual(masses, const, f0, f + 1e-6, 1.0) > 9e-7
