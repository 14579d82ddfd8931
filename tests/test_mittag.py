import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, erfcx, gammainc

from genfrac import mittag_leffler, mittag_leffler_derivative, series_domain_limit
from genfrac.mittag import mittag_leffler_tails

from conftest import ML_ORACLE, ML_PRIME_HALF_AT_2


def test_exponential_case():
    assert mittag_leffler(1.0, 1.0) == pytest.approx(math.e, rel=1e-13)
    assert mittag_leffler(1.0, -2.5) == pytest.approx(math.exp(-2.5), rel=1e-12)


def test_zero_argument_exact():
    for alpha in (0.1, 0.5, 0.9, 1.0):
        assert mittag_leffler(alpha, 0.0) == 1.0


@pytest.mark.parametrize("key", sorted(ML_ORACLE))
def test_frozen_oracle_values(key):
    alpha, z = key
    # backward-stable accuracy: for alternating arguments the achievable
    # absolute error scales with the gross series magnitude E(|z|)
    tol = 1e-13 * mittag_leffler(alpha, abs(z)) + 1e-15
    assert abs(mittag_leffler(alpha, z) - ML_ORACLE[key]) <= tol


def test_derivative_at_zero():
    for beta in (0.3, 0.5, 0.7):
        assert mittag_leffler_derivative(beta, 0.0) == pytest.approx(
            1.0 / math.gamma(beta + 1.0), rel=1e-14
        )


def test_derivative_exponential_case():
    # index 1 is excluded from the derivative domain; check the limit from
    # the series instead via the finite difference of the value route
    h = 1e-6
    fd = (mittag_leffler(0.9999999, 1.0 + h) - mittag_leffler(0.9999999, 1.0 - h)) / (2 * h)
    assert fd == pytest.approx(math.e, rel=1e-5)


def test_derivative_frozen_value():
    assert mittag_leffler_derivative(0.5, 2.0) == pytest.approx(
        ML_PRIME_HALF_AT_2, rel=1e-13
    )


def test_domain_limits():
    assert series_domain_limit(1.0) == 30.0
    assert series_domain_limit(0.5) == pytest.approx(709.0 ** 0.5)
    assert series_domain_limit(0.5, negative=True) == pytest.approx(17.0 ** 0.5)
    with pytest.raises(ValueError):
        mittag_leffler(0.3, 25.0)  # beyond 709**0.3 ~ 7.2
    with pytest.raises(ValueError):
        mittag_leffler(0.5, -28.0)
    with pytest.raises(ValueError):
        mittag_leffler(0.25, -3.0)  # negative axis narrows for small alpha
    with pytest.raises(ValueError):
        mittag_leffler(1.5, 1.0)
    with pytest.raises(ValueError):
        mittag_leffler_derivative(0.5, -1.0)


@given(
    alpha=st.floats(0.2, 1.0),
    z=st.floats(0.0, 3.0),
    dz=st.floats(0.01, 0.5),
)
@settings(max_examples=60, deadline=None)
def test_monotone_on_positive_axis(alpha, z, dz):
    # 709**0.2 ~ 3.72, so z + dz stays inside every sampled domain
    assert mittag_leffler(alpha, z + dz) > mittag_leffler(alpha, z)


@given(alpha=st.floats(0.2, 1.0), frac=st.floats(0.0, 0.99))
@settings(max_examples=60, deadline=None)
def test_negative_axis_in_unit_interval(alpha, frac):
    z = -frac * series_domain_limit(alpha, negative=True)
    val = mittag_leffler(alpha, z)
    assert 0.0 < val <= 1.0


def test_derivative_matches_closed_form():
    # E_1/2(z) = erfcx(-z), so E'_1/2(z) = 2/sqrt(pi) + 2 z erfcx(-z)
    for z in (0.0, 0.2, 1.0, 2.5, 10.0, 26.5):
        exact = 2.0 / math.sqrt(math.pi) + 2.0 * z * float(erfcx(-z))
        assert mittag_leffler_derivative(0.5, z) == pytest.approx(exact, rel=1e-12)


def test_index_range_messages():
    # the value allows index 1, the derivative's series does not
    with pytest.raises(ValueError) as value_info:
        mittag_leffler(1.5, 0.1)
    assert str(value_info.value) == "index must lie in (0,1], got 1.5"
    with pytest.raises(ValueError) as derivative_info:
        mittag_leffler_derivative(1.0, 0.5)
    assert str(derivative_info.value) == "index must lie in (0,1), got 1.0"


def test_derivative_refuses_where_not_finite():
    # 26.6 lies inside series_domain_limit(0.5) = 26.63, but E'_1/2(26.6) ~ exp(712)
    assert math.isfinite(mittag_leffler_derivative(0.5, 26.5))
    with pytest.raises(ValueError, match="not finite"):
        mittag_leffler_derivative(0.5, 26.6)
    with pytest.raises(ValueError, match="not finite"):
        mittag_leffler_derivative(0.2, 0.999 * series_domain_limit(0.2))


@pytest.mark.parametrize("alpha", [0.2, 0.3])
def test_value_refuses_where_not_finite(alpha):
    # z^(1/alpha) = 709 at the limit, and the 1/alpha prefactor of
    # E_alpha ~ exp(z^(1/alpha)) / alpha carries the sum past the largest double
    with pytest.raises(ValueError, match="not finite"):
        mittag_leffler(alpha, series_domain_limit(alpha))


def test_value_finite_at_half_limit():
    # terms near exp(709) are formed from log values near 4600, whose last
    # bits put relative errors of order 1e-12 on each term
    z = series_domain_limit(0.5)
    assert mittag_leffler(0.5, z) == pytest.approx(float(erfcx(-z)), rel=1e-11)


class TestTail:
    """mittag_leffler_tails against closed forms that share none of its code."""

    CLOSED = {
        1.0: lambda x: math.exp(x),
        0.5: lambda x: math.exp(x * x) * float(erfc(-x)),
    }

    @pytest.mark.parametrize("beta", sorted(CLOSED))
    @pytest.mark.parametrize("x", [0.3, 1.0, 2.5, 6.0])
    def test_full_sum_is_closed_form(self, beta, x):
        assert mittag_leffler_tails(beta, x, 0)[0] == pytest.approx(self.CLOSED[beta](x), rel=1e-13)

    @pytest.mark.parametrize("beta", sorted(CLOSED))
    @pytest.mark.parametrize("x", [0.3, 1.0, 2.5, 6.0])
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_tail_drops_leading_terms(self, beta, x, k):
        full = self.CLOSED[beta](x)
        head = math.fsum(x ** j / math.gamma(beta * j + 1.0) for j in range(k))
        assert mittag_leffler_tails(beta, x, k)[k] == pytest.approx(full - head, abs=1e-13 * full)

    def test_zero_argument(self):
        assert mittag_leffler_tails(0.5, 0.0, 0)[0] == 1.0
        assert mittag_leffler_tails(0.5, 0.0, 3)[3] == 0.0

    def test_infinite_at_term_cap(self):
        # the terms of x = 400, beta = 1/2 peak near k = 2 x^2, past the term
        # budget, so no finite partial sum may stand in for the tail
        assert mittag_leffler_tails(0.5, 400.0, 1)[1] == math.inf

    # sum_{j >= k} x^j / Gamma(beta j + 1) through the regularized lower gamma
    # function P: e^x P(k, x) for beta = 1; with y = x^2, e^y [P(ceil(k/2), y)
    # + P(floor(k/2) + 1/2, y)] for beta = 1/2
    TAILS = {
        1.0: lambda x, k: math.exp(x) * gammainc(k, x),
        0.5: lambda x, k: math.exp(x * x) * (gammainc(-(-k // 2), x * x) + gammainc(k // 2 + 0.5, x * x)),
    }

    @pytest.mark.parametrize("beta", sorted(TAILS))
    @pytest.mark.parametrize("x", [0.3, 1.0, 2.5, 6.0])
    def test_every_tail_is_accurate_relative_to_itself(self, beta, x):
        tails = mittag_leffler_tails(beta, x, 2000)
        k = 0
        while tails[k] >= 1e-250:
            assert tails[k] == pytest.approx(self.TAILS[beta](x, k), rel=1e-12), k
            k += 1
        assert k > 10
