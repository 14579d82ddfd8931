"""One-parameter Mittag-Leffler function and its derivative.

Direct series evaluation, E_a(z) = sum_k z^k / Gamma(a k + 1), with terms
formed in log space and summed exactly (math.fsum).  Double precision
limits the usable argument range twice over: for z > 0 the value itself
overflows once z^(1/a) exceeds ~709, and for z < 0 the alternating sum
cancels down from a peak term of order exp(|z|^(1/a)), wiping out every
digit long before overflow.  Arguments are therefore restricted to
z <= min(30, 709**a) and -z <= min(30, 17**a) (peak term <= ~2e7, keeping
absolute error near 1e-8); outside that the routine refuses rather than
silently losing accuracy.  The derivative E'_beta grows faster than E_beta
and overflows first (E'_1/2 near z = 26.55, inside 709**0.5 = 26.63), so
it also refuses wherever its sum would not be finite.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

__all__ = [
    "mittag_leffler",
    "mittag_leffler_derivative",
    "series_domain_limit",
]

_REL_TOL = 1e-14
#: log of the largest double: the derivative's domain ends where its sum reaches it
_LOG_MAX = math.log(np.finfo(float).max)
_HARD_CAP = 20000
#: term budget of :func:`mittag_leffler_tail` before it reports an infinite tail
_TAIL_CAP = 100000


def series_domain_limit(alpha: float, negative: bool = False) -> float:
    """Largest |z| the double-precision series can honor for this alpha.

    The negative axis is limited by cancellation, not overflow, and is far
    narrower for small alpha.
    """
    if negative:
        return min(30.0, 17.0 ** alpha)
    return min(30.0, 709.0 ** alpha)


def _check_args(alpha: float, z: float, lo_open: bool = False) -> None:
    hi = 1.0 if not lo_open else 1.0 - 1e-15
    if not 0.0 < alpha <= hi:
        raise ValueError(f"index must lie in (0,1{']' if not lo_open else ')'}], got {alpha}")
    zmax = series_domain_limit(alpha, negative=z < 0)
    if not abs(z) <= zmax:
        side = "negative" if z < 0 else "positive"
        raise ValueError(
            f"|z| = {abs(z):g} outside the series-safe {side}-axis domain "
            f"|z| <= {zmax:g} for index {alpha:g}; rescale or shorten the horizon"
        )


def _series(alpha: float, z: float) -> float:
    """sum_{k>=0} z^k / Gamma(a k + 1), summed until a term falls below
    _REL_TOL of the running total while the terms fall."""
    if z == 0.0:
        return 1.0
    log_az = math.log(abs(z))
    sign_z = 1.0 if z > 0 else -1.0
    terms = []
    total = 0.0
    prev_mag = math.inf
    k = 0
    while k < _HARD_CAP:
        mag = math.exp(k * log_az - float(gammaln(alpha * k + 1.0)))
        term = mag * (sign_z ** k)
        terms.append(term)
        total += term
        if mag <= _REL_TOL * max(abs(total), 1e-300) and mag < prev_mag:
            break
        prev_mag = mag
        k += 1
    else:  # pragma: no cover - unreachable inside the checked domain
        raise ArithmeticError("Mittag-Leffler series failed to converge")
    return math.fsum(terms)


def mittag_leffler(alpha: float, z: float) -> float:
    """E_alpha(z) for 0 < alpha <= 1 inside the series-safe domain."""
    _check_args(alpha, z)
    return _series(alpha, float(z))


def derivative_log_terms(beta: float, z: float) -> np.ndarray:
    """log(k z^(k-1) / Gamma(beta k + 1)) for k = 1..K: the terms of E'_beta(z)
    (internal helper).

    K is the first k whose term falls to _REL_TOL of the running sum while
    the terms fall.  The derivative's domain is 0 <= z inside the
    series-safe domain with E'_beta(z) finite in double precision; outside
    it the routine refuses with ``ValueError``.
    """
    if z < 0:
        raise ValueError(f"derivative evaluation needs z >= 0, got {z}")
    _check_args(beta, z, lo_open=True)
    if z == 0.0:
        return np.array([-float(gammaln(beta + 1.0))])
    n = 64
    while True:
        k = np.arange(1.0, n + 1.0)
        log_terms = np.log(k) + (k - 1.0) * math.log(z) - gammaln(beta * k + 1.0)
        log_sum = np.logaddexp.accumulate(log_terms)
        done = (log_terms <= math.log(_REL_TOL) + log_sum) & (np.diff(log_terms, prepend=np.inf) < 0)
        if done.any():
            break
        if n >= _HARD_CAP:  # pragma: no cover - unreachable inside the checked domain
            raise ArithmeticError("Mittag-Leffler derivative series failed to converge")
        n *= 4
    K = int(np.argmax(done)) + 1
    if not log_sum[K - 1] < _LOG_MAX:
        raise ValueError(
            f"E'_{beta:g}({z:g}) = exp({log_sum[K - 1]:.1f}) is not finite in double precision; "
            f"the derivative's domain for index {beta:g} is the z >= 0 with E'(z) < exp({_LOG_MAX:.1f}); "
            "rescale or shorten the horizon"
        )
    return log_terms[:K]


def mittag_leffler_derivative(beta: float, z: float) -> float:
    """E'_beta(z) = sum_{k>=1} k z^(k-1) / Gamma(beta k + 1), z >= 0."""
    return math.fsum(np.exp(derivative_log_terms(beta, float(z))))


def mittag_leffler_tail(beta: float, x: float, k_from: int) -> float:
    """sum_{k >= k_from} x^k / Gamma(beta k + 1) for x >= 0 (internal helper).

    The majorant behind every series-tail certificate.  Terms are formed in
    log space and clamped at e^700; the sum stops once a term falls below
    1e-16 of the running total and is ``inf`` when the term budget runs out
    first, so a tail too large to certify never reads as finite.
    """
    if x == 0.0:
        return 1.0 if k_from == 0 else 0.0
    log_x = math.log(x)
    total = 0.0
    for k in range(k_from, k_from + _TAIL_CAP):
        term = math.exp(min(k * log_x - math.lgamma(beta * k + 1.0), 700.0))
        total += term
        if term <= 1e-16 * max(total, 1e-300):
            return total
    return math.inf
