"""One-parameter Mittag-Leffler function and its derivative.

Direct series evaluation, E_a(z) = sum_k z^k / Gamma(a k + 1), with terms
formed in log space and summed exactly (math.fsum).  Double precision
limits the usable argument range twice over: for z > 0 the value itself
overflows once z^(1/a) exceeds ~709, and for z < 0 the alternating sum
cancels down from a peak term of order exp(|z|^(1/a)), wiping out every
digit long before overflow.  Arguments are therefore restricted to
z <= min(30, 709**a) and -z <= min(30, 17**a) (peak term <= ~2e7, keeping
absolute error near 1e-8); outside that the routine refuses rather than
silently losing accuracy.  The 1/a of E_a ~ exp(z^(1/a)) / a and the faster
growth of E'_beta (E'_1/2 overflows near z = 26.55, inside 709**0.5 = 26.63)
still overflow there, so every sum also refuses where it would not be finite.
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
#: log of the largest double: a sum ends its domain where it reaches it
_LOG_MAX = math.log(np.finfo(float).max)
#: log of the smallest positive double: a term below it adds nothing
_LOG_MIN = math.log(np.finfo(float).smallest_subnormal)
#: term budget of every series (64 * 4**5, the last size the array grows to)
_CAP = 65536


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


def _log_terms(beta: float, x: float, done, order: int = 0) -> np.ndarray:
    """log(k!/(k-order)! x^(k-order) / Gamma(beta k + 1)) for k = order..K:
    the terms of the order-th derivative of E_beta at x > 0 (internal helper).

    The array grows fourfold from 64 terms up to _CAP.  K is the first k at
    which the caller's mask ``done(log_terms)`` holds while the terms fall.
    Refuses with ``ValueError`` where the sum of the terms is not finite in
    double precision, or does not reach its stopping point within _CAP terms.
    """
    log_x = math.log(x)
    n = 64
    while True:
        k = np.arange(order, order + n, dtype=float)
        log_terms = (k - order) * log_x
        if order:
            log_terms = np.log(k) + log_terms
        log_terms = log_terms - gammaln(beta * k + 1.0)
        with np.errstate(over="ignore"):
            stop = done(log_terms) & (np.diff(log_terms, prepend=np.inf) < 0)
        if stop.any() or n >= _CAP:
            break
        n *= 4
    name = ("E'" if order else "E") + f"_{beta:g}({x:g})"
    if not stop.any():
        raise ValueError(f"the series of {name} did not settle within {_CAP} terms")
    log_terms = log_terms[: int(np.argmax(stop)) + 1]
    log_sum = float(np.logaddexp.reduce(log_terms))
    if not log_sum < _LOG_MAX:
        raise ValueError(
            f"{name} = exp({log_sum:.1f}) is not finite in double precision; the domain "
            f"ends where the sum reaches exp({_LOG_MAX:.1f}); rescale or shorten the horizon"
        )
    return log_terms


def mittag_leffler(alpha: float, z: float) -> float:
    """E_alpha(z) for 0 < alpha <= 1 inside the series-safe domain.

    Summed until a term falls below _REL_TOL of the signed running sum while
    the terms fall; refuses with ``ValueError`` where the sum is not finite.
    """
    _check_args(alpha, z)
    if z == 0.0:
        return 1.0

    def terms(log_terms):
        return math.copysign(1.0, z) ** np.arange(len(log_terms)) * np.exp(log_terms)

    def done(log_terms):
        t = terms(log_terms)
        return np.abs(t) <= _REL_TOL * np.maximum(np.abs(np.cumsum(t)), 1e-300)

    return math.fsum(terms(_log_terms(alpha, abs(float(z)), done)))


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
    return _log_terms(
        beta, z, lambda lt: lt <= math.log(_REL_TOL) + np.logaddexp.accumulate(lt), order=1
    )


def mittag_leffler_derivative(beta: float, z: float) -> float:
    """E'_beta(z) = sum_{k>=1} k z^(k-1) / Gamma(beta k + 1), z >= 0."""
    return math.fsum(np.exp(derivative_log_terms(beta, float(z))))


def mittag_leffler_tails(beta: float, x: float, k_max: int) -> np.ndarray:
    """sum_{j >= k} x^j / Gamma(beta j + 1) for k = 0..k_max, x >= 0
    (internal helper).

    The majorant behind every series-tail certificate.  The terms run until
    they fall below the smallest double and are summed from the small end,
    so each tail is accurate relative to itself.  Every tail is ``inf``
    where the full sum refuses (not finite, or past the term budget), so a
    tail too large to certify never reads as finite.
    """
    tails = np.zeros(k_max + 1)
    if x == 0.0:
        tails[0] = 1.0
        return tails
    try:
        log_terms = _log_terms(beta, x, lambda lt: lt < _LOG_MIN)
    except ValueError:
        tails[:] = math.inf
        return tails
    tails[: len(log_terms)] = np.cumsum(np.exp(log_terms[::-1]))[::-1][: k_max + 1]
    return tails
