"""One-parameter Mittag-Leffler function and its derivative.

Direct series evaluation, E_a(z) = sum_k z^k / Gamma(a k + 1), with terms
formed in log space and summed exactly (math.fsum).  Double precision
limits the usable argument range twice over: for z > 0 the value itself
overflows once z^(1/a) exceeds ~709, and for z < 0 the alternating sum
cancels down from a peak term of order exp(|z|^(1/a)), wiping out every
digit long before overflow.  Arguments are therefore restricted to
z <= min(30, 709**a) and -z <= min(30, 17**a) (peak term <= ~2e7, keeping
absolute error near 1e-8); outside that the routine refuses rather than
silently losing accuracy.
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


def _series(alpha: float, z: float, start: int, weight_k: bool) -> float:
    """sum_{k>=start} c_k z^{k-start} with c_k = (k if weight_k else 1)/Gamma(a k+1)."""
    if z == 0.0:
        k = start
        lead = (k if weight_k else 1.0) * math.exp(-float(gammaln(alpha * k + 1.0)))
        return lead
    log_az = math.log(abs(z))
    sign_z = 1.0 if z > 0 else -1.0
    terms = []
    total = 0.0
    prev_mag = math.inf
    k = start
    while k < _HARD_CAP:
        log_mag = (k - start) * log_az - float(gammaln(alpha * k + 1.0))
        if weight_k:
            log_mag += math.log(k)
        mag = math.exp(log_mag)
        term = mag * (sign_z ** (k - start))
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
    return _series(alpha, float(z), start=0, weight_k=False)


def mittag_leffler_derivative(beta: float, z: float) -> float:
    """E'_beta(z) = sum_{k>=1} k z^(k-1) / Gamma(beta k + 1), z >= 0."""
    if z < 0:
        raise ValueError(f"derivative evaluation needs z >= 0, got {z}")
    _check_args(beta, z, lo_open=True)
    return _series(beta, float(z), start=1, weight_k=True)


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


def ml_derivative_array(beta: float, z: np.ndarray) -> np.ndarray:
    """Vectorized E'_beta over a nonnegative array (internal helper)."""
    z = np.asarray(z, dtype=float)
    if z.size == 0:
        return z.copy()
    if float(z.min()) < 0:
        raise ValueError("derivative evaluation needs z >= 0")
    _check_args(beta, float(z.max()), lo_open=True)
    pos = z > 0.0
    logz = np.where(pos, np.log(np.where(pos, z, 1.0)), 0.0)
    out = np.zeros_like(z)
    k = 1
    while k < _HARD_CAP:
        lg = float(gammaln(beta * k + 1.0))
        if k == 1:
            term = np.full_like(z, math.exp(-lg))
        else:
            term = np.zeros_like(z)
            term[pos] = np.exp(math.log(k) + (k - 1) * logz[pos] - lg)
        out += term
        if float(term.max()) <= _REL_TOL * max(float(out.max()), 1e-300):
            break
        k += 1
    else:  # pragma: no cover
        raise ArithmeticError("Mittag-Leffler derivative series failed to converge")
    return out
