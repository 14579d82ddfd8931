"""Reference values computed without genfrac.

Every function here uses numpy and scipy only, so a check built on it
compares the program against an independent computation:

* stable alpha = 1/2 eigenfunction: E_{1/2}(z) = erfcx(-z), hence
  e(t; lam) = erfcx(-lam sqrt(t));
* stable potential and moments: E[L(t)^k] / k! = t^(alpha k) / Gamma(1 + alpha k);
* tempered stable phi(z) = (z + theta)^alpha - theta^alpha: expanding
  1 / phi(z)^k in powers of theta^alpha (z + theta)^(-alpha) and inverting
  term by term gives
  E[L(t)^k] / k! = theta^(-alpha k) sum_j C(k+j-1, j) P(alpha (k+j), theta t),
  with P the regularized lower incomplete gamma function; k = 1 is U(t);
* tempered eigenfunction: summing lam^k times the moments above over k
  gives e(t; lam) = 1 + sum_n P(alpha n, theta t) x (1 + x)^(n-1), with
  x = lam theta^(-alpha);
* the fixed-point residual of a Picard solution, with exact stable cell
  masses and an FFT convolution of the benchmark's own.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfcx, gamma, gammainc, gammaln

#: relative size below which a series term no longer changes a double
_TERM_EPS = 1e-17
#: nodes per block of series evaluation
_CHUNK = 1024


def ml_half(z):
    """E_{1/2}(z), the Mittag-Leffler function of index 1/2."""
    return erfcx(-np.asarray(z, dtype=float))


def stable_half_eigen(lam: float, t):
    """e(t; lam) for phi(z) = z^(1/2)."""
    return ml_half(lam * np.sqrt(np.asarray(t, dtype=float)))


def stable_moment(alpha: float, t, k: int = 1):
    """E[L(t)^k] / k! for phi(z) = z^alpha; k = 1 gives U(t)."""
    t = np.asarray(t, dtype=float)
    return t ** (alpha * k) / gamma(1.0 + alpha * k)


def _series_length(alpha: float, x_max: float) -> int:
    """Terms n until P(alpha n, x) has fallen below every relevant level.

    P(a, x) <= x^a / Gamma(a + 1), which for a far beyond x decays faster
    than any geometric sequence; the margin covers the bulk of a Poisson
    spread around x.
    """
    return int(math.ceil((x_max + 12.0 * math.sqrt(x_max + 1.0) + 60.0) / alpha)) + 1


def tempered_moment(alpha: float, theta: float, t, k: int = 1):
    """E[L(t)^k] / k! for phi(z) = (z + theta)^alpha - theta^alpha."""
    if k < 1:
        raise ValueError("k must be >= 1")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    n_terms = _series_length(alpha, float(theta * t.max(initial=0.0)))
    j = np.arange(n_terms)
    weights = np.exp(gammaln(k + j) - gammaln(j + 1.0) - gammaln(float(k)))
    return theta ** (-alpha * k) * _gamma_series(alpha * (k + j), weights, theta * t)


def tempered_eigen(alpha: float, theta: float, lam: float, t):
    """e(t; lam) for the tempered stable phi."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    xlam = lam * theta ** (-alpha)
    # the weights (1 + x)^(n-1) can grow geometrically; 40 more terms let the
    # faster decay of P win, and _gamma_series checks that it has
    n = np.arange(1, _series_length(alpha, float(theta * t.max(initial=0.0))) + 41)
    return 1.0 + _gamma_series(alpha * n, xlam * (1.0 + xlam) ** (n - 1.0), theta * t)


def _gamma_series(shapes: np.ndarray, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_n weights[n] P(shapes[n], x) for every x, in chunks of x so that
    the oracle's scratch memory stays small next to the program's."""
    out = np.empty_like(x)
    for lo in range(0, x.shape[0], _CHUNK):
        terms = weights[None, :] * gammainc(shapes[None, :], x[lo : lo + _CHUNK, None])
        last = np.abs(terms[:, -1])
        if np.any(last > _TERM_EPS * np.maximum(np.abs(terms).sum(axis=1), 1e-300)):
            raise ArithmeticError("oracle series truncated before convergence")
        out[lo : lo + _CHUNK] = terms.sum(axis=1)
    return out


def fft_history(kernel: np.ndarray, values: np.ndarray) -> np.ndarray:
    """out[i] = sum_{j <= i} kernel[i - j] * values[j] for i < len(values).

    Zero-padded real FFT, so it shares no code with the program's direct
    convolution; values may be (n,) or (n, d).
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    size = 1 << (2 * n - 1).bit_length()
    kf = np.fft.rfft(np.asarray(kernel[:n], dtype=float), size)
    if values.ndim == 1:
        return np.fft.irfft(kf * np.fft.rfft(values, size), size)[:n]
    vf = np.fft.rfft(values, size, axis=0)
    return np.fft.irfft(kf[:, None] * vf, size, axis=0)[:n]


def stable_cell_masses(alpha: float, horizon: float, cells: int) -> np.ndarray:
    """Exact masses U(t_{j+1}) - U(t_j) of the stable potential density."""
    return np.diff(stable_moment(alpha, np.linspace(0.0, horizon, cells + 1)))


def fixed_point_residual(u_cell, rhs, f0, values, horizon: float) -> float:
    """sup_i |f_i - f0 - sum_{j<i} u_cell[i-1-j] F(t_mid_j, mid_j)| on the grid.

    ``values`` has shape (N+1, d); the right-hand side is evaluated at cell
    midpoints on the averaged node values, as the Picard map defines it.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0] - 1
    h = horizon / n
    t_mid = (np.arange(n) + 0.5) * h
    g = np.asarray(rhs(t_mid, 0.5 * (values[:-1] + values[1:])), dtype=float)
    mapped = np.asarray(f0, dtype=float) + fft_history(u_cell, g)
    return float(np.abs(values[1:] - mapped).max())
