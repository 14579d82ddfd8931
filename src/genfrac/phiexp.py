"""Eigenfunctions of the memory derivative (phi-exponentials).

The eigenfunction e(t; lam) solving D e = lam * e, e(0) = 1 is evaluated
by three independent routes:

* convolution-power series  sum_k lam^k u_k(t), where u_0 = 1 and
  u_{k+1} is the memory integral of u_k;
* numerical inversion of the transform phi(z) / (z * (phi(z) - lam));
* Monte Carlo over inverse-subordinator samples (module ``mc``).

No route falls back on another: where the series cannot certify its
value it raises, and the caller picks another route.

The series truncation is certified against the explicit majorant
``u_k(t) <= C1 * C2^(k-1) * beta * (Gamma(beta) t^beta)^k / Gamma(k beta + 1)``
built from the fitted kernel envelopes C2 (for u) and C1 (for U).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
import numpy as np

from .bernstein import BernsteinFunction
from .errors import CancellationError, ConditioningWarning, TruncationError
from .grids import Grid, GridFunction
from .kernels import INTERIOR_FRAC, KernelTable, _caputo_values, _frac_integral_values
from .laplace import DEFAULT_CONFIG, InversionConfig, abscissa_for_eigen, invert_grid
from .mittag import mittag_leffler_tails

__all__ = [
    "ConvolutionPowers",
    "convolution_powers",
    "suggest_power_count",
    "phi_exp_series",
    "phi_exp_series_curve",
    "phi_exp_laplace_curve",
    "eigen_residual",
]

#: relative tail certificate demanded of the series route
SERIES_TOL = 1e-10
#: refuse alternating sums once sum|term| exceeds this multiple of |sum|
CANCELLATION_LIMIT = 1e6


@dataclass
class ConvolutionPowers:
    """Iterated memory integrals of 1 on a grid: u_star[k][i] ~= u_k(t_i)."""

    grid: Grid
    u_star: np.ndarray  # shape (K_max+1, N+1)
    beta: float
    c_env_u: float  # fitted C2: u(t) <= C2 t^(beta-1)
    c_env_U: float  # fitted C1: U(t) <= C1 t^beta

    @property
    def k_max(self) -> int:
        return self.u_star.shape[0] - 1


def convolution_powers(kt: KernelTable, k_max: int) -> ConvolutionPowers:
    """Build u_0..u_{k_max} by repeated application of the memory integral."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n = kt.grid.cells
    u = np.empty((k_max + 1, n + 1))
    u[0] = 1.0
    col = np.ones((n + 1, 1))
    for k in range(1, k_max + 1):
        col = _frac_integral_values(kt.u_cell, col)
        u[k] = col[:, 0]
    return ConvolutionPowers(
        grid=kt.grid, u_star=u, beta=kt.beta, c_env_u=kt.c_fit, c_env_U=kt.c_env_U
    )


def _require_finite(lam: float) -> None:
    """Refuse a non-finite lam before any tail sum spends its term budget."""
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")


def _majorant_tails(beta: float, c_u: float, c_U: float, lam: float, t: float, k_max: int):
    """Bounds on sum_{k >= j} |lam|^k u_k(t) for j = 0..k_max (used for j >= 1)
    from the envelopes u <= c_u t^(beta-1) and U <= c_U t^beta."""
    x = abs(lam) * c_u * math.gamma(beta) * t ** beta
    return c_U * beta / c_u * mittag_leffler_tails(beta, x, k_max)


def suggest_power_count(kt: KernelTable, lam: float) -> int:
    """Smallest K whose certified tail at t = T meets the series criterion.

    Uses the kernel envelopes only.  Values at lam >= 0 are always >= 1
    (every term is nonnegative, the leading one is 1), so an absolute tail
    of SERIES_TOL suffices there; alternating sums can be much smaller than
    any partial, so the target drops to SERIES_TOL/100 (covering values down
    to 0.01 -- beyond that the cancellation guard rejects the series
    route anyway).
    """
    _require_finite(lam)
    t = kt.grid.horizon
    if lam == 0.0:
        return 1
    target = SERIES_TOL * (0.01 if lam < 0 else 1.0)
    tails = _majorant_tails(kt.beta, kt.c_fit, kt.c_env_U, lam, t, 2048)
    met = tails[2:] <= target
    if met.any():
        return max(int(np.argmax(met)) + 3, 4)
    raise TruncationError(
        f"no certified truncation below 2048 powers for lam={lam}, T={t}"
    )


def _terms(cp: ConvolutionPowers, lam: float, K: int, k, nodes) -> np.ndarray:
    """lam^k u_k(t_i) for the power(s) ``k`` at the grid nodes ``nodes``:
    products while |lam|^K < e^690, else formed in log space."""
    u = cp.u_star[k, nodes]
    if abs(lam) <= 1.0 or K * math.log(abs(lam)) < 690.0:
        return float(lam) ** k * u
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = math.copysign(1.0, lam) ** k * np.exp(k * math.log(abs(lam)) + np.log(u))
    return np.where(np.isnan(terms), 0.0, terms)


def _series(cp: ConvolutionPowers, lam: float, start: int, stop: int) -> np.ndarray:
    """Series values at grid nodes start..stop-1, truncated at the first K >= 1
    whose certified tail at node stop-1 meets SERIES_TOL relative to the
    running sum there.

    Sums run row by row over k, with no term matrix; ``comp`` gathers the
    exact rounding error of each addition (TwoSum), i.e. Neumaier summation,
    so the values agree with ``math.fsum`` to an ulp.  The first node with
    sum|term| > CANCELLATION_LIMIT * |sum| raises CancellationError; without
    a certified K, that check runs over all stored powers at node stop-1 first.
    """
    _require_finite(lam)
    if lam == 0.0:
        return np.ones(stop - start)
    t = cp.grid.nodes[stop - 1]
    tails = _majorant_tails(cp.beta, cp.c_env_u, cp.c_env_U, lam, t, cp.k_max + 1)
    last = _terms(cp, lam, cp.k_max, np.arange(cp.k_max + 1), stop - 1)
    met = tails[2:] <= SERIES_TOL * np.maximum(np.abs(np.cumsum(last)[1:]), 1e-300)
    K = int(np.argmax(met)) + 1 if met.any() else cp.k_max
    if not met.any():
        start = stop - 1
    total, comp, gross = np.zeros((3, stop - start))
    for k in range(K + 1):
        row = _terms(cp, lam, K, k, slice(start, stop))
        new = total + row
        back = new - total
        comp += (total - (new - back)) + (row - back)
        total = new
        gross += np.abs(row)
    total += comp
    amp = gross / np.maximum(np.abs(total), 1e-300)
    bad = np.flatnonzero(amp > CANCELLATION_LIMIT)
    if bad.size:
        raise CancellationError(
            f"alternating series amplification {amp[bad[0]]:.2e} exceeds {CANCELLATION_LIMIT:.0e} "
            f"at lam={lam} (node {start + bad[0]}); use the Laplace route"
        )
    if not met.any():
        raise TruncationError(
            f"series not certified within k_max={cp.k_max} at t={t:g}, lam={lam:g}; "
            f"estimated tail {tails[-1]:.3e}",
            tail_estimate=float(tails[-1]),
        )
    return total


def phi_exp_series(cp: ConvolutionPowers, lam: float, t_index: int) -> float:
    """Series value of the eigenfunction at grid node ``t_index``.

    Raises :class:`TruncationError` when the stored powers cannot certify
    the tail and :class:`CancellationError` when the alternating sum
    amplifies the quadrature noise of the powers beyond trust
    (sum|term| > 1e6 |sum|); :func:`phi_exp_laplace_curve` answers there.
    """
    if not 0 <= t_index <= cp.grid.cells:
        raise ValueError(f"t_index out of range 0..{cp.grid.cells}")
    return float(_series(cp, lam, t_index, t_index + 1)[0])


def phi_exp_series_curve(cp: ConvolutionPowers, lam: float) -> np.ndarray:
    """Series values at every grid node (certified at the worst node t=T)."""
    return _series(cp, lam, 0, cp.grid.cells + 1)


def _eigen_transform(phi: BernsteinFunction, lam: float, guard: float):
    def transform(z):
        pz = phi.phi(z)
        denom = pz - lam
        d = np.min(np.abs(np.asarray(denom)))
        if d < guard:
            warnings.warn(
                f"transform evaluated within {d:.2e} of the eigen pole "
                f"(guard {guard:.2e}); result may be ill-conditioned",
                ConditioningWarning,
                stacklevel=2,
            )
        return pz / (np.asarray(z) * denom)

    return transform


def _eigen_shift(phi: BernsteinFunction, lam: float, cfg: InversionConfig) -> float:
    if cfg.abscissa_shift != 0.0:
        return cfg.abscissa_shift
    if lam <= 0:
        return 0.0
    # recentre essentially at the pole: the shifted original then tends to
    # a constant (the residue term), which the inversion handles at full
    # accuracy, while farther contours make it decay like exp(-c t) and
    # cost digits; the 0.1% margin keeps the first node off the pole
    return 1.001 * abscissa_for_eigen(phi, lam)


def phi_exp_laplace_curve(
    phi: BernsteinFunction, lam: float, ts, cfg: InversionConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """Laplace route at an array of positive times."""
    _require_finite(lam)
    shift = _eigen_shift(phi, lam, cfg)
    guard = 1e-8 * max(1.0, abs(lam))
    transform = _eigen_transform(phi, lam, guard)
    return invert_grid(transform, ts, replace(cfg, abscissa_shift=shift))


def eigen_residual(kt: KernelTable, lam: float, e_values: GridFunction) -> float:
    """Sup of |D e - lam e| over interior nodes (t >= INTERIOR_FRAC * T).

    A short initial boundary layer is excluded: the difference-quotient
    derivative overshoots on the first few cells for eigenfunctions, whose
    roughness at 0 matches the kernel's.
    """
    if e_values.grid != kt.grid:
        raise ValueError("grid mismatch between table and eigenfunction values")
    if abs(float(e_values.node_norms()[0]) - 1.0) > 1e-9:
        raise ValueError("eigenfunction values must start at 1")
    deriv = _caputo_values(kt.nu_cell, e_values.values, kt.grid.step)
    resid = np.linalg.norm(deriv - lam * e_values.values, axis=1)
    mask = kt.grid.nodes >= INTERIOR_FRAC * kt.grid.horizon
    mask[0] = False  # endpoint value is one-sided by convention
    return float(resid[mask].max())
