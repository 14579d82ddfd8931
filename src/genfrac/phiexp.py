"""Eigenfunctions of the memory derivative (phi-exponentials).

The eigenfunction e(t; lam) solving D e = lam * e, e(0) = 1 is evaluated
by three independent routes:

* the series  sum_k lam^k u_k(t), where u_0 = 1 and u_{k+1} is the memory
  integral of u_k.  On the grid it is the Neumann series of the lower-
  triangular system e = 1 + lam * I[e], which the blocked forward solve of
  ``kernels`` solves exactly (:func:`phi_exp_grid_curve`); no sum of
  stored powers is evaluated;
* numerical inversion of the transform phi(z) / (z * (phi(z) - lam));
* Monte Carlo over inverse-subordinator samples (module ``mc``).

No route falls back on another: a route that cannot answer raises, and the
caller picks another route.

The convolution powers u_k themselves are still built on request, sized
by the explicit majorant
``u_k(t) <= C1 * C2^(k-1) * beta * (Gamma(beta) t^beta)^k / Gamma(k beta + 1)``
built from the fitted kernel envelopes C2 (for u) and C1 (for U).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
import numpy as np

from .bernstein import BernsteinFunction
from .errors import ConditioningWarning, TruncationError
from .grids import Grid, GridFunction, _require_grid
from .kernels import (INTERIOR_FRAC, KernelTable, _caputo_values, _frac_integral_values,
                      _resolvent_solve)
from .laplace import abscissa_for_eigen, invert_grid
from .mittag import mittag_leffler_tails

__all__ = [
    "ConvolutionPowers",
    "convolution_powers",
    "suggest_power_count",
    "phi_exp_grid_curve",
    "phi_exp_series_curve",
    "phi_exp_laplace_curve",
    "eigen_residual",
]

#: relative tail that suggest_power_count sizes the powers for
SERIES_TOL = 1e-10


@dataclass
class ConvolutionPowers:
    """Iterated memory integrals of 1 on the grid of ``table``: u_star[k][i] ~= u_k(t_i)."""

    table: KernelTable
    u_star: np.ndarray  # shape (K_max+1, N+1)

    @property
    def grid(self) -> Grid:
        return self.table.grid

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
    return ConvolutionPowers(kt, u)


def _require_table(kt: KernelTable, cp: ConvolutionPowers | None) -> None:
    """Refuse powers built from any table but ``kt`` itself; None passes."""
    if cp is not None and cp.table is not kt:
        raise ValueError("convolution powers were built from another kernel table")


def _require_finite(lam: float) -> None:
    """Refuse a non-finite lam before any tail sum spends its term budget."""
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")


def _majorant_tails(kt: KernelTable, lam: float, t: float, k_max: int):
    """Bounds on sum_{k >= j} |lam|^k u_k(t) for j = 0..k_max (used for j >= 1)
    from the envelopes u <= c_fit t^(beta-1) and U <= c_env_U t^beta of ``kt``."""
    beta = kt.beta
    x = abs(lam) * kt.c_fit * math.gamma(beta) * t ** beta
    return kt.c_env_U * beta / kt.c_fit * mittag_leffler_tails(beta, x, k_max)


def suggest_power_count(kt: KernelTable, lam: float) -> int:
    """Smallest K whose certified tail at t = T meets the series criterion.

    Sizes the powers for callers that still build them; it uses the kernel
    envelopes only.  Values at lam >= 0 are always >= 1 (every term is
    nonnegative, the leading one is 1), so an absolute tail of SERIES_TOL
    suffices there; alternating sums can be much smaller than any partial,
    so the target drops to SERIES_TOL/100 (covering values down to 0.01).
    """
    _require_finite(lam)
    t = kt.grid.horizon
    if lam == 0.0:
        return 1
    target = SERIES_TOL * (0.01 if lam < 0 else 1.0)
    tails = _majorant_tails(kt, lam, t, 2048)
    met = tails[2:] <= target
    if met.any():
        return max(int(np.argmax(met)) + 3, 4)
    raise TruncationError(
        f"no certified truncation below 2048 powers for lam={lam}, T={t}"
    )


def phi_exp_grid_curve(kt: KernelTable, lam: float) -> np.ndarray:
    """The eigenfunction at every grid node: the grid solution of
    e = 1 + lam * I[e], i.e. the exact grid sum of sum_k lam^k u_k.

    Refuses a non-finite lam with ValueError, |lam| W_0 / 2 >= 1, where the
    grid series diverges, with NonconvergenceError, and an overflowing
    solution with NumericalError.
    """
    n = kt.grid.cells + 1
    return _resolvent_solve(kt.u_cell, np.ones((n, 1)), np.full(n, lam))[:, 0]


def phi_exp_series_curve(cp: ConvolutionPowers, lam: float) -> np.ndarray:
    """:func:`phi_exp_grid_curve` on the table of ``cp``; the powers are not
    read.  Kept for the benchmark's calls: ROADMAP 1(c) deletes it after the
    benchmark change 1(b)."""
    return phi_exp_grid_curve(cp.table, lam)


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


def _eigen_shift(phi: BernsteinFunction, lam: float) -> float:
    if lam <= 0:
        return 0.0
    # recentre essentially at the pole: the shifted original then tends to
    # a constant (the residue term), which the inversion handles at full
    # accuracy, while farther contours make it decay like exp(-c t) and
    # cost digits; the 0.1% margin keeps the first node off the pole
    return 1.001 * abscissa_for_eigen(phi, lam)


def phi_exp_laplace_curve(phi: BernsteinFunction, lam: float, ts) -> np.ndarray:
    """Laplace route at an array of positive times; for lam > 0 it inverts
    z -> F(z + c), c just past the pole phi^{-1}(lam), and multiplies by exp(c t)."""
    _require_finite(lam)
    shift = _eigen_shift(phi, lam)
    transform = _eigen_transform(phi, lam, 1e-8 * max(1.0, abs(lam)))
    if shift == 0.0:
        return invert_grid(transform, ts)
    ts = np.asarray(ts, dtype=float)
    return np.exp(shift * ts) * invert_grid(lambda z: transform(z + shift), ts)


def eigen_residual(kt: KernelTable, lam: float, e_values: GridFunction) -> float:
    """Sup of |D e - lam e| over interior nodes (t >= INTERIOR_FRAC * T).

    A short initial boundary layer is excluded: the difference-quotient
    derivative overshoots on the first few cells for eigenfunctions, whose
    roughness at 0 matches the kernel's.
    """
    _require_grid(kt.grid, e_values)
    if abs(float(e_values.node_norms()[0]) - 1.0) > 1e-9:
        raise ValueError("eigenfunction values must start at 1")
    deriv = _caputo_values(kt.nu_cell, e_values.values, kt.grid.step)
    resid = np.linalg.norm(deriv - lam * e_values.values, axis=1)
    mask = kt.grid.nodes >= INTERIOR_FRAC * kt.grid.horizon
    mask[0] = False  # endpoint value is one-sided by convention
    return float(resid[mask].max())
