"""Kernel tables and the memory-integral / memory-derivative operators.

The potential density u(t) of a special Bernstein function is integrable
but typically unbounded at 0 (u(t) <= C t^(beta-1)).  All quadrature here
is product integration: the singular factor is integrated exactly over
each grid cell, the smooth factor is represented by its cell average, so
u itself is never evaluated.

Cell masses:

* ``u_cell[j]  = int_{t_j}^{t_{j+1}} u(s) ds   = U(t_{j+1}) - U(t_j)``
* ``nu_cell[j] = int_{t_j}^{t_{j+1}} nubar(s) ds`` (integrated jump tail)

U comes from closed forms (stable) or inversion of ``1/(z*phi(z))``; the
integrated tail from closed forms (stable, tempered, mixture) or
inversion of ``phi(z)/z**2``.

Every memory integral and derivative reduces to one history sum,
``_conv_prefix``, computed as a block-Toeplitz GEMM: one matrix product
per block lag, each output the sum of the same products as direct
summation.  Nonnegative values that span many orders of magnitude (the
convolution powers) therefore keep their componentwise relative accuracy,
which an FFT, whose error is relative to the largest output, loses.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bernstein import BernsteinFunction
from .errors import KernelConsistencyError, NonconvergenceError
from .grids import Grid, GridFunction
from .laplace import DEFAULT_CONFIG, InversionConfig, invert_grid

__all__ = [
    "KernelTable",
    "build_kernel_table",
    "frac_integral",
    "caputo_derivative",
    "check_inversion_identity",
    "InversionIdentityReport",
    "kernel_table_to_csv",
    "kernel_table_from_csv",
]

#: share of [0, T] left out as the initial boundary layer by the interior
#: error measures of the operators and of the eigen residual
INTERIOR_FRAC = 0.05

#: cells per block of the history sum's block-Toeplitz product
_BLOCK = 128


@dataclass
class KernelTable:
    """Sampled kernels of one Bernstein function on one grid.

    Treated as immutable after construction.  ``c_fit`` is the tightest
    constant such that every cell mass of u is bounded by the matching
    cell mass of ``c_fit * t**(beta-1)``; ``c_env_U`` the analogous fit
    for ``U(t) <= c_env_U * t**beta``.  These fitted envelopes, not the
    catalog's a-priori ``c_assump``, feed every tail certificate downstream.
    """

    grid: Grid
    u_cell: np.ndarray  # shape (N,)   cell masses W_j of the potential density
    U_node: np.ndarray  # shape (N+1,) potential distribution at nodes
    nu_cell: np.ndarray  # shape (N,)   integrated jump tail per cell
    beta: float
    c_assump: float
    c_fit: float
    c_env_U: float
    phi: Optional[BernsteinFunction] = None


def build_kernel_table(
    phi: BernsteinFunction,
    grid: Grid,
    cfg: InversionConfig = DEFAULT_CONFIG,
) -> KernelTable:
    """Materialize u-cell masses, U, and the integrated jump tail."""
    if phi.a != 0.0 or phi.b != 0.0 or not phi.levy_mass_infinite:
        raise ValueError(
            "kernel tables need a driftless, kill-free phi with infinite jump mass"
        )
    if grid.cells < 2:
        raise ValueError("kernel tables need at least 2 cells")
    t = grid.nodes

    U_closed = phi.potential_closed_form(t[1:])
    if U_closed is not None:
        U = np.concatenate(([0.0], U_closed))
    else:
        transform = lambda z: 1.0 / (z * phi.phi(z))  # noqa: E731
        U = np.concatenate(([0.0], invert_grid(transform, t[1:], cfg)))

    W = np.diff(U)
    floor = -max(1e-12, 1e-8 * float(np.max(np.abs(W), initial=0.0)))
    if float(W.min()) < floor:
        raise KernelConsistencyError(
            f"negative u-cell mass {W.min():.3e} below tolerance {floor:.1e}"
        )
    W = np.maximum(W, 0.0)

    tail_int = phi.levy_tail_integral(t[1:])
    if tail_int is not None:
        Ntail = np.concatenate(([0.0], np.asarray(tail_int, dtype=float)))
    else:
        transform = lambda z: phi.phi(z) / z ** 2  # noqa: E731
        Ntail = np.concatenate(([0.0], invert_grid(transform, t[1:], cfg)))
    V = np.diff(Ntail)
    if float(V.min()) < floor:
        raise KernelConsistencyError(
            f"negative tail-cell mass {V.min():.3e} below tolerance {floor:.1e}"
        )
    V = np.maximum(V, 0.0)

    beta = phi.beta
    cell_pow = np.diff(t ** beta) / beta  # cell masses of t**(beta-1)
    c_fit = float(np.max(W / cell_pow))
    c_env_U = float(np.max(U[1:] / t[1:] ** beta))

    # empirical check of the declared short-time envelope on (0, t0]
    early = t[1:] <= phi.t0
    if np.any(early):
        c_early = float(np.max((W / cell_pow)[early]))
        if c_early > 1.05 * phi.c_assump:
            warnings.warn(
                f"fitted kernel envelope {c_early:.4g} on (0, t0] exceeds the "
                f"declared c_assump {phi.c_assump:.4g}; envelope metadata "
                "looks too optimistic",
                stacklevel=2,
            )

    return KernelTable(
        grid=grid,
        u_cell=W,
        U_node=U,
        nu_cell=V,
        beta=beta,
        c_assump=phi.c_assump,
        c_fit=c_fit,
        c_env_U=c_env_U,
        phi=phi,
    )


# -- operators ---------------------------------------------------------------


def _conv_prefix(kernel: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """out[i] = sum_{j<=i} kernel[i-j] * cells[j] for i < n, cells of shape (n,) or (n, d).

    A block-Toeplitz product: the n cells fall into m blocks of b, and the
    lag-k block of the Toeplitz matrix, with its columns newest-first, is
    the Hankel window ``padded[k*b + p + q]`` of the kernel behind b - 1
    zeros (the zeros make the diagonal block lower triangular).  One GEMM
    per lag takes every column at once, and every output stays a sum of
    the same products as direct summation.
    """
    n = len(cells)
    d = cells.size // n
    b = min(_BLOCK, n)
    m = -(-n // b)
    padded = np.zeros((m + 1) * b - 1)
    padded[b - 1 : b - 1 + min(n, len(kernel))] = kernel[:n]
    # read-only Hankel view hankel[r] = padded[r : r + b]; as_strided costs a
    # third of sliding_window_view's fixed overhead, which short calls feel
    step = padded.strides[0]
    hankel = np.lib.stride_tricks.as_strided(
        padded, shape=(len(padded) - b + 1, b), strides=(step, step), writeable=False
    )
    # v[q, J*d + c] = cells[J*b + b-1-q, c]: block J newest-first in column block J
    v = np.zeros((m * b, d))
    v[:n] = cells.reshape(n, d)
    v = v.reshape(m, b, d)[:, ::-1].transpose(1, 0, 2).reshape(b, m * d)
    out = np.zeros((b, m * d))
    for k in range(m):
        # a unit-stride copy of the b x b block lets the product run in BLAS
        h_k = np.ascontiguousarray(hankel[k * b : (k + 1) * b])
        out[:, k * d :] += h_k @ v[:, : (m - k) * d]
    return out.reshape(b, m, d).transpose(1, 0, 2).reshape(m * b, d)[:n].reshape(cells.shape)


def _frac_integral_values(u_cell: np.ndarray, values: np.ndarray) -> np.ndarray:
    avg = 0.5 * (values[:-1] + values[1:])
    out = np.zeros_like(values)
    out[1:] = _conv_prefix(u_cell, avg)
    return out


def _resolvent_solve(u_cell: np.ndarray, b: np.ndarray, g) -> np.ndarray:
    """Grid solution of x = b + g * I[x] under the product-trapezoid rule.

    ``b`` has shape (N+1, d); ``g`` is either per-node scalars of shape
    (N+1,) or one constant d x d matrix.  The system is lower triangular:
    x_i meets itself with weight W_0/2, node 0 enters with W_{i-1}/2 and
    node 0 < j < i with (W_{i-1-j} + W_{i-j})/2, so one forward march
    solves it exactly.  Where the Neumann series of the system diverges,
    max|g_i| W_0/2 >= 1 or rho(g) W_0/2 >= 1 for a matrix (the spectral
    radius of a lower-triangular operator is its largest diagonal entry),
    the solve is refused.
    """
    n = len(u_cell)
    half = 0.5 * u_cell[0]
    scalar = np.ndim(g) == 1
    radius = float(np.abs(g if scalar else np.linalg.eigvals(g)).max()) * half
    if not radius < 1.0:
        raise NonconvergenceError(
            f"resolvent series diverges: diagonal weight of g*I is {radius:.3g} >= 1; "
            "refine the grid or shorten the horizon"
        )
    if scalar:
        step = lambda i, hist: (b[i] + g[i] * hist) / (1.0 - g[i] * half)  # noqa: E731
    else:
        solve = np.linalg.inv(np.eye(len(g)) - half * g)
        step = lambda i, hist: solve @ (b[i] + g @ hist)  # noqa: E731
    # mid[n-1-m] = (W_{m-1} + W_m)/2: the weights of nodes 1..i-1, newest first
    mid = 0.5 * (u_cell[:-1] + u_cell[1:])[::-1]
    x = np.empty_like(b, dtype=float)
    x[0] = b[0]
    for i in range(1, n + 1):
        x[i] = step(i, 0.5 * u_cell[i - 1] * x[0] + mid[n - i :] @ x[1:i])
    return x


def _caputo_values(nu_cell: np.ndarray, values: np.ndarray, step: float) -> np.ndarray:
    slope = np.diff(values, axis=0) / step
    out = np.zeros_like(values)
    out[1:] = _conv_prefix(nu_cell, slope)
    out[0] = out[1]  # one-sided endpoint; the operator is only defined a.e.
    return out


def _require_same_grid(kt: KernelTable, f: GridFunction) -> None:
    if f.grid != kt.grid:
        raise ValueError(f"grid mismatch: table {kt.grid!r} vs function {f.grid!r}")


def frac_integral(kt: KernelTable, f: GridFunction) -> GridFunction:
    """Memory integral (I f)(t_i) = int_0^{t_i} u(t_i - s) f(s) ds.

    Product integration: exact u-cell masses against trapezoid cell
    averages of f; result[0] = 0.
    """
    _require_same_grid(kt, f)
    return GridFunction(f.grid, _frac_integral_values(kt.u_cell, f.values))


def caputo_derivative(kt: KernelTable, f: GridFunction) -> GridFunction:
    """Memory derivative via the absolutely-continuous form.

    (D f)(t_i) ~= sum_{j<i} kt.nu_cell[i-1-j] * (f_{j+1} - f_j)/h, i.e. the
    table's integrated jump tail against per-cell difference quotients.
    The value at t=0 is reported as the first interior value.  Accurate
    away from a short initial boundary layer; for inputs with U-like
    roughness at 0 the first few nodes overshoot by design of the
    difference quotient.
    """
    _require_same_grid(kt, f)
    return GridFunction(f.grid, _caputo_values(kt.nu_cell, f.values, kt.grid.step))


@dataclass
class InversionIdentityReport:
    """Sup-norm discrepancies of the two operator compositions.

    ``err_int_deriv``  : || I(D f) - (f - f(0)) ||_inf        (clean identity)
    ``err_deriv_int``  : || D(I f) - (f - f(0)) ||_inf        (includes the
    constant offset |f(0)| whenever f(0) != 0, because the
    derivative-after-integral composition reproduces f itself)
    ``*_interior`` variants take the sup over t >= INTERIOR_FRAC * T only.
    """

    err_int_deriv: float
    err_deriv_int: float
    err_int_deriv_interior: float
    err_deriv_int_interior: float


def check_inversion_identity(kt: KernelTable, f: GridFunction) -> InversionIdentityReport:
    _require_same_grid(kt, f)
    base = f.values - f.values[0]
    a = _frac_integral_values(kt.u_cell, _caputo_values(kt.nu_cell, f.values, kt.grid.step))
    b = _caputo_values(kt.nu_cell, _frac_integral_values(kt.u_cell, f.values), kt.grid.step)
    err_a = np.linalg.norm(a - base, axis=1)
    err_b = np.linalg.norm(b - base, axis=1)
    mask = kt.grid.nodes >= INTERIOR_FRAC * kt.grid.horizon
    return InversionIdentityReport(
        err_int_deriv=float(err_a.max()),
        err_deriv_int=float(err_b.max()),
        err_int_deriv_interior=float(err_a[mask].max()),
        err_deriv_int_interior=float(err_b[mask].max()),
    )


# -- CSV goldens --------------------------------------------------------------

_CSV_FIELDS = ("i", "t", "u_cell", "U", "nu_tail_integrated")


def kernel_table_to_csv(kt: KernelTable, path) -> None:
    """Write the table as CSV; node rows carry the cell quantities of the
    cell starting at that node (blank on the last row)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(
            f"# beta={float(kt.beta):.17g} c_assump={float(kt.c_assump):.17g} "
            f"c_fit={float(kt.c_fit):.17g} c_env_U={float(kt.c_env_U):.17g}\n"
        )
        writer = csv.writer(fh)
        writer.writerow(_CSV_FIELDS)
        n = kt.grid.cells
        for i, t in enumerate(kt.grid.nodes):
            w = format(kt.u_cell[i], ".17g") if i < n else ""
            v = format(kt.nu_cell[i], ".17g") if i < n else ""
            writer.writerow([i, format(t, ".17g"), w, format(kt.U_node[i], ".17g"), v])


def kernel_table_from_csv(path, phi: Optional[BernsteinFunction] = None) -> KernelTable:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise ValueError("kernel CSV must start with a parameter comment line")
        params = dict(tok.split("=") for tok in header[1:].split())
        rows = list(csv.DictReader(fh))
    n = len(rows) - 1
    t = np.array([float(r["t"]) for r in rows])
    grid = Grid(t[-1], n)
    U = np.array([float(r["U"]) for r in rows])
    W = np.array([float(r["u_cell"]) for r in rows[:-1]])
    V = np.array([float(r["nu_tail_integrated"]) for r in rows[:-1]])
    beta = float(params["beta"])
    return KernelTable(
        grid=grid,
        u_cell=W,
        U_node=U,
        nu_cell=V,
        beta=beta,
        c_assump=float(params["c_assump"]),
        c_fit=float(params["c_fit"]),
        c_env_U=float(params["c_env_U"]),
        phi=phi,
    )
