"""Kernel tables and the memory-integral / memory-derivative operators.

The potential density u(t) of a special Bernstein function is integrable
but typically unbounded at 0 (u(t) <= C t^(beta-1), beta from the catalog,
C fitted on each table's grid as ``c_fit``).  All quadrature here
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
``_conv_prefix``, over a window of its outputs: the whole prefix, the new
cells of a continuation segment, or one block of the forward solve.  A
window up to one block wide is a direct convolution, a wider one a
block-Toeplitz GEMM over the output blocks it covers; each output is the
sum of the same products as direct summation.  Nonnegative values that
span many orders of magnitude (the convolution powers) therefore keep
their componentwise relative accuracy, which an FFT, whose error is
relative to the largest output, loses.  The resolvent solve
``_resolvent_solve`` marches forward in blocks, each block's history one
windowed sum.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .bernstein import BernsteinFunction
from .errors import KernelConsistencyError, NonconvergenceError, NumericalError
from .grids import Grid, GridFunction, _require_grid
from .laplace import invert_grid

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

#: longest dot product of the history sum's direct convolution
_DOT_CELLS = 8192


@dataclass
class KernelTable:
    """Sampled kernels of one Bernstein function on one grid.

    Treated as immutable after construction.  ``c_fit`` is the tightest
    constant such that every cell mass of u is bounded by the matching
    cell mass of ``c_fit * t**(beta-1)``; ``c_env_U`` the analogous fit
    for ``U(t) <= c_env_U * t**beta``.  These fitted envelopes feed every
    tail certificate downstream; the catalog declares only ``beta``.
    """

    grid: Grid
    u_cell: np.ndarray  # shape (N,)   cell masses W_j of the potential density
    U_node: np.ndarray  # shape (N+1,) potential distribution at nodes
    nu_cell: np.ndarray  # shape (N,)   integrated jump tail per cell
    beta: float
    c_fit: float
    c_env_U: float


def _kernel_table(grid: Grid, U: np.ndarray, V: np.ndarray, beta: float):
    """The table of U at the nodes and raw tail-cell masses V: refuses a mass of
    W = diff U or V below the rounding floor -max(1e-12, 1e-8 max|W|) with
    KernelConsistencyError, clamps both at 0 and fits ``c_fit`` and ``c_env_U``."""
    if grid.cells < 2:
        raise ValueError("kernel tables need at least 2 cells")
    W = np.diff(U)
    floor = -max(1e-12, 1e-8 * float(np.max(np.abs(W), initial=0.0)))
    for name, mass in (("u", W), ("tail", V)):
        if float(mass.min()) < floor:
            raise KernelConsistencyError(
                f"negative {name}-cell mass {mass.min():.3e} below tolerance {floor:.1e}"
            )
    W = np.maximum(W, 0.0)
    t = grid.nodes
    cell_pow = np.diff(t ** beta) / beta  # cell masses of t**(beta-1)
    return KernelTable(
        grid=grid,
        u_cell=W,
        U_node=U,
        nu_cell=np.maximum(V, 0.0),
        beta=beta,
        c_fit=float(np.max(W / cell_pow)),
        c_env_U=float(np.max(U[1:] / t[1:] ** beta)),
    )


def build_kernel_table(phi: BernsteinFunction, grid: Grid) -> KernelTable:
    """Materialize u-cell masses, U, and the integrated jump tail."""
    t = grid.nodes
    U_closed = phi.potential_closed_form(t[1:])
    if U_closed is not None:
        U = np.concatenate(([0.0], U_closed))
    else:
        transform = lambda z: 1.0 / (z * phi.phi(z))  # noqa: E731
        U = np.concatenate(([0.0], invert_grid(transform, t[1:])))

    tail_int = phi.levy_tail_integral(t[1:])
    if tail_int is not None:
        Ntail = np.concatenate(([0.0], np.asarray(tail_int, dtype=float)))
    else:
        transform = lambda z: phi.phi(z) / z ** 2  # noqa: E731
        Ntail = np.concatenate(([0.0], invert_grid(transform, t[1:])))
    return _kernel_table(grid, U, np.diff(Ntail), phi.beta)


# -- operators ---------------------------------------------------------------


def _conv_prefix(kernel: np.ndarray, cells: np.ndarray, first: int = 0, stop=None) -> np.ndarray:
    """The history sum sum_{j<=i, j<n} kernel[i-j] * cells[j] at the outputs first <= i < stop.

    ``cells`` has shape (n,) or (n, d); ``stop`` defaults to n, so the
    default window is the whole prefix, and a window may reach past the
    cells' end.  Kernel entries past its length count as zero.  The output
    has stop - first rows and the columns of ``cells``.

    A window no wider than one block, ``_BLOCK`` outputs, is one
    ``np.convolve`` per column over the kernel lags it reads, in chunks of
    at most ``_DOT_CELLS`` cells: OpenBLAS splits longer dot products
    across its threads, and the split would move the last digits with the
    thread count.  A wider window is a block-Toeplitz product over the
    output blocks it covers: the cells fall into blocks of b, and the lag-k
    block of the Toeplitz matrix, with its columns newest-first, is the
    Hankel window ``padded[k*b + p + q]`` of the kernel behind b - 1 zeros
    (the zeros make the diagonal block lower triangular).  One GEMM per lag
    takes every column at once.  Either way every output stays a sum of
    the same products as direct summation.
    """
    n = len(cells)
    stop = n if stop is None else stop
    d = cells.size // n
    width = stop - first
    shape = (width,) + cells.shape[1:]
    if width <= _BLOCK:
        # win[r] = kernel[lo + r] for the lags lo..stop-1 the window reads
        lo = first - n + 1
        if lo >= 0 and stop <= len(kernel):
            win = kernel[lo:stop]
        else:
            win = np.zeros(stop - lo)
            a, e = max(lo, 0), min(stop, len(kernel))
            win[a - lo : max(e, a) - lo] = kernel[a:e]
        cols = cells.reshape(n, d).T
        out = np.zeros((d, width))
        for j0 in range(0, n, _DOT_CELLS):
            # cells j0..j1-1 read the lags first-j1+1..stop-1-j0
            j1 = min(j0 + _DOT_CELLS, n)
            part = win[n - j1 : n - j0 + width - 1]
            for c in range(d):
                out[c] += np.convolve(part, cols[c, j0:j1], "valid")
        return out.T.reshape(shape)
    b = _BLOCK
    m = -(-n // b)  # cell blocks
    lo_block, hi_block = first // b, (stop - 1) // b  # output blocks
    padded = np.zeros((hi_block + 2) * b - 1)
    padded[b - 1 : b - 1 + min(stop, len(kernel))] = kernel[:stop]
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
    out = np.zeros((b, (hi_block - lo_block + 1) * d))
    for k in range(max(0, lo_block - m + 1), hi_block + 1):
        # output blocks I in [i0, i1] read cell blocks I - k
        i0, i1 = max(lo_block, k), min(hi_block, k + m - 1)
        # a unit-stride copy of the b x b block lets the product run in BLAS
        h_k = np.ascontiguousarray(hankel[k * b : (k + 1) * b])
        out[:, (i0 - lo_block) * d : (i1 - lo_block + 1) * d] += (
            h_k @ v[:, (i0 - k) * d : (i1 - k + 1) * d]
        )
    rows = out.reshape(b, -1, d).transpose(1, 0, 2).reshape(-1, d)
    return rows[first - lo_block * b : stop - lo_block * b].reshape(shape)


def _frac_integral_values(u_cell: np.ndarray, values: np.ndarray) -> np.ndarray:
    avg = 0.5 * (values[:-1] + values[1:])
    out = np.zeros_like(values)
    out[1:] = _conv_prefix(u_cell, avg)
    return out


def _resolvent_solve(u_cell: np.ndarray, b: np.ndarray, g) -> np.ndarray:
    """Grid solution of x = b + g * I[x] under the product-trapezoid rule.

    ``b`` has shape (N+1, d); ``g`` is either per-node scalars of shape
    (N+1,) or one constant d x d matrix.  The system is lower triangular:
    node 0 enters x_i with weight W_{i-1}/2 and node 0 < j <= i with
    c_{i-j}, where c_0 = W_0/2 and c_r = (W_{r-1} + W_r)/2.

    It is solved forward in blocks.  The history of the solved nodes at a
    block is one windowed history sum, :func:`_conv_prefix`.  For scalar g
    a block of ``_BLOCK // 2`` nodes is one dense solve of
    (I - diag(g) T) x = b + g * hist, with T the lower-triangular Toeplitz
    matrix of the c_r.  For a matrix g the block matrix I - T kron g is the
    same for every block of ``_BLOCK // d`` nodes, so it is inverted once:
    its inverse is block Toeplitz, and its first block column is a forward
    march over one block.

    A non-finite b or g is refused with ValueError.  Where the Neumann
    series of the system diverges, max|g_i| W_0/2 >= 1 or rho(g) W_0/2 >= 1
    for a matrix (the spectral radius of a lower-triangular operator is its
    largest diagonal entry), the solve is refused with NonconvergenceError.
    A solution that overflows below that threshold raises NumericalError.
    """
    if not (np.isfinite(b).all() and np.isfinite(g).all()):
        raise ValueError("the resolvent solve needs finite b and g")
    n = len(u_cell)
    scalar = np.ndim(g) == 1
    radius = float(np.abs(g if scalar else np.linalg.eigvals(g)).max()) * 0.5 * u_cell[0]
    if not radius < 1.0:
        raise NonconvergenceError(
            f"resolvent series diverges: diagonal weight of g*I is {radius:.3g} >= 1; "
            "refine the grid or shorten the horizon"
        )
    c = np.concatenate(([0.5 * u_cell[0]], 0.5 * (u_cell[:-1] + u_cell[1:])))
    d = b.shape[1]
    # a dense solve costs k^3 per block: half a history block is cheaper per
    # node than a whole one; a product with the inverse costs (k d)^2
    k = min(_BLOCK // 2 if scalar else max(1, _BLOCK // d), n)
    lag = np.subtract.outer(np.arange(k), np.arange(k))  # p - q
    if scalar:
        T = np.where(lag >= 0, c[np.abs(lag)], 0.0)
    else:
        # X_r, the lag-r block of the inverse, solves (I - c_0 g) X_r = g sum_{q<r} c_{r-q} X_q
        X = np.empty((k, d, d))
        X[0] = np.linalg.inv(np.eye(d) - c[0] * g)
        step = X[0] @ g
        flat = X.reshape(k, d * d)
        for r in range(1, k):
            X[r] = step @ (c[r:0:-1] @ flat[:r]).reshape(d, d)
        inv = np.where((lag >= 0)[:, :, None, None], X[np.abs(lag)], 0.0)
        inv = inv.transpose(0, 2, 1, 3).reshape(k * d, k * d)
    x = np.empty_like(b, dtype=float)
    x[0] = b[0]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        for s in range(1, n + 1, k):
            e = min(s + k, n + 1)
            w = e - s
            hist = 0.5 * u_cell[s - 1 : e - 1, None] * x[0]
            if s > 1:
                hist += _conv_prefix(c, x[1:s], s - 1, e - 1)
            if scalar:
                A = np.eye(w) - g[s:e, None] * T[:w, :w]
                x[s:e] = np.linalg.solve(A, b[s:e] + g[s:e, None] * hist)
            else:
                x[s:e] = (inv[: w * d, : w * d] @ (b[s:e] + hist @ g.T).ravel()).reshape(w, d)
    if not np.isfinite(x).all():
        raise NumericalError("the resolvent solution overflowed; shorten the horizon or reduce g")
    return x


def _caputo_values(nu_cell: np.ndarray, values: np.ndarray, step: float) -> np.ndarray:
    slope = np.diff(values, axis=0) / step
    out = np.zeros_like(values)
    out[1:] = _conv_prefix(nu_cell, slope)
    out[0] = out[1]  # one-sided endpoint; the operator is only defined a.e.
    return out


def frac_integral(kt: KernelTable, f: GridFunction) -> GridFunction:
    """Memory integral (I f)(t_i) = int_0^{t_i} u(t_i - s) f(s) ds.

    Product integration: exact u-cell masses against trapezoid cell
    averages of f; result[0] = 0.
    """
    _require_grid(kt.grid, f)
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
    _require_grid(kt.grid, f)
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
    _require_grid(kt.grid, f)
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

_CSV_PARAMS = ("beta", "c_fit", "c_env_U")
_CSV_FIELDS = ("i", "t", "u_cell", "U", "nu_tail_integrated")


def kernel_table_to_csv(kt: KernelTable, path) -> None:
    """Write the table as CSV; node rows carry the cell quantities of the
    cell starting at that node (blank on the last row)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("# " + " ".join(f"{k}={float(getattr(kt, k)):.17g}" for k in _CSV_PARAMS) + "\n")
        writer = csv.writer(fh)
        writer.writerow(_CSV_FIELDS)
        n = kt.grid.cells
        for i, t in enumerate(kt.grid.nodes):
            w = format(kt.u_cell[i], ".17g") if i < n else ""
            v = format(kt.nu_cell[i], ".17g") if i < n else ""
            writer.writerow([i, format(t, ".17g"), w, format(kt.U_node[i], ".17g"), v])


def kernel_table_from_csv(path) -> KernelTable:
    """Read a table written by :func:`kernel_table_to_csv`, rebuilt from its
    ``U`` and ``nu_tail_integrated`` columns as :func:`build_kernel_table`
    builds it.  Missing, extra, non-finite, out-of-range or off-grid input and
    stored ``u_cell``, ``c_fit`` or ``c_env_U`` that differ from the rebuilt
    ones raise ValueError; a negative cell mass raises KernelConsistencyError.
    Header parameters other than ``beta``, ``c_fit`` and ``c_env_U`` are
    ignored; extra cells in a row are refused."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise ValueError("kernel CSV must start with a parameter comment line")
        params = dict(tok.split("=") for tok in header[1:].split())
        reader = csv.DictReader(fh)
        rows = list(reader)
    missing = [key for key in _CSV_PARAMS if key not in params]
    missing += [key for key in _CSV_FIELDS if key not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"kernel CSV lacks the parameters or columns {missing}")
    if len(rows) < 2:
        raise ValueError(f"kernel CSV needs at least two node rows, has {len(rows)}")
    if any(None in row or None in row.values() for row in rows):
        raise ValueError("kernel CSV has a row with missing or extra cells")
    t, U = (np.array([float(r[k]) for r in rows]) for k in ("t", "U"))
    W, V = (np.array([float(r[k]) for r in rows[:-1]]) for k in ("u_cell", "nu_tail_integrated"))
    beta, c_fit, c_env_U = (float(params[key]) for key in _CSV_PARAMS)
    if not all(np.isfinite(v).all() for v in (t, U, W, V, [beta, c_fit, c_env_U])):
        raise ValueError("kernel CSV holds a non-finite value")
    if not 0 < beta < 1:
        raise ValueError(f"kernel CSV needs 0 < beta < 1, has {beta}")
    grid = Grid(t[-1], len(rows) - 1)
    if not np.array_equal(t, grid.nodes):
        raise ValueError("kernel CSV t column is not the uniform grid on [0, t_N]")
    kt = _kernel_table(grid, U, V, beta)
    if not (np.array_equal(W, kt.u_cell) and c_fit == kt.c_fit and c_env_U == kt.c_env_U):
        raise ValueError("kernel CSV u_cell, c_fit or c_env_U differ from those of its U column")
    return kt
