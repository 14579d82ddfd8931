"""Picard solver for memory-derivative Cauchy problems.

The initial-value problem D f = F(t, f), f(0) = f0 is recast as the
fixed-point equation f = f0 + I[F(., f)] and solved by Picard sweeps on
the grid, monitored in an exponentially weighted (Bielecki) norm chosen
so the iteration map is provably a 1/2-contraction.  The admissible
horizon T' is the largest grid node with C_Rtilde * U(T') < R, which
confines every iterate to the ball B_R(f0); leaving that ball aborts the
run rather than projecting back, since it signals a misconfigured (R, T').

One segment routine does all the sweeping.  It iterates the cells after
a solved prefix while the memory integral over that prefix stays frozen,
in the ball around the prefix's terminal value, and returns the values on
its own nodes only.  :func:`picard_solve` is the first segment, a
continuation from the empty history f(0) = f0; :func:`continue_solution`
extends a solved prefix, and :func:`solve_to_horizon` chains segments to
the end of the grid in one values array, so a segment costs its history
window and its sweeps and never copies or re-checks the solved prefix.
Every continuation ends where the horizon rule puts it, found by bisection
on U, and a solution on the first m cells lives on the table's own nodes
t_0..t_m.  A sweep of a segment of at most ``_BLOCK`` cells sums its own
history as one product with the lower-triangular Toeplitz block of the
kernel, built once per march, so short segments cost their arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import ConfinementError, HolderError, HorizonError, NonconvergenceError
from .grids import Grid, GridFunction
from .kernels import _BLOCK, KernelTable, _conv_prefix, _lower_toeplitz, _resolvent_solve
from .problems import IvpProblem

__all__ = [
    "PicardState",
    "select_horizon",
    "pick_bielecki_tau",
    "picard_solve",
    "continue_solution",
    "solve_to_horizon",
    "verify_holder",
    "neumann_affine_solve",
]


@dataclass
class PicardState:
    """Diagnostics of one Picard run (possibly one continuation segment)."""

    iteration_count: int
    bielecki_tau: float
    successive_norms: List[float]
    contraction_ratio_estimates: List[float]
    residual_sup: float
    horizon_index: int
    t_prime: float
    r_tilde: float


def _horizon_index(bound_c, radius: float, U: np.ndarray, R: float) -> int:
    """The largest node index m with c * U[m] < R, c = bound_c(radius).

    U is nondecreasing and rounded multiplication is monotone, so the
    admissible nodes form a prefix: every node up to m satisfies the
    inequality as well, and m is found by bisection on the exact test.
    """
    if not 0 < R < np.inf:
        raise ValueError(f"R must be positive and finite, got {R}")
    c = float(bound_c(radius))
    if not c >= 0:
        raise ValueError(f"bound_c must be nonnegative, got {c} at radius {radius:g}")
    lo, hi = -1, len(U)  # the test holds at lo and fails at hi, or they lie off the ends
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if c * U.item(mid) < R:
            lo = mid
        else:
            hi = mid
    if lo < 1:
        raise HorizonError(
            f"no grid node satisfies bound_c*U < R (c={c:g}, R={R:g}); "
            "refine the grid or enlarge R"
        )
    return lo


def select_horizon(problem: IvpProblem, kt: KernelTable, R: float) -> int:
    """Index m of the largest node T' = t_m <= T with c_bound(R + |f0|) * U(T') < R."""
    return _segment_end(problem, kt, 0, R, R + float(np.linalg.norm(problem.f0)))


def _segment_end(problem: IvpProblem, kt: KernelTable, mp: int, R: float, r_tilde: float) -> int:
    """Last node of the segment that starts at node mp in the ball of radius R
    around a value of norm r_tilde - R: as many cells as the horizon rule
    allows for the radius r_tilde, read over the cells left."""
    left = kt.U_node[: kt.grid.cells - mp + 1]
    return mp + _horizon_index(problem.spec.c_bound, r_tilde, left, R)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis of a real array: the arithmetic
    of ``np.linalg.norm(x, axis=-1)`` without its per-call dispatch."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _bielecki_constants(kt: KernelTable, L: float, t_prime: float):
    """(p', d) with the iteration map's Lipschitz constant in the
    tau-weighted sup norm bounded by d * (p' tau)^(-1/p').

    Here p = (2 - beta) / (2 (1 - beta)), p' its conjugate exponent,
    q = p (beta - 1) + 1 and d = c_fit * L * q^(-1/p) * T'^(q/p).
    """
    beta = kt.beta
    p = (2.0 - beta) / (2.0 * (1.0 - beta))
    p_conj = p / (p - 1.0)
    q = p * (beta - 1.0) + 1.0
    return p_conj, kt.c_fit * L * q ** (-1.0 / p) * t_prime ** (q / p)


def pick_bielecki_tau(kt: KernelTable, L: float, t_prime: float) -> float:
    """Smallest weight tau making the contraction estimate
    d * (p' tau)^(-1/p') of :func:`_bielecki_constants` equal to 1/2."""
    if not (L >= 0 and t_prime > 0):
        raise ValueError("need L >= 0 and t_prime > 0")
    if L == 0.0:
        return 0.0
    p_conj, d = _bielecki_constants(kt, L, t_prime)
    return (2.0 * d) ** p_conj / p_conj


def _theoretical_contraction(kt: KernelTable, L: float, t_prime: float, tau: float) -> float:
    if L == 0.0:
        return 0.0
    p_conj, d = _bielecki_constants(kt, L, t_prime)
    return d * (p_conj * tau) ** (-1.0 / p_conj)


def _solve_segment(
    problem: IvpProblem,
    kt: KernelTable,
    prior: np.ndarray,
    R: float,
    tol: float,
    max_iter: int,
    T: np.ndarray,
    m: Optional[int] = None,
    start: Optional[np.ndarray] = None,
):
    """Picard sweeps on cells mp+1..m against a frozen history.

    ``prior`` holds the solved values at nodes 0..mp; the first segment is
    the case mp = 0 with ``prior = [f0]``.  The segment ends at node m, by
    default where the horizon rule puts it for the ball of radius R around
    f(t_mp).  The memory integral over the solved cells is evaluated once
    and held fixed, and the iterate, started from the constant value
    ``start`` (by default f(t_mp)), stays in that ball.

    ``T`` is the lower-triangular Toeplitz matrix of the table's first
    ``_BLOCK`` cell masses, built once by the caller: a segment of k cells,
    k at most that many, sums its own history as the product T[:k, :k] @ g,
    which holds the products of :func:`_conv_prefix` and exact zeros, summed
    in another order.  A longer segment calls :func:`_conv_prefix`.
    Returns (values at nodes mp..m, state); the value at node mp is
    ``prior[-1]``.
    """
    if not 0 < R < np.inf:
        raise ValueError(f"R must be positive and finite, got {R}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if problem.horizon != kt.grid.horizon:
        raise ValueError(
            f"problem horizon {problem.horizon:g} differs from the kernel table's "
            f"grid horizon {kt.grid.horizon:g}"
        )
    mp = len(prior) - 1
    h = kt.grid.step
    nodes = kt.grid.nodes
    centre = prior[-1]
    r_tilde = R + float(np.linalg.norm(centre))
    if m is None:
        m = _segment_end(problem, kt, mp, R, r_tilde)
    k = m - mp
    L = float(problem.spec.lip_l(r_tilde))
    if not L >= 0:
        raise ValueError(f"lip_l must be nonnegative, got {L} at radius {r_tilde:g}")

    base = problem.f0
    if mp > 0:
        g = problem.eval_rhs(nodes[:mp] + 0.5 * h, 0.5 * (prior[:-1] + prior[1:]))
        base = problem.f0 + _conv_prefix(kt.u_cell, g, mp, m)

    ts = nodes[mp:m] + 0.5 * h
    local = T[:k, :k] if k <= len(T) else None
    mid = np.empty((k, len(centre)))

    def sweep(f):
        np.add(f[:-1], f[1:], out=mid)
        np.multiply(mid, 0.5, out=mid)
        g = problem.eval_rhs(ts, mid)
        out = np.empty_like(f)
        out[0] = centre
        if local is None:
            out[1:] = base + _conv_prefix(kt.u_cell[:k], g)
        else:
            np.matmul(local, g, out=out[1:])
            out[1:] += base
        return out

    tau = pick_bielecki_tau(kt, L, float(nodes[m] - nodes[mp]))
    weights = np.exp(-tau * (nodes[mp : m + 1] - nodes[mp]))
    # sup-norm gain of one sweep; the exit threshold below guarantees the
    # returned iterate's fixed-point residual stays under tol in sup norm
    sup_goal = tol / (1.0 + L * float(kt.U_node[k]))
    reach = R * (1 + 1e-9)
    f = np.empty((k + 1, len(centre)))
    f[:] = centre if start is None else start
    norms: List[float] = []
    ratios: List[float] = []
    for it in range(1, max_iter + 1):
        new = sweep(f)
        # the largest row norm, as one sqrt of the largest squared norm
        away = new - centre
        drift = float(np.sqrt(np.add.reduce(away * away, axis=-1).max()))
        if drift > reach:
            raise ConfinementError(
                f"iterate left the ball of radius R={R:g} around f(t_{mp}) at "
                f"iteration {it} (max drift {drift:.6g}); reselect R or T'"
            )
        step = _row_norms(new - f)
        dn = float((step * weights).max())
        norms.append(dn)
        if len(norms) >= 2 and norms[-2] > 0:
            ratios.append(norms[-1] / norms[-2])
        f = new
        if dn < tol and float(step.max()) <= sup_goal:
            break
    else:
        raise NonconvergenceError(
            f"no convergence on cells {mp + 1}..{m} within {max_iter} iterations "
            f"(last step {norms[-1]:.3e}, ratio history {ratios[-3:]})",
            history=norms,
        )

    residual = float(_row_norms(sweep(f) - f).max())
    state = PicardState(
        iteration_count=it,
        bielecki_tau=tau,
        successive_norms=norms,
        contraction_ratio_estimates=ratios,
        residual_sup=residual,
        horizon_index=m,
        t_prime=float(nodes[m]),
        r_tilde=r_tilde,
    )
    return f, state


def picard_solve(
    problem: IvpProblem,
    kt: KernelTable,
    R: float,
    tol: float = 1e-10,
    max_iter: int = 200,
    initial=None,
    horizon_index: Optional[int] = None,
):
    """Solve on [0, T'] by Picard iteration; returns (solution, state).

    The first segment: :func:`_solve_segment` from the empty history, on
    the horizon of :func:`select_horizon` unless ``horizon_index`` forces
    one.  The right-hand side is evaluated at cell midpoints on linearly
    interpolated iterate values, matching the trapezoid product
    integration of the memory kernel.  ``initial``, a d-vector in B_R(f0),
    replaces f0 as the constant starting iterate.
    """
    m = None
    if horizon_index is not None:
        m = int(horizon_index)
        if not 1 <= m <= kt.grid.cells:
            raise ValueError(f"horizon_index must lie in 1..{kt.grid.cells}")
    start = None
    if initial is not None:
        start = np.atleast_1d(np.asarray(initial, dtype=float))
        if start.shape != (problem.spec.dim,):
            raise ValueError(f"initial must be a vector of length {problem.spec.dim}")
        if np.linalg.norm(start - problem.f0) > R * (1 + 1e-12):
            raise ValueError("initial iterate must start inside B_R(f0)")
    T = _lower_toeplitz(kt.u_cell[:_BLOCK])
    f, state = _solve_segment(problem, kt, problem.f0[None, :], R, tol, max_iter, T, m, start)
    m = state.horizon_index
    return GridFunction(Grid(kt.grid.nodes[m], m), f), state


def continue_solution(
    problem: IvpProblem,
    kt: KernelTable,
    prior: GridFunction,
    R: float,
    tol: float = 1e-10,
    max_iter: int = 200,
):
    """Extend a converged solution past its horizon.

    The memory term over the solved segment is re-evaluated once from the
    prior values and then held fixed while the new cells iterate; the
    restart ball is centered at the terminal value of the prior segment.
    The new segment is as long as the horizon rule of :func:`select_horizon`
    allows from that centre, up to the end of the grid.
    """
    if abs(prior.grid.step - kt.grid.step) > 1e-12 * kt.grid.step:
        raise ValueError("prior solution lives on a different step size")
    if prior.grid.cells >= kt.grid.cells:
        raise ValueError("prior already covers the full grid")
    if prior.dim != problem.spec.dim:
        raise ValueError("dimension mismatch between prior and problem")
    T = _lower_toeplitz(kt.u_cell[:_BLOCK])
    f, state = _solve_segment(problem, kt, prior.values, R, tol, max_iter, T)
    m = state.horizon_index
    return GridFunction(Grid(kt.grid.nodes[m], m), np.concatenate((prior.values[:-1], f))), state


def solve_to_horizon(
    problem: IvpProblem,
    kt: KernelTable,
    R: float,
    tol: float = 1e-10,
    max_iter: int = 200,
):
    """March to the end of the grid by chained restarts; returns
    (solution, list of per-segment states).

    The same segments as :func:`picard_solve` followed by repeated
    :func:`continue_solution`, with the same values and states.  Each
    segment writes its nodes into one values array and reads the solved
    prefix as a view of it, so a segment costs its history window and its
    sweeps; the in-segment history operator is built once for the march,
    and the solution is checked once and wrapped on the table's grid.
    """
    n = kt.grid.cells
    T = _lower_toeplitz(kt.u_cell[:_BLOCK])
    values = np.empty((n + 1, problem.spec.dim))
    prior = problem.f0[None, :]
    states = []
    mp = 0
    while mp < n:
        f, state = _solve_segment(problem, kt, prior, R, tol, max_iter, T)
        m = state.horizon_index
        values[mp : m + 1] = f
        states.append(state)
        prior = values[: m + 1]
        mp = m
    return GridFunction(kt.grid, values), states


_HOLDER_BLOCK = 64  # nodes per block and lags per group of the Holder scan
_HOLDER_SLAB = 1 << 15  # floats in one slab of node differences


def verify_holder(f: GridFunction, beta: float):
    """Largest ratio |f(t_i) - f(t_j)| / |t_i - t_j|^beta over node pairs,
    returned with the pair (i, j) that attains it.

    Stable under refinement for genuinely beta-Holder functions; a growing
    estimate under grid refinement indicates lower regularity.  Ties go to
    the smallest lag j - i, then to the smallest i.  Raises HolderError
    when the ratio is not finite (a difference overflows when squared).

    The scan skips the pairs that cannot win.  The nodes fall into blocks
    of 64 and the lags into groups [64q, 64q + 64), so for a node in block P
    and a lag of group q the partner node lies in block P + q or P + q + 1.
    The norm of the componentwise span between those blocks' min and max,
    divided by the smallest (lag h)^beta of the group, bounds every ratio
    the block can give there.  Rounding is monotone, so the bound holds
    for the computed ratios, and a block whose bound is strictly below the
    running best is skipped for the whole group: it can neither raise the
    best nor hold the first argmax of a lag that does.  The answer is the
    full scan's, bit for bit.  The rows left in a group are read as strided
    slabs of differences, a batch of lags each, with at most 2^15 floats or
    one lag's differences, whichever is more, so the memory stays that of
    the one-lag-at-a-time scan.
    """
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0,1)")
    vals = np.ascontiguousarray(f.values)  # bounds and differences sum alike
    nodes, d = vals.shape
    h = f.grid.step
    b = _HOLDER_BLOCK
    # the ratio's own divisors, lag = 1..N: pow is not assumed monotone
    pows = np.array([(lag * h) ** beta for lag in range(1, nodes)])
    starts = np.arange(0, nodes, b)
    lo_b, hi_b = np.minimum.reduceat(vals, starts), np.maximum.reduceat(vals, starts)
    nb = len(starts)

    def pair_norms(k):
        """Bound on |v_j - v_i| for i in block P and j in block P + k."""
        up = np.abs(hi_b[k:] - lo_b[: nb - k])
        down = np.abs(hi_b[: nb - k] - lo_b[k:])
        return _row_norms(np.maximum(up, down))

    best = 0.0
    best_pair = (0, 0)
    with np.errstate(over="ignore"):
        near = pair_norms(0)
        for q in range(nb):
            first, last = max(q * b, 1), min(q * b + b, nodes) - 1  # the group's lags
            far = pair_norms(q + 1)  # the last block has no block P + q + 1
            bound = np.maximum(near, np.append(far, 0.0))
            near = far
            live = np.flatnonzero(bound / pows[first - 1 : last].min() >= best)
            if not len(live):
                continue
            lo, hi = int(live[0]) * b, min(int(live[-1]) * b + b, nodes)
            # slabs (lags a..z-1, rows lo..top-1): batches of the lags whose
            # rows [lo, hi) all have partners, then one lag at a time
            cut = min(last, nodes - hi)
            batch = max(1, _HOLDER_SLAB // max(1, (hi - lo) * d))  # d = 0 reads no floats
            spans = [(a, min(a + batch, cut + 1), hi) for a in range(first, cut + 1, batch)]
            spans += [(lag, lag + 1, nodes - lag) for lag in range(max(first, cut + 1), last + 1)]
            for a, z, top in spans:
                if top <= lo:
                    continue
                slab = np.lib.stride_tricks.as_strided(
                    vals[lo + a :], shape=(z - a, top - lo, d),
                    strides=(vals.strides[0],) + vals.strides, writeable=False,
                )
                diff = _row_norms(slab - vals[lo:top])
                rows = diff.argmax(axis=1)
                ratios = diff[np.arange(z - a), rows] / pows[a - 1 : z - 1]
                k = int(ratios.argmax())
                if ratios[k] > best:
                    best = float(ratios[k])
                    best_pair = (lo + int(rows[k]), lo + int(rows[k]) + a + k)
    if not np.isfinite(best):
        raise HolderError(
            f"Holder ratio overflows at nodes {best_pair}: a difference exceeds the "
            "float range when squared"
        )
    return best, best_pair


def neumann_affine_solve(kt: KernelTable, linmap, xi, f0) -> GridFunction:
    """Grid solution of D f = xi + M f, f(0) = f0, for a d x d matrix M.

    The integral form f = b + I[M f] with b = f0 + U(t) xi is the
    resolvent system whose Neumann series is sum_k K^k b, K g = I[M g];
    one forward march solves it exactly.  Raises NonconvergenceError where
    that series diverges on the grid, rho(M) * W_0 / 2 >= 1.
    """
    f0 = np.atleast_1d(np.asarray(f0, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    d = f0.shape[0]
    M = np.atleast_2d(np.asarray(linmap, dtype=float))
    if M.shape != (d, d) or xi.shape != (d,):
        raise ValueError("linmap must be (d, d) and xi length d")
    with np.errstate(invalid="ignore", over="ignore"):  # the solve refuses a non-finite b
        b = f0[None, :] + kt.U_node[:, None] * xi[None, :]
    return GridFunction(kt.grid, _resolvent_solve(kt.u_cell, b, M))
