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
in the ball around the prefix's terminal value.  :func:`picard_solve` is
the first segment, a continuation from the empty history f(0) = f0;
:func:`continue_solution` extends a solved prefix, and
:func:`solve_to_horizon` chains segments to the end of the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .errors import ConfinementError, HorizonError, NonconvergenceError
from .grids import Grid, GridFunction
from .kernels import KernelTable, _conv_prefix, _resolvent_solve

__all__ = [
    "IvpProblem",
    "PicardState",
    "HorizonSelection",
    "select_horizon",
    "pick_bielecki_tau",
    "picard_solve",
    "continue_solution",
    "solve_to_horizon",
    "verify_holder",
    "HolderReport",
    "neumann_affine_solve",
    "estimate_lipschitz",
]


@dataclass
class IvpProblem:
    """Right-hand side with local bound/Lipschitz metadata.

    ``bound_c(R)`` bounds |F(t, x)| over |x| <= R, ``lip_l(R)`` bounds the
    state-Lipschitz constant there; both must be nondecreasing in R.
    ``rhs`` maps a batch (times (m,), states (m, d)) to an (m, d) array.
    """

    rhs: Callable
    f0: np.ndarray
    horizon: float
    dim: int
    bound_c: Callable[[float], float]
    lip_l: Callable[[float], float]
    label: str = ""

    def __post_init__(self):
        self.f0 = np.atleast_1d(np.asarray(self.f0, dtype=float))
        if self.f0.shape != (self.dim,):
            raise ValueError(f"f0 must have shape ({self.dim},), got {self.f0.shape}")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")

    def eval_rhs(self, ts: np.ndarray, ys: np.ndarray) -> np.ndarray:
        out = np.asarray(self.rhs(ts, ys), dtype=float)
        if out.shape != ys.shape:
            raise ValueError(f"rhs returned shape {out.shape}, expected {ys.shape}")
        return out


@dataclass
class PicardState:
    """Diagnostics of one Picard run (possibly one continuation segment)."""

    iterate: GridFunction
    iteration_count: int
    bielecki_tau: float
    successive_norms: List[float]
    contraction_ratio_estimates: List[float]
    residual_sup: float
    horizon_index: int
    t_prime: float
    r_tilde: float


@dataclass(frozen=True)
class HorizonSelection:
    t_prime: float
    index: int
    r_tilde: float


def _horizon_index(bound_c, radius: float, U: np.ndarray, R: float) -> int:
    """The largest node index m with c * U[m] < R, c = bound_c(radius).

    U is nondecreasing, so the admissible nodes form a prefix and every
    node up to m satisfies the inequality as well.
    """
    if not R > 0:
        raise ValueError("R must be positive")
    c = float(bound_c(radius))
    if c < 0:
        raise ValueError("bound_c must be nonnegative")
    ok = c * U < R
    m = len(U) - 1 if ok.all() else int(np.argmin(ok)) - 1
    if m < 1:
        raise HorizonError(
            f"no grid node satisfies bound_c*U < R (c={c:g}, R={R:g}); "
            "refine the grid or enlarge R"
        )
    return m


def select_horizon(problem: IvpProblem, kt: KernelTable, R: float) -> HorizonSelection:
    """Largest grid-aligned T' <= T with bound_c(R + |f0|) * U(T') < R."""
    r_tilde = R + float(np.linalg.norm(problem.f0))
    m = _horizon_index(problem.bound_c, r_tilde, kt.U_node, R)
    return HorizonSelection(float(kt.grid.nodes[m]), m, r_tilde)


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
    if L < 0 or not t_prime > 0:
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


def _initial_values(problem: IvpProblem, m: int, initial, R: float) -> np.ndarray:
    if initial is None:
        return np.tile(problem.f0, (m + 1, 1))
    init = np.atleast_1d(np.asarray(initial, dtype=float))
    if init.shape == (problem.dim,):
        if np.linalg.norm(init - problem.f0) > R * (1 + 1e-12):
            raise ValueError("initial iterate must start inside B_R(f0)")
        return np.tile(init, (m + 1, 1))
    if init.shape == (m + 1, problem.dim):
        return init.copy()
    raise ValueError(
        f"initial must be a d-vector or an array of shape ({m + 1}, {problem.dim})"
    )


def _solve_segment(
    problem: IvpProblem,
    kt: KernelTable,
    prior: np.ndarray,
    m: int,
    R: float,
    tol: float,
    max_iter: int,
    start: np.ndarray,
):
    """Picard sweeps on cells mp+1..m against a frozen history.

    ``prior`` holds the solved values at nodes 0..mp; the first segment is
    the case mp = 0 with ``prior = [f0]``.  The memory integral over the
    solved cells is evaluated once and held fixed, and the iterate, started
    from ``start`` (values at nodes mp..m), stays in the ball of radius R
    around f(t_mp).  Returns (solution on nodes 0..m, state).
    """
    if not R > 0:
        raise ValueError("R must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    mp = len(prior) - 1
    k = m - mp
    h = kt.grid.step
    nodes = kt.grid.nodes
    centre = prior[-1]
    r_tilde = R + float(np.linalg.norm(centre))
    L = float(problem.lip_l(r_tilde))

    base = problem.f0
    if mp > 0:
        g = problem.eval_rhs(nodes[:mp] + 0.5 * h, 0.5 * (prior[:-1] + prior[1:]))
        base = problem.f0 + _conv_prefix(kt.u_cell, g, mp, m)

    ts = nodes[mp:m] + 0.5 * h
    W = kt.u_cell[:k]

    def sweep(f):
        out = np.empty_like(f)
        out[0] = centre
        out[1:] = base + _conv_prefix(W, problem.eval_rhs(ts, 0.5 * (f[:-1] + f[1:])))
        return out

    tau = pick_bielecki_tau(kt, L, float(nodes[m] - nodes[mp]))
    weights = np.exp(-tau * (nodes[mp : m + 1] - nodes[mp]))
    # sup-norm gain of one sweep; the exit threshold below guarantees the
    # returned iterate's fixed-point residual stays under tol in sup norm
    sup_goal = tol / (1.0 + L * float(kt.U_node[k]))
    f = start
    norms: List[float] = []
    ratios: List[float] = []
    for it in range(1, max_iter + 1):
        new = sweep(f)
        drift = np.linalg.norm(new - centre, axis=1)
        if float(drift.max()) > R * (1 + 1e-9):
            raise ConfinementError(
                f"iterate left the ball of radius R={R:g} around f(t_{mp}) at "
                f"iteration {it} (max drift {drift.max():.6g}); reselect R or T'"
            )
        step = np.linalg.norm(new - f, axis=1)
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

    residual = float(np.linalg.norm(sweep(f) - f, axis=1).max())
    sol = GridFunction(kt.grid.prefix(m), np.concatenate((prior[:-1], f)))
    state = PicardState(
        iterate=sol,
        iteration_count=it,
        bielecki_tau=tau,
        successive_norms=norms,
        contraction_ratio_estimates=ratios,
        residual_sup=residual,
        horizon_index=m,
        t_prime=float(nodes[m]),
        r_tilde=r_tilde,
    )
    return sol, state


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
    integration of the memory kernel.
    """
    if horizon_index is None:
        m = select_horizon(problem, kt, R).index
    else:
        m = int(horizon_index)
        if not 1 <= m <= kt.grid.cells:
            raise ValueError(f"horizon_index must lie in 1..{kt.grid.cells}")
    start = _initial_values(problem, m, initial, R)
    return _solve_segment(problem, kt, problem.f0[None, :], m, R, tol, max_iter, start)


def continue_solution(
    problem: IvpProblem,
    kt: KernelTable,
    prior: GridFunction,
    R: float,
    tol: float = 1e-10,
    max_iter: int = 200,
    extend_index: Optional[int] = None,
):
    """Extend a converged solution past its horizon.

    The memory term over the solved segment is re-evaluated once from the
    prior values and then held fixed while the new cells iterate; the
    restart ball is centered at the terminal value of the prior segment.
    Without ``extend_index`` the new segment is as long as the horizon rule
    of :func:`select_horizon` allows from that centre.
    """
    if abs(prior.grid.step - kt.grid.step) > 1e-12 * kt.grid.step:
        raise ValueError("prior solution lives on a different step size")
    mp = prior.grid.cells
    n = kt.grid.cells
    if mp >= n:
        raise ValueError("prior already covers the full grid")
    if prior.dim != problem.dim:
        raise ValueError("dimension mismatch between prior and problem")
    f_end = prior.values[-1]
    if extend_index is None:
        r_tilde = R + float(np.linalg.norm(f_end))
        m = mp + min(_horizon_index(problem.bound_c, r_tilde, kt.U_node, R), n - mp)
    else:
        m = int(extend_index)
        if not mp < m <= n:
            raise ValueError(f"extend_index must lie in {mp + 1}..{n}")
    start = np.tile(f_end, (m - mp + 1, 1))
    return _solve_segment(problem, kt, prior.values, m, R, tol, max_iter, start)


def solve_to_horizon(
    problem: IvpProblem,
    kt: KernelTable,
    R: float,
    tol: float = 1e-10,
    max_iter: int = 200,
):
    """March to the end of the grid by chained restarts; returns
    (solution, list of per-segment states)."""
    sol, state = picard_solve(problem, kt, R, tol=tol, max_iter=max_iter)
    states = [state]
    while sol.grid.cells < kt.grid.cells:
        sol, state = continue_solution(problem, kt, sol, R, tol=tol, max_iter=max_iter)
        states.append(state)
    return sol, states


@dataclass
class HolderReport:
    l_est: float
    argmax_pair: tuple
    beta: float


def verify_holder(f: GridFunction, beta: float):
    """Largest ratio |f(t_i) - f(t_j)| / |t_i - t_j|^beta over node pairs.

    Stable under refinement for genuinely beta-Holder functions; a growing
    estimate under grid refinement indicates lower regularity.
    """
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0,1)")
    vals = f.values
    n = f.grid.cells
    h = f.grid.step
    best = 0.0
    best_pair = (0, 0)
    for lag in range(1, n + 1):
        diff = np.linalg.norm(vals[lag:] - vals[:-lag], axis=1)
        i = int(np.argmax(diff))
        ratio = float(diff[i]) / (lag * h) ** beta
        if ratio > best:
            best = ratio
            best_pair = (i, i + lag)
    return best, HolderReport(l_est=best, argmax_pair=best_pair, beta=beta)


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


def estimate_lipschitz(rhs: Callable, dim: int, R: float, horizon: float) -> float:
    """Heuristic state-Lipschitz estimate by 256 sampled difference
    quotients from a fixed seed.

    This is a sampling lower bound, not a certified constant: pad it
    before feeding solver metadata.
    """
    rng = np.random.default_rng(0)
    best = 0.0
    for _ in range(256):
        t = float(rng.uniform(0.0, horizon))
        x = rng.uniform(-R, R, size=dim)
        y = x + rng.normal(scale=1e-4 * max(R, 1.0), size=dim)
        dx = float(np.linalg.norm(x - y))
        if dx == 0.0:
            continue
        q = float(np.linalg.norm(np.asarray(rhs(t, x)) - np.asarray(rhs(t, y)))) / dx
        best = max(best, q)
    return best
