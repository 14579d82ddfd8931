"""Monte Carlo layer: subordinator paths and inverse-passage estimates.

Paths of the driving subordinator are built from i.i.d. increments on an
operational-time grid of step dt; the inverse process L(t) is read off by
first passage, which biases L upward by at most one dt.  Estimates of
U(t) = E[L(t)], the moments E[L^k(t)]/k!, and the eigenfunction
e(t; lam) = E[exp(lam L(t))] provide a route independent of both the
series and the Laplace machinery.

Reproducibility: every path owns a counter-based stream keyed by
(seed, path index), and reductions use numpy's fixed pairwise order, so
results are bit-identical for a given seed regardless of call order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bernstein import BernsteinFunction
from .errors import ConditioningWarning, NumericalError, PathExhaustedError

__all__ = [
    "McConfig",
    "McEstimate",
    "sample_stable_increment",
    "sample_tempered_increment",
    "inverse_passage",
    "sample_inverse_values",
    "estimate_phi_exp_mc",
    "estimate_moments",
    "estimate_potential_mc",
    "laplace_exponent_check",
    "tail_bound_check",
]

_MAX_STEPS_PER_PATH = 5_000_000


@dataclass(frozen=True)
class McConfig:
    phi: BernsteinFunction
    n_paths: int = 10_000
    dt: float = 1e-3
    t_max: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.phi.kind not in ("stable", "tempered"):
            raise ValueError("samplers exist for stable and tempered kinds only")
        if self.n_paths < 100:
            raise ValueError("need at least 100 paths")
        if not 0 < self.dt <= self.t_max / 100.0:
            raise ValueError("dt must satisfy 0 < dt <= t_max/100")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    n_effective: int


def _path_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def sample_stable_increment(alpha: float, dt: float, rng: np.random.Generator, size=None):
    """Increments of the stable subordinator over operational time dt.

    Standard two-uniform representation of the positive stable law with
    E[exp(-lam X)] = exp(-dt lam^alpha), scaled by dt^(1/alpha).
    """
    shape = (size,) if isinstance(size, int) else size
    u = rng.random(shape) * math.pi
    w = rng.random(shape)
    e = -np.log(np.where(w > 0, w, np.finfo(float).tiny))
    frac = (1.0 - alpha) / alpha
    amp = (
        np.sin((1.0 - alpha) * u)
        * np.sin(alpha * u) ** (alpha / (1.0 - alpha))
        / np.sin(u) ** (1.0 / (1.0 - alpha))
    )
    out = dt ** (1.0 / alpha) * (amp / e) ** frac
    return float(out) if size is None else out


def sample_tempered_increment(
    alpha: float, theta: float, dt: float, rng: np.random.Generator, size=None
):
    """Tempered-stable increments by exponential-tilting rejection.

    Stable proposals are accepted with probability exp(-theta X); the
    expected acceptance rate is exp(-dt theta^alpha) and the draw order is
    preserved, keeping per-path streams reproducible.
    """
    rate = math.exp(-dt * theta ** alpha)
    if rate < 1e-3:
        raise ValueError(
            f"tilting acceptance rate {rate:.2e} < 1e-3; decrease dt (or theta)"
        )
    n = 1 if size is None else int(size)
    out = np.empty(n)
    filled = 0
    while filled < n:
        batch = max(16, int((n - filled) / rate * 1.2) + 8)
        x = sample_stable_increment(alpha, dt, rng, size=batch)
        accept = rng.random(batch) < np.exp(-theta * x)
        got = x[accept]
        take = min(n - filled, got.shape[0])
        out[filled : filled + take] = got[:take]
        filled += take
    return float(out[0]) if size is None else out


def _draw_increments(cfg: McConfig, rng: np.random.Generator, size):
    """Increments of ``cfg.phi``'s subordinator over steps cfg.dt: an array
    of ``size`` draws, or one float when ``size`` is None."""
    if cfg.phi.kind == "stable":
        return sample_stable_increment(cfg.phi.alpha, cfg.dt, rng, size=size)
    return sample_tempered_increment(cfg.phi.alpha, cfg.phi.theta, cfg.dt, rng, size=size)


def inverse_passage(increments: np.ndarray, t, dt: float):
    """First operational time y (a multiple of dt) with sigma(y) > t, for
    one level t or an array of levels in any order.

    ``increments`` is one path's increment sequence; the discrete passage
    time overestimates the continuum one by at most dt.
    """
    cum = np.cumsum(np.asarray(increments, dtype=float))
    j = np.searchsorted(cum, t, side="right")
    if np.any(j >= cum.shape[0]):
        raise PathExhaustedError(
            f"path (length {cum.shape[0]}) never exceeded level t={np.max(t)}; extend it"
        )
    return (j + 1) * dt


def sample_inverse_values(cfg: McConfig, t_targets: Sequence[float]) -> np.ndarray:
    """L(t) for every path and every target level; shape (n_paths, n_targets).

    Paths are extended blockwise until they pass the largest target, up to
    a hard cap on the operational steps.
    """
    targets = np.asarray(t_targets, dtype=float)
    if targets.size == 0:
        raise ValueError("need at least one target time")
    bad = targets[~((targets >= 0) & (targets <= cfg.t_max))]
    if bad.size:
        raise ValueError(f"target {bad[0]} does not lie in [0, t_max={cfg.t_max}]")
    t_top = float(targets.max())
    out = np.empty((cfg.n_paths, targets.size))
    for i in range(cfg.n_paths):
        rng = _path_rng(cfg.seed, i)
        chunks = []
        total = 0.0
        steps = 0
        block = 2048
        while total <= t_top:
            if steps >= _MAX_STEPS_PER_PATH:
                raise PathExhaustedError(
                    f"path {i} exceeded {_MAX_STEPS_PER_PATH} steps before passage"
                )
            inc = _draw_increments(cfg, rng, block)
            chunks.append(inc)
            total += float(inc.sum())
            steps += block
            block = min(2 * block, 65536)
        out[i] = inverse_passage(np.concatenate(chunks), targets, cfg.dt)
    return out


def _mean_se(values: np.ndarray) -> McEstimate:
    n = values.shape[0]
    mean = float(np.mean(values))
    sd = float(np.std(values, ddof=1)) if n > 1 else 0.0
    return McEstimate(value=mean, std_error=sd / math.sqrt(n), n_effective=n)


def _exp_samples(cfg: McConfig, lam: float, t_targets: Sequence[float]) -> np.ndarray:
    """exp(lam * L(t)), one row per path and one column per target.  A
    non-finite lam raises ``ValueError`` before any path is drawn; an
    overflow raises :class:`NumericalError`."""
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    L = sample_inverse_values(cfg, t_targets)
    with np.errstate(over="ignore"):  # reported below
        vals = np.exp(lam * L)
    if not np.all(np.isfinite(vals)):
        raise NumericalError(
            f"exp(lam*L) overflowed (lam={lam}); horizon too long for this sampler"
        )
    return vals


def estimate_phi_exp_mc(cfg: McConfig, lam: float, t: float) -> McEstimate:
    """Sample mean of exp(lam * L(t)) with its standard error.

    For lam > 0 the summand is heavy-tailed; a warning fires when the top
    1% of the samples carries more than half of the estimate.  A lam so
    large that exp(lam * L) overflows raises :class:`NumericalError`.
    """
    vals = _exp_samples(cfg, lam, [t])[:, 0]
    if lam > 0:
        k = max(1, vals.shape[0] // 100)
        top = float(np.sort(vals)[-k:].sum())
        if top > 0.5 * float(vals.sum()):
            warnings.warn(
                f"top 1% of samples carries {top / float(vals.sum()):.0%} of the "
                "estimate; variance is heavy-tailed, increase n_paths",
                ConditioningWarning,
                stacklevel=2,
            )
    return _mean_se(vals)


def estimate_moments(cfg: McConfig, t: float, k_max: int) -> list:
    """McEstimate of E[L^k(t)] / k! for k = 0..k_max (k_max <= 6)."""
    if not 0 <= k_max <= 6:
        raise ValueError("k_max must lie in 0..6 (variance grows with k)")
    L = sample_inverse_values(cfg, [t])[:, 0]
    out = [McEstimate(value=1.0, std_error=0.0, n_effective=cfg.n_paths)]
    for k in range(1, k_max + 1):
        est = _mean_se(L ** k)
        fact = math.factorial(k)
        out.append(
            McEstimate(
                value=est.value / fact,
                std_error=est.std_error / fact,
                n_effective=est.n_effective,
            )
        )
    return out


def estimate_potential_mc(cfg: McConfig, t: float) -> McEstimate:
    """U(t) = E[L(t)] by first passage."""
    return estimate_moments(cfg, t, 1)[1]


def laplace_exponent_check(cfg: McConfig, lambdas: Sequence[float]) -> list:
    """Empirical E[exp(-lam sigma(dt))] against exp(-dt phi(lam)).

    One increment per path (the first of its stream); rows are dicts with
    the empirical mean m, its standard error and the analytic target.  The
    samples lie in [0, 1], so their variance is at most m (1 - m); the
    standard error is that bound, sqrt(m (1 - m) / n), because a few rare
    large increments dominate the sample's own spread and make it
    understate the error.  A negative lam takes the samples out of [0, 1]
    (and phi(lam) off the real axis), so it is refused.
    """
    if any(not lam >= 0 for lam in lambdas):
        raise ValueError(f"laplace_exponent_check needs lam >= 0, got {list(lambdas)}")
    inc = np.array(
        [_draw_increments(cfg, _path_rng(cfg.seed, i), None) for i in range(cfg.n_paths)]
    )
    rows = []
    for lam in lambdas:
        m = float(np.mean(np.exp(-lam * inc)))
        rows.append(
            {
                "lam": float(lam),
                "empirical": m,
                "std_error": math.sqrt(max(m * (1.0 - m), 0.0) / cfg.n_paths),
                "target": math.exp(-cfg.dt * float(cfg.phi.phi(lam))),
            }
        )
    return rows


def tail_bound_check(cfg: McConfig, t: float, s_values: Sequence[float], x: float) -> list:
    """Empirical P(L(t) > s) against the exponential bound exp(x t - s phi(x))."""
    if not x > 0:
        raise ValueError("the bound needs x > 0")
    L = sample_inverse_values(cfg, [t])[:, 0]
    phix = float(cfg.phi.phi(x))
    rows = []
    for s in s_values:
        p = float(np.mean(L > s))
        se = math.sqrt(max(p * (1.0 - p), 1.0 / cfg.n_paths) / cfg.n_paths)
        rows.append(
            {
                "s": float(s),
                "empirical": p,
                "std_error": se,
                "bound": math.exp(x * t - float(s) * phix),
            }
        )
    return rows
