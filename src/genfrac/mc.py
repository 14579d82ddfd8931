"""Monte Carlo layer: inverse-subordinator draws and their estimates.

For stable phi the draw is exact: L(t) has the law of (t/S)^alpha with
S ~ S_alpha(1), one S per path.  For tempered phi, paths of the driving
subordinator are built from i.i.d. increments on an operational-time grid
of step dt and L(t) is read off by first passage, which biases L upward
by at most one dt.  Estimates of U(t) = E[L(t)], the moments
E[L^k(t)]/k!, and the eigenfunction e(t; lam) = E[exp(lam L(t))] provide
a route independent of both the series and the Laplace machinery.

Every estimator reads the marginal law of L at one time only.  The
stable columns of one row share their S, so their joint law across
targets is comonotone, not the law of L along a path.

Reproducibility: every path owns a counter-based stream keyed by
(seed, path index), and reductions use numpy's fixed pairwise order, so
results are bit-identical for a given seed regardless of call order.

Tempered rejection evaluates little more than the proposals it keeps: a
batch draws all its uniforms in the fixed order, maps and tests a head sized
to the expected need, and evaluates the rest only when the head falls
short.  The tempered Laplace-exponent check evaluates the first batch of
256 paths at a time.  Neither changes the draw order or a single bit of
what is drawn.

Shared draw: the draw of the last (config, targets) pair is kept, one
draw only, so the estimators of one config read the same draw instead of
redrawing it.  A repeat is bit-identical to a fresh draw, since a miss
runs the same per-path loop.  The kept array is read-only and callers of
:func:`sample_inverse_values` receive a copy, so writing to a returned
array changes no later result.
"""

from __future__ import annotations

import functools
import math
import numbers
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
#: increments per block of a tempered first-passage path
_BLOCK = 2048
#: paths per slab of the tempered Laplace-exponent check
_ROWS = 256
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class McConfig:
    phi: BernsteinFunction
    n_paths: int = 10_000
    dt: float = 1e-3
    t_max: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n_paths", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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


def _path_key(seed: int, i: int) -> np.ndarray:
    """Philox key of path i's stream."""
    return np.array([seed, i], dtype=np.uint64)


def _path_streams(seed: int, n_paths: int):
    """Yield the stream of path i = 0..n_paths-1, each bit-identical to
    ``Generator(Philox(key=[seed, i]))``.

    One Philox is re-keyed per path (key [seed, i], counter 0, an empty
    buffer) instead of building a fresh one, which would first seed itself
    from the OS only to have the key override it.  A yielded generator is
    therefore valid only until the next one is yielded.
    """
    bitgen = np.random.Philox(key=_path_key(seed, 0))
    rng = np.random.Generator(bitgen)
    zeros = np.zeros(4, dtype=np.uint64)
    for i in range(n_paths):
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros, "key": _path_key(seed, i)},
            "buffer": zeros,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def sample_stable_increment(alpha: float, dt: float, rng: np.random.Generator, size=None):
    """Increments of the stable subordinator over operational time dt.

    Standard two-uniform representation of the positive stable law with
    E[exp(-lam X)] = exp(-dt lam^alpha), scaled by dt^(1/alpha).
    """
    shape = (size,) if isinstance(size, int) else size
    out = _stable_map(alpha, dt, rng.random(shape), rng.random(shape))
    return float(out) if size is None else out


def _stable_map(alpha: float, dt: float, u01, w):
    """The stable increments that uniforms u01 (angle) and w (exponential)
    map to, elementwise, for arrays of any shape or for scalars."""
    u = u01 * math.pi
    e = -np.log(np.where(w > 0, w, _TINY))
    frac = (1.0 - alpha) / alpha
    amp = (
        np.sin((1.0 - alpha) * u)
        * np.sin(alpha * u) ** (alpha / (1.0 - alpha))
        / np.sin(u) ** (1.0 / (1.0 - alpha))
    )
    return dt ** (1.0 / alpha) * (amp / e) ** frac


def _tilt_rate(alpha: float, theta: float, dt: float) -> float:
    """Expected acceptance rate of the tilting rejection; below 1e-3 it is
    refused, since nearly every proposal would be thrown away."""
    rate = math.exp(-dt * theta ** alpha)
    if rate < 1e-3:
        raise ValueError(
            f"tilting acceptance rate {rate:.2e} < 1e-3; decrease dt (or theta)"
        )
    return rate


def _tempered_batch(need: int, rate: float) -> int:
    """Proposals one rejection batch draws for ``need`` more increments."""
    return max(16, int(need / rate * 1.2) + 8)


class _Drawn:
    """Stands in for a generator whose ``random`` calls return the given
    arrays in turn, so that ``sample_stable_increment`` maps uniforms that
    were drawn beforehand."""

    def __init__(self, *arrays):
        self._arrays = iter(arrays)

    def random(self, shape):
        return next(self._arrays)


def _stable_proposals(alpha: float, dt: float, u01, w):
    """``_stable_map`` by way of the public ``sample_stable_increment``, so
    that the tempered sampler's proposals still come from the stable one."""
    return sample_stable_increment(alpha, dt, _Drawn(u01, w), u01.shape)


def _accepted(alpha, theta, dt, block: np.ndarray, lo: int, hi: int, stable=_stable_map):
    """Stable proposals lo..hi-1 of the last axis of ``block``, a batch's
    uniforms laid out as [u | w | acceptance], mapped by ``stable``, and the
    mask of those the tilt exp(-theta X) accepts."""
    b = block.shape[-1] // 3
    x = stable(alpha, dt, block[..., lo:hi], block[..., b + lo : b + hi])
    return x, block[..., 2 * b + lo : 2 * b + hi] < np.exp(-theta * x)


def sample_tempered_increment(
    alpha: float, theta: float, dt: float, rng: np.random.Generator, size=None
):
    """Tempered-stable increments by exponential-tilting rejection.

    Stable proposals are accepted with probability exp(-theta X); the
    expected acceptance rate is exp(-dt theta^alpha) and the draw order is
    preserved, keeping per-path streams reproducible.  A batch draws the
    uniforms of all its proposals (angles, then exponentials, then
    acceptance uniforms), but maps (by ``sample_stable_increment``) and
    tests only a head sized to the expected need; the rest of the batch is
    evaluated only when the head falls short.  The proposals kept, and so
    the bytes, are those of evaluating the whole batch.
    """
    rate = _tilt_rate(alpha, theta, dt)
    n = 1 if size is None else int(size)
    out = np.empty(n)
    filled = 0
    while filled < n:
        need = n - filled
        batch = _tempered_batch(need, rate)
        block = rng.random(3 * batch)
        head = min(batch, int(need / rate) + 16)
        x, accept = _accepted(alpha, theta, dt, block, 0, head, _stable_proposals)
        got = x[accept]
        if got.shape[0] < need and head < batch:
            x, accept = _accepted(alpha, theta, dt, block, head, batch, _stable_proposals)
            got = np.concatenate([got, x[accept]])
        take = min(need, got.shape[0])
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

    Each column has the marginal law of L at its target: exact for stable
    phi, by first passage on the dt-grid for tempered phi.  Rows are
    nondecreasing in t, but only the tempered rows are paths of L; a
    stable row is (t/S)^alpha for one S, so read one column at a time.
    The last draw is kept: a repeat with an equal config and the same
    targets returns a copy of it, bit for bit what a fresh draw would give.
    """
    targets = np.asarray(t_targets, dtype=float)
    if targets.size == 0:
        raise ValueError("need at least one target time")
    bad = targets[~((targets >= 0) & (targets <= cfg.t_max))]
    if bad.size:
        raise ValueError(f"target {bad[0]} does not lie in [0, t_max={cfg.t_max}]")
    return _inverse_values(cfg, tuple(targets.ravel().tolist())).copy()


@functools.lru_cache(maxsize=1)
def _inverse_values(cfg: McConfig, target_key: tuple) -> np.ndarray:
    """The draw behind :func:`sample_inverse_values`, read-only and memoized
    on (cfg, target_key) so that every estimate of one config reads the
    same draw without redrawing it.

    Stable phi: one S ~ S_alpha(1) per path from the path's own stream,
    and L(t) = (t/S)^alpha, exact in each marginal with no dt bias.
    Tempered phi: first passage over blocks of 2048 increments, drawn
    until the path passes the largest target, up to a hard cap on the
    operational steps.  Every estimator reads one column at a time, the
    marginal law of L at one target.
    """
    targets = np.array(target_key)
    t_top = float(targets.max())
    out = np.empty((cfg.n_paths, targets.size))
    streams = _path_streams(cfg.seed, cfg.n_paths)
    if cfg.phi.kind == "stable":
        alpha = cfg.phi.alpha
        # kept scalar: np.float64 ** is libm pow, which numpy's array pow can differ from
        s = np.array([sample_stable_increment(alpha, 1.0, rng) for rng in streams])
        out[:] = (targets[None, :] / s[:, None]) ** alpha
    else:
        for i, rng in enumerate(streams):
            chunks = []
            total = 0.0
            steps = 0
            while total <= t_top:
                if steps >= _MAX_STEPS_PER_PATH:
                    raise PathExhaustedError(
                        f"path {i} exceeded {_MAX_STEPS_PER_PATH} steps before passage"
                    )
                inc = _draw_increments(cfg, rng, _BLOCK)
                chunks.append(inc)
                total += float(inc.sum())
                steps += _BLOCK
            out[i] = inverse_passage(np.concatenate(chunks), targets, cfg.dt)
    out.flags.writeable = False
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
    """U(t) = E[L(t)] from the marginal draw of L(t): exact for stable phi,
    first passage for tempered phi."""
    return estimate_moments(cfg, t, 1)[1]


def laplace_exponent_check(cfg: McConfig, lambdas: Sequence[float]) -> list:
    """Empirical E[exp(-lam sigma(dt))] against exp(-dt phi(lam)).

    One increment per path (the first of its stream); rows are dicts with
    the empirical mean m, its standard error and the analytic target.
    Tempered paths are drawn in slabs of 256, with one stable map and one
    tilt test per slab over each path's first rejection batch; a path
    whose batch accepts nothing is redrawn by the scalar sampler.  The
    draw order and the bytes are those of one scalar draw per path.  The
    samples lie in [0, 1], so their variance is at most m (1 - m); the
    standard error is that bound, sqrt(m (1 - m) / n), because a few rare
    large increments dominate the sample's own spread and make it
    understate the error.  A negative lam takes the samples out of [0, 1]
    (and phi(lam) off the real axis), so it is refused.
    """
    if any(not lam >= 0 for lam in lambdas):
        raise ValueError(f"laplace_exponent_check needs lam >= 0, got {list(lambdas)}")
    streams = _path_streams(cfg.seed, cfg.n_paths)
    if cfg.phi.kind == "stable":
        # kept scalar: np.float64 ** is libm pow, which numpy's array pow can differ from
        inc = np.array([_draw_increments(cfg, rng, None) for rng in streams])
    else:
        inc = _first_tempered_increments(cfg, streams)
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


def _first_tempered_increments(cfg: McConfig, streams) -> np.ndarray:
    """The first tempered increment of each path's stream, bit for bit
    ``sample_tempered_increment(..., rng)`` with size None per path."""
    alpha, theta, dt = cfg.phi.alpha, cfg.phi.theta, cfg.dt
    rate = _tilt_rate(alpha, theta, dt)
    b0 = _tempered_batch(1, rate)
    slab = np.empty((_ROWS, 3 * b0))
    inc = np.empty(cfg.n_paths)
    for lo in range(0, cfg.n_paths, _ROWS):
        rows = slab[: min(_ROWS, cfg.n_paths - lo)]
        for row in rows:
            next(streams).random(out=row)
        x, accept = _accepted(alpha, theta, dt, rows, 0, b0)
        first = accept.argmax(axis=1)
        inc[lo : lo + rows.shape[0]] = x[np.arange(rows.shape[0]), first]
        for j in np.flatnonzero(~accept.any(axis=1)):
            rng = np.random.Generator(np.random.Philox(key=_path_key(cfg.seed, lo + j)))
            inc[lo + j] = sample_tempered_increment(alpha, theta, dt, rng)
    return inc


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
