"""Numerical inversion of Laplace transforms on (0, T].

Two fixed-node methods:

* Gaver-Stehfest (default): evaluates the transform on the positive real
  axis only, which is the minimal contract a custom Bernstein function can
  satisfy.  Order 16 delivers ~7 significant digits in double precision;
  accuracy degrades again beyond order ~20.
* Fixed Talbot: deformed-contour summation, needs the transform slightly
  off-axis, roughly 1e-11 relative on smooth originals.

Both accept an ``abscissa_shift`` c: the routine inverts ``z -> F(z + c)``
and multiplies the result by ``exp(c*t)``, which recenters transforms
whose convergence abscissa is not zero (poles right of the origin need
c > abscissa; known exponential decay exp(-at) is recentered with c = -a
to restore relative accuracy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AbscissaError, InversionError

__all__ = [
    "InversionConfig",
    "invert_grid",
    "abscissa_for_eigen",
    "parse_ilt_spec",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class InversionConfig:
    method: str = "gaver-stehfest"
    order: int = 16  # Gaver-Stehfest order, even, 8..20
    nodes: int = 32  # Talbot node count, >= 16
    abscissa_shift: float = 0.0

    def __post_init__(self):
        if self.method not in ("gaver-stehfest", "talbot"):
            raise ValueError(f"unknown inversion method {self.method!r}")
        if self.method == "gaver-stehfest":
            if self.order % 2 or not 8 <= self.order <= 20:
                raise ValueError("Gaver-Stehfest order must be even and in 8..20")
        if self.method == "talbot" and self.nodes < 16:
            raise ValueError("Talbot needs at least 16 nodes")
        if not math.isfinite(self.abscissa_shift):
            raise ValueError("abscissa_shift must be finite")


DEFAULT_CONFIG = InversionConfig()


def parse_ilt_spec(spec: str) -> InversionConfig:
    """Parse ``gs:16`` or ``talbot:32``."""
    name, _, arg = spec.strip().partition(":")
    name = name.lower()
    if name in ("gs", "gaver-stehfest", "stehfest"):
        return InversionConfig(method="gaver-stehfest", order=int(arg) if arg else 16)
    if name == "talbot":
        return InversionConfig(method="talbot", nodes=int(arg) if arg else 32)
    raise ValueError(f"unknown inversion spec {spec!r}")


@lru_cache(maxsize=None)
def _gs_weights(order: int) -> np.ndarray:
    # Salzer summation weights; summands are rationals whose sum is an
    # integer, so accumulate exactly and cast once.
    from fractions import Fraction

    half = order // 2
    weights = np.zeros(order)
    for k in range(1, order + 1):
        acc = Fraction(0)
        for j in range((k + 1) // 2, min(k, half) + 1):
            acc += Fraction(
                j ** half * math.factorial(2 * j),
                math.factorial(half - j)
                * math.factorial(j)
                * math.factorial(j - 1)
                * math.factorial(k - j)
                * math.factorial(2 * j - k),
            )
        weights[k - 1] = float((-1) ** (half + k) * acc)
    return weights


def _transform_values(fn, z: np.ndarray, dtype) -> np.ndarray:
    """fn over the node array z, calling it once per node when it only
    takes scalars."""
    flat = z.ravel()
    try:
        vals = fn(flat)
    except (TypeError, AttributeError, ValueError):
        vals = [fn(zz) for zz in flat]
    vals = np.asarray(vals, dtype=dtype).reshape(z.shape)
    if not np.all(np.isfinite(vals)):
        raise InversionError("non-finite transform values at the inversion nodes")
    return vals


def invert_grid(transform, ts, cfg: InversionConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Original function of ``transform`` at an array of times.

    The transform is called once on the flattened node array; callables
    that only take scalars are evaluated node by node.
    """
    ts = np.asarray(ts, dtype=float)
    if not np.all(ts > 0):
        raise ValueError("all times must be positive")
    shift = cfg.abscissa_shift
    fn = transform if shift == 0.0 else (lambda z: transform(z + shift))
    if cfg.method == "gaver-stehfest":
        z = (_LN2 / ts)[:, None] * np.arange(1, cfg.order + 1)[None, :]
        vals = _transform_values(fn, z, float)
        out = (_LN2 / ts) * (vals @ _gs_weights(cfg.order))
    else:
        nodes = cfg.nodes
        theta = np.arange(1, nodes) * np.pi / nodes
        cot = 1.0 / np.tan(theta)
        sigma = theta + (theta * cot - 1.0) * cot
        r = 2.0 * nodes / (5.0 * ts)
        zmat = r[:, None] * theta[None, :] * (cot[None, :] + 1j)
        vals = _transform_values(fn, zmat, complex)
        head = 0.5 * _transform_values(fn, r.astype(complex), complex) * np.exp(r * ts)
        body = np.real(np.exp(ts[:, None] * zmat) * vals * (1.0 + 1j * sigma[None, :]))
        out = (r / nodes) * (head.real + body.sum(axis=1))
    if not np.all(np.isfinite(out)):
        raise InversionError("inversion produced non-finite values")
    return out if shift == 0.0 else np.exp(shift * ts) * out


def abscissa_for_eigen(phi, lam: float) -> float:
    """Solve phi(x) = lam for x >= 0 by monotone bisection.

    Returns 0 for lam <= 0 (the transform of a bounded original converges
    on the whole right half-plane).
    """
    if not math.isfinite(lam):
        raise ValueError("lam must be finite")
    if lam <= 0:
        return 0.0
    hi = 1.0
    for _ in range(1100):
        if float(phi.phi(hi)) > lam:
            break
        hi *= 2.0
    else:
        raise AbscissaError(f"phi appears bounded below lam={lam}; no abscissa")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if float(phi.phi(mid)) > lam:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-12 * hi:
            break
    return 0.5 * (lo + hi)
