"""Numerical inversion of Laplace transforms on (0, T] by fixed Talbot.

The Bromwich contour is deformed to s(theta) = r theta (cot theta + i),
r = 2M / (5t), and sampled at M fixed nodes (Abate & Valko, Int. J.
Numer. Meth. Eng. 60, 2004).  The error decays geometrically with M in
double precision until roundoff, which grows like exp(2M/5), takes over.
Against the exact tempered potential on 16384 cells, 16 nodes keep U
within 4.4e-12 relative and its cell masses within 1.4e-10; 20 nodes
tighten U but move the cell masses to 5.0e-10, and 32 nodes to 2.9e-8.
So the node count is the constant ``TALBOT_NODES``.

Since r t = 2M/5, the nodes are z = s_j / t and exp(t z) = exp(s_j): the
summation weights do not depend on t and are computed once.

The transform is evaluated off the real axis, on both sides of the
imaginary axis, so it must accept complex arguments; it is assumed to
converge on the right half-plane.  A caller whose transform has a pole at
c > 0 inverts ``z -> F(z + c)`` and multiplies the original by
``exp(c*t)``, as the eigenfunction route does.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AbscissaError, InversionError

__all__ = [
    "invert_grid",
    "abscissa_for_eigen",
]

TALBOT_NODES = 16


def _talbot_contour(nodes: int):
    """Scaled nodes s_j = r t z_j and weights: the head node theta = 0
    (s = 2M/5, weight exp(2M/5) / 2) and then exp(s_j) (1 + i sigma_j)."""
    theta = np.arange(1, nodes) * np.pi / nodes
    cot = 1.0 / np.tan(theta)
    sigma = theta + (theta * cot - 1.0) * cot
    s = np.concatenate(([2.0 * nodes / 5.0], 2.0 * nodes / 5.0 * theta * (cot + 1j)))
    weights = np.exp(s) * np.concatenate(([0.5], 1.0 + 1j * sigma))
    return s, weights


_S, _WEIGHTS = _talbot_contour(TALBOT_NODES)
#: times inverted per call of the transform, so that its complex
#: temporaries stay a few hundred kB whatever the number of times
_BLOCK = 1024


def _transform_values(fn, z: np.ndarray) -> np.ndarray:
    """fn over the node array z, calling it once per node when it only
    takes scalars."""
    flat = z.ravel()
    try:
        vals = fn(flat)
    except (TypeError, AttributeError, ValueError):
        vals = [fn(zz) for zz in flat]
    vals = np.asarray(vals, dtype=complex).reshape(z.shape)
    if not np.all(np.isfinite(vals)):
        raise InversionError("non-finite transform values at the inversion nodes")
    return vals


def invert_grid(transform, ts) -> np.ndarray:
    """Original function of ``transform`` at a 1-D array of times.

    The transform is called once on the flattened node array of each block
    of ``_BLOCK`` times; callables that only take scalars are evaluated
    node by node.
    """
    ts = np.asarray(ts, dtype=float)
    if not np.all(ts > 0):
        raise ValueError("all times must be positive")
    out = np.empty_like(ts)
    for lo in range(0, ts.shape[0], _BLOCK):
        block = ts[lo : lo + _BLOCK]
        vals = _transform_values(transform, _S[None, :] / block[:, None])
        # r / M = 2 / (5t); a row-wise sum keeps each time's summation
        # order fixed, where a BLAS product reorders it with the row count
        out[lo : lo + _BLOCK] = (0.4 / block) * (vals * _WEIGHTS).real.sum(axis=1)
    if not np.all(np.isfinite(out)):
        raise InversionError("inversion produced non-finite values")
    return out


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
