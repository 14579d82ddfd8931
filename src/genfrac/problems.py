"""Built-in right-hand sides and the problem-file format.

A problem file is plain key-value text (``key = value`` per line, ``#``
comments).  Required keys: ``d``, ``f0``, ``T``, ``R``, ``rhs``; the rhs
kind selects its own parameter keys:

    rhs = zero
    rhs = constant     xi = 1.0[,...]
    rhs = linear       matrix = -1.0[,...]      (row-major d*d)
    rhs = affine       matrix = ...  xi = ...
    rhs = logistic     rate = 1.0               (d = 1 only)
    rhs = power        coef = 1.0  exponent = 2 (d = 1 only)
    rhs = table        table_t = 0,0.5,1  table_v = 0,1,0

Each builder carries the ball-wise bound and Lipschitz metadata the
solver's horizon selection needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bernstein import read_kv_file

__all__ = [
    "RhsSpec",
    "IvpProblem",
    "rhs_zero",
    "rhs_constant",
    "rhs_linear",
    "rhs_affine",
    "rhs_logistic",
    "rhs_power",
    "rhs_table",
    "make_problem",
    "load_problem_file",
]


@dataclass
class RhsSpec:
    """F with ``c_bound(R)`` >= |F(t, x)| and ``lip_l(R)`` >= its state-Lipschitz
    constant over |x| <= R, both nondecreasing in R."""

    fn: Callable  # vectorized: (ts (m,), ys (m, d)) -> (m, d)
    dim: int
    c_bound: Callable[[float], float]
    lip_l: Callable[[float], float]
    label: str


@dataclass
class IvpProblem:
    """D f = F(t, f), f(0) = f0 on [0, horizon], with F given by ``spec``."""

    spec: RhsSpec
    f0: np.ndarray
    horizon: float

    def __post_init__(self):
        self.f0 = np.atleast_1d(np.asarray(self.f0, dtype=float))
        if self.f0.shape != (self.spec.dim,):
            raise ValueError(f"f0 must have shape ({self.spec.dim},), got {self.f0.shape}")
        if not np.all(np.isfinite(self.f0)):
            raise ValueError(f"f0 must be finite, got {self.f0}")
        if not 0 < self.horizon < np.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")

    def eval_rhs(self, ts: np.ndarray, ys: np.ndarray) -> np.ndarray:
        out = np.asarray(self.spec.fn(ts, ys), dtype=float)
        if out.shape != ys.shape:
            raise ValueError(f"rhs returned shape {out.shape}, expected {ys.shape}")
        return out


def _affine(M: np.ndarray, xi: np.ndarray, label: str) -> RhsSpec:
    """F(y) = M y + xi, with |F| <= |xi| + |M|_2 R and Lipschitz |M|_2 on B_R."""
    if not (np.isfinite(M).all() and np.isfinite(xi).all()):
        raise ValueError(f"{label} rhs needs finite coefficients")
    norm = float(np.linalg.norm(M, 2))
    mag = float(np.linalg.norm(xi))
    return RhsSpec(
        fn=lambda ts, ys: ys @ M.T + xi,
        dim=xi.shape[0],
        c_bound=lambda R: mag + norm * R,
        lip_l=lambda R: norm,
        label=label,
    )


def rhs_zero(dim: int = 1) -> RhsSpec:
    return _affine(np.zeros((dim, dim)), np.zeros(dim), "zero")


def rhs_constant(xi) -> RhsSpec:
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return _affine(np.zeros((xi.shape[0], xi.shape[0])), xi, "constant")


def rhs_linear(matrix) -> RhsSpec:
    M = np.atleast_2d(np.asarray(matrix, dtype=float))
    if M.shape[0] != M.shape[1]:
        raise ValueError("linear rhs needs a square matrix")
    return _affine(M, np.zeros(M.shape[0]), "linear")


def rhs_affine(matrix, xi) -> RhsSpec:
    M = np.atleast_2d(np.asarray(matrix, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if M.shape != (xi.shape[0], xi.shape[0]):
        raise ValueError("affine rhs needs matching matrix and xi shapes")
    return _affine(M, xi, "affine")


def rhs_logistic(rate: float) -> RhsSpec:
    r = float(rate)
    if not np.isfinite(r):
        raise ValueError(f"logistic rate must be finite, got {r}")
    return RhsSpec(
        fn=lambda ts, ys: r * ys * (1.0 - ys),
        dim=1,
        c_bound=lambda R: abs(r) * (R + R * R),
        lip_l=lambda R: abs(r) * (1.0 + 2.0 * R),
        label="logistic",
    )


def rhs_power(coef: float, exponent: float) -> RhsSpec:
    """F(y) = coef * sign(y) |y|^p (odd extension keeps it ball-Lipschitz)."""
    c, p = float(coef), float(exponent)
    if not (np.isfinite(c) and np.isfinite(p)):
        raise ValueError(f"power rhs needs a finite coef and exponent, got {c} and {p}")
    if p < 1:
        raise ValueError("exponent must be >= 1 for local Lipschitz bounds")
    return RhsSpec(
        fn=lambda ts, ys: c * np.sign(ys) * np.abs(ys) ** p,
        dim=1,
        c_bound=lambda R: abs(c) * R ** p,
        lip_l=lambda R: abs(c) * p * R ** (p - 1.0) if R > 0 else 0.0,
        label="power",
    )


def rhs_table(table_t, table_v) -> RhsSpec:
    """Pure time-dependent forcing, interpolated linearly from a table.

    Outside [table_t[0], table_t[-1]] the forcing holds its end values
    (``np.interp``); :func:`load_problem_file` therefore refuses a table
    that does not span [0, T].
    """
    ts = np.asarray(table_t, dtype=float)
    vs = np.asarray(table_v, dtype=float)
    if vs.ndim == 1:
        vs = vs[:, None]
    if ts.ndim != 1 or vs.shape[0] != ts.shape[0]:
        raise ValueError("table_t and table_v must have matching lengths")
    if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(vs))):
        raise ValueError("table_t and table_v must be finite")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("table_t must be strictly increasing")
    mag = float(np.linalg.norm(vs, axis=1).max())
    dim = vs.shape[1]

    def fn(times, ys):
        out = np.empty((times.shape[0], dim))
        for k in range(dim):
            out[:, k] = np.interp(times, ts, vs[:, k])
        return out

    return RhsSpec(
        fn=fn,
        dim=dim,
        c_bound=lambda R: mag,
        lip_l=lambda R: 0.0,
        label="table",
    )


def make_problem(spec: RhsSpec, f0, horizon: float) -> IvpProblem:
    return IvpProblem(spec, f0, horizon)


def _floats(text: str) -> list:
    return [float(x) for x in text.split(",") if x.strip()]


def load_problem_file(path):
    """Returns (IvpProblem, R, metadata dict); the metadata is every
    key-value pair of the file as read."""
    kv = read_kv_file(path)
    meta = dict(kv)
    try:
        dim = int(kv.pop("d", "1"))
        f0 = _floats(kv.pop("f0"))
        horizon = float(kv.pop("t"))
        radius = float(kv.pop("r"))
        kind = kv.pop("rhs").lower()
        if kind == "zero":
            spec = rhs_zero(dim)
        elif kind == "constant":
            spec = rhs_constant(_floats(kv.pop("xi")))
        elif kind == "linear":
            m = np.asarray(_floats(kv.pop("matrix"))).reshape(dim, dim)
            spec = rhs_linear(m)
        elif kind == "affine":
            m = np.asarray(_floats(kv.pop("matrix"))).reshape(dim, dim)
            spec = rhs_affine(m, _floats(kv.pop("xi")))
        elif kind == "logistic":
            spec = rhs_logistic(float(kv.pop("rate")))
        elif kind == "power":
            spec = rhs_power(float(kv.pop("coef")), float(kv.pop("exponent")))
        elif kind == "table":
            table_t = _floats(kv.pop("table_t"))
            spec = rhs_table(table_t, _floats(kv.pop("table_v")))
            if not (table_t[0] <= 0.0 and horizon <= table_t[-1]):
                raise ValueError(
                    f"table_t spans [{table_t[0]:g}, {table_t[-1]:g}], "
                    f"which does not cover [0, T={horizon:g}]"
                )
        else:
            raise ValueError(f"unknown rhs kind {kind!r}")
    except KeyError as exc:
        raise ValueError(f"problem file missing required key: {exc}") from exc
    if kv:
        raise ValueError(f"unrecognized problem keys: {sorted(kv)}")
    if spec.dim != dim:
        raise ValueError(f"rhs {kind!r} has dimension {spec.dim}, file says {dim}")
    problem = make_problem(spec, f0, horizon)
    return problem, radius, meta
