"""Bernstein functions described by their Levy-Khintchine data.

A Bernstein function ``phi`` is represented here through closed-form
catalog entries (stable, tempered stable, stable mixtures) or through a
user-supplied callable.  The catalog carries what the rest of the toolkit
reads: the value ``phi(lam)``, the integral of the jump-measure tail
``int_0^t nubar(s) ds`` in closed form where one exists, and the
short-time exponent ``beta`` of ``u(t) ~ t**(beta-1)``.  The constant in
front of that power is not declared here: each kernel table fits it on
its own grid.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import gamma as _gamma, gammainc, gammaincc

__all__ = [
    "BernsteinFunction",
    "validate_bernstein",
    "ValidationReport",
    "parse_phi_spec",
    "load_phi_config",
    "read_kv_file",
]


@dataclass(frozen=True)
class BernsteinFunction:
    """Immutable description of a Bernstein function.

    Use the constructors :meth:`stable`, :meth:`tempered`, :meth:`mixture`
    or :meth:`custom`; the bare dataclass constructor performs no
    parameter derivation.  Every construction, ``dataclasses.replace``
    included, checks the short-time exponent: 0 < beta < 1.
    """

    kind: str
    alpha: Optional[float] = None
    theta: Optional[float] = None
    weights: Optional[tuple] = None
    alphas: Optional[tuple] = None
    phi_fn: Optional[Callable] = None
    beta: float = 0.5
    label: str = field(default="", compare=False)

    def __post_init__(self):
        if not 0 < self.beta < 1:
            raise ValueError(f"beta must lie in (0,1), got {self.beta}")

    # -- constructors -----------------------------------------------------

    @classmethod
    def stable(cls, alpha: float) -> "BernsteinFunction":
        """phi(lam) = lam**alpha, 0 < alpha < 1."""
        _check_alpha(alpha)
        return cls(
            kind="stable",
            alpha=float(alpha),
            beta=float(alpha),
            label=f"stable:{alpha:g}",
        )

    @classmethod
    def tempered(cls, alpha: float, theta: float) -> "BernsteinFunction":
        """phi(lam) = (lam + theta)**alpha - theta**alpha."""
        _check_alpha(alpha)
        if not 0 < theta < math.inf:
            raise ValueError(f"theta must be positive and finite, got {theta}")
        return cls(
            kind="tempered",
            alpha=float(alpha),
            theta=float(theta),
            beta=float(alpha),
            label=f"tempered:{alpha:g},{theta:g}",
        )

    @classmethod
    def mixture(cls, weights: Sequence[float], alphas: Sequence[float]) -> "BernsteinFunction":
        """phi(lam) = sum_i w_i * lam**alpha_i with positive weights."""
        weights = tuple(float(w) for w in weights)
        alphas = tuple(float(a) for a in alphas)
        if len(weights) != len(alphas) or not weights:
            raise ValueError("weights and alphas must be equal-length, non-empty")
        if not all(0 < w < math.inf for w in weights):
            raise ValueError(f"mixture weights must be positive and finite, got {weights}")
        for a in alphas:
            _check_alpha(a)
        label = "mixture:" + "+".join(f"{w:g}@{a:g}" for w, a in zip(weights, alphas))
        # Near t=0 the largest exponent dominates the kernel.
        return cls(kind="mixture", weights=weights, alphas=alphas, beta=max(alphas), label=label)

    @classmethod
    def custom(cls, phi_eval: Callable, beta: float, label: str = "custom") -> "BernsteinFunction":
        """Wrap a user callable; the short-time exponent ``beta`` is a caller
        contract, never inferred.

        ``phi_eval`` is spot-checked to be nonnegative and nondecreasing on
        a real test grid.  It must also take a complex argument and return
        a finite value there, because the kernels of a custom kind come
        from Laplace inversion, which evaluates phi off the real axis.
        Either failure is refused with ``ValueError``.
        """
        obj = cls(kind="custom", phi_fn=phi_eval, beta=float(beta), label=label)
        _spot_check_monotone(obj)
        _require_complex_argument(obj)
        return obj

    # -- evaluation --------------------------------------------------------

    def phi(self, lam):
        """Evaluate phi; accepts scalars or arrays, real or complex.

        No domain validation here (hot path).
        """
        if self.kind == "stable":
            return lam ** self.alpha
        if self.kind == "tempered":
            return (lam + self.theta) ** self.alpha - self.theta ** self.alpha
        if self.kind == "mixture":
            # one shared log z: a complex power costs three times an exp.
            # At z = 0 the log is -inf, a * log z is -inf (+ nan i for a
            # complex z) and its exp is exactly 0, so phi(0) = 0 silently.
            with np.errstate(divide="ignore"):
                log_lam = np.log(lam)
            with np.errstate(invalid="ignore"):
                return sum(w * np.exp(a * log_lam) for w, a in zip(self.weights, self.alphas))
        return self.phi_fn(lam)

    def levy_tail_integral(self, t):
        """Integral of the tail, int_0^t nubar(s) ds, in closed form for
        catalog kinds; returns None for custom kinds (use inversion of
        phi(z)/z**2 instead)."""
        if self.kind == "stable":
            return t ** (1.0 - self.alpha) / _gamma(2.0 - self.alpha)
        if self.kind == "tempered":
            a, th = self.alpha, self.theta
            x = th * t
            lower1 = gammainc(1.0 - a, x) * _gamma(1.0 - a)
            upper1 = gammaincc(1.0 - a, x) * _gamma(1.0 - a)
            lower2 = gammainc(2.0 - a, x) * _gamma(2.0 - a)
            return th ** a / _gamma(1.0 - a) * (lower1 / th - t * upper1 - lower2 / th)
        if self.kind == "mixture":
            acc = None
            for w, a in zip(self.weights, self.alphas):
                term = w * t ** (1.0 - a) / _gamma(2.0 - a)
                acc = term if acc is None else acc + term
            return acc
        return None

    def potential_closed_form(self, t):
        """U(t) where available in closed form (stable only), else None."""
        if self.kind == "stable":
            return t ** self.alpha / _gamma(1.0 + self.alpha)
        return None

    def describe(self) -> dict:
        d = {
            "kind": self.kind,
            "label": self.label,
            "beta": self.beta,
            "closed_form_kernels": self.kind == "stable",
        }
        if self.alpha is not None:
            d["alpha"] = self.alpha
        if self.theta is not None:
            d["theta"] = self.theta
        if self.weights is not None:
            d["weights"] = list(self.weights)
            d["alphas"] = list(self.alphas)
        return d


def _check_alpha(alpha):
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")


def _spot_check_monotone(phi: BernsteinFunction, n: int = 40) -> None:
    grid = np.logspace(-3, 3, n)
    vals = np.asarray([float(phi.phi(x)) for x in grid])
    if np.any(vals < -1e-12):
        raise ValueError("custom phi takes negative values on the test grid")
    if np.any(np.diff(vals) < -1e-10 * (1.0 + np.abs(vals[:-1]))):
        raise ValueError("custom phi is not nondecreasing on the test grid")


def _require_complex_argument(phi: BernsteinFunction) -> None:
    # points on both sides of the imaginary axis, as on the inversion contour
    for z in (1.0 + 1.0j, -1.0 + 1.0j):
        try:
            val = complex(phi.phi(z))
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ValueError(f"custom phi must take a complex argument; at {z}: {exc}") from exc
        if not cmath.isfinite(val):
            raise ValueError(f"custom phi is not finite at the complex argument {z}")


# -- finite-difference sign validation -------------------------------------


@dataclass
class ValidationReport:
    """Outcome of the derivative-sign spot check."""

    lambda_grid: list
    max_order: int
    violations: list  # (lam, order, estimate, tolerance)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_bernstein(
    phi: BernsteinFunction, lambda_grid: Sequence[float], order: int = 3
) -> ValidationReport:
    """Spot-check the alternating-sign derivative conditions.

    Central finite differences of orders 1..order at each grid point with
    step ``h = max(1e-3*lam, 1e-6)``.  A violation is recorded when the
    n-th difference has the forbidden sign by more than the roundoff
    tolerance of the stencil.  Beyond order ~4 the tolerance grows so fast
    that the check is effectively vacuous; order is capped at 6.
    """
    lams = [float(x) for x in lambda_grid]
    if any(x <= 0 for x in lams):
        raise ValueError("lambda grid must be strictly positive")
    if sorted(lams) != lams:
        raise ValueError("lambda grid must be increasing")
    if not 1 <= order <= 6:
        raise ValueError("order must lie in 1..6")

    eps = np.finfo(float).eps
    violations = []
    for lam in lams:
        h = max(1e-3 * lam, 1e-6)
        for n in range(1, order + 1):
            coeffs = np.array([(-1.0) ** k * math.comb(n, k) for k in range(n + 1)])
            pts = lam + (n / 2.0 - np.arange(n + 1)) * h
            if pts[-1] <= 0:
                continue  # stencil leaves the domain
            vals = np.array([float(phi.phi(p)) for p in pts])
            deriv = float(np.dot(coeffs, vals)) / h ** n
            scale = float(np.max(np.abs(vals)))
            tol = 16.0 * eps * scale * 2.0 ** n / h ** n + 1e-9 * (1.0 + scale)
            signed = (-1.0) ** n * deriv
            if signed > tol:
                violations.append((lam, n, deriv, tol))
    return ValidationReport(lambda_grid=lams, max_order=order, violations=violations)


# -- text interfaces --------------------------------------------------------


def parse_phi_spec(spec: str) -> BernsteinFunction:
    """Build a catalog entry from a compact text spec.

    Accepted forms: ``stable:0.5``, ``tempered:0.5,1.0``,
    ``mixture:0.3@0.4+0.7@0.8``.
    """
    spec = spec.strip()
    if ":" not in spec:
        raise ValueError(f"malformed phi spec {spec!r}; expected kind:params")
    kind, _, params = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "stable":
        return BernsteinFunction.stable(float(params))
    if kind == "tempered":
        parts = params.split(",")
        if len(parts) != 2:
            raise ValueError(f"tempered spec needs alpha,theta; got {params!r}")
        return BernsteinFunction.tempered(float(parts[0]), float(parts[1]))
    if kind == "mixture":
        weights, alphas = [], []
        for chunk in params.split("+"):
            w, _, a = chunk.partition("@")
            if not a:
                raise ValueError(f"mixture component {chunk!r} must be weight@alpha")
            weights.append(float(w))
            alphas.append(float(a))
        return BernsteinFunction.mixture(weights, alphas)
    raise ValueError(f"unknown phi kind {kind!r}; known: stable, tempered, mixture")


def read_kv_file(path) -> dict:
    """Parse ``key = value`` lines (keys lower-cased); '#' starts a comment."""
    kv = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed line {raw!r}")
            key, _, val = line.partition("=")
            kv[key.strip().lower()] = val.strip()
    return kv


def load_phi_config(path) -> BernsteinFunction:
    """Read a catalog entry from a key-value text file.

    Lines look like ``kind = stable`` / ``alpha = 0.5``; ``#`` starts a
    comment.  The file holds ``kind`` and that kind's parameters, nothing
    else: the constructor derives beta from them.
    """
    kv = read_kv_file(path)
    kind = kv.pop("kind", None)
    if kind is None:
        raise ValueError("config must declare kind=")
    try:
        if kind == "stable":
            phi = BernsteinFunction.stable(float(kv.pop("alpha")))
        elif kind == "tempered":
            phi = BernsteinFunction.tempered(float(kv.pop("alpha")), float(kv.pop("theta")))
        elif kind == "mixture":
            weights = [float(x) for x in kv.pop("weights").split(",")]
            alphas = [float(x) for x in kv.pop("alphas").split(",")]
            phi = BernsteinFunction.mixture(weights, alphas)
        else:
            raise ValueError(f"unknown kind {kind!r} in config")
    except KeyError as exc:
        raise ValueError(f"config of kind {kind!r} missing required key: {exc}") from exc
    if kv:
        raise ValueError(f"unrecognized config keys: {sorted(kv)}")
    return phi
