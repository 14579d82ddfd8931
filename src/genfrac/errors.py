"""Exception hierarchy shared across the toolkit.

Usage-level mistakes (bad arguments, malformed inputs) raise plain
``ValueError``; everything that represents a *numerical* failure derives
from :class:`NumericalError` so callers (and the CLI) can distinguish the
two.
"""

__all__ = [
    "NumericalError",
    "InversionError",
    "AbscissaError",
    "KernelConsistencyError",
    "TruncationError",
    "HorizonError",
    "NonconvergenceError",
    "ConfinementError",
    "PathExhaustedError",
    "ConditioningWarning",
]


class NumericalError(RuntimeError):
    """A computation failed or could not certify its own accuracy."""


class InversionError(NumericalError):
    """Laplace inversion produced non-finite summands or failed outright."""


class AbscissaError(NumericalError):
    """The requested level exceeds the supremum of the Bernstein function."""


class KernelConsistencyError(NumericalError):
    """A kernel table violates positivity/monotonicity beyond tolerance."""


class TruncationError(NumericalError):
    """A series was cut off before its tail certificate was satisfied."""

    def __init__(self, message, tail_estimate=None):
        super().__init__(message)
        self.tail_estimate = tail_estimate


class HorizonError(NumericalError):
    """No grid node satisfies the horizon-selection inequality."""


class NonconvergenceError(NumericalError):
    """Fixed-point iteration exhausted its budget."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class ConfinementError(NumericalError):
    """A fixed-point iterate escaped its confinement ball."""


class PathExhaustedError(NumericalError):
    """A sampled path hit the extension cap before first passage."""


class ConditioningWarning(UserWarning):
    """Evaluation close to a pole or with heavy-tailed samples."""
