"""Uniform time grids and vector-valued grid functions."""

from __future__ import annotations

import numpy as np

__all__ = ["Grid", "GridFunction"]


class Grid:
    """Uniform grid on [0, T] with N cells and N+1 nodes t_i = i*T/N."""

    __slots__ = ("horizon", "cells", "step", "nodes")

    def __init__(self, horizon: float, cells: int):
        if not 0 < horizon < np.inf:
            raise ValueError(f"horizon must be positive and finite, got {horizon}")
        if cells < 1:
            raise ValueError(f"need at least one cell, got {cells}")
        self.horizon = float(horizon)
        self.cells = int(cells)
        self.step = self.horizon / self.cells
        self.nodes = np.linspace(0.0, self.horizon, self.cells + 1)
        self.nodes.setflags(write=False)

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.cells == other.cells
            and self.horizon == other.horizon
        )

    def __hash__(self):
        return hash((self.horizon, self.cells))

    def __repr__(self):
        return f"Grid(horizon={self.horizon!r}, cells={self.cells})"

    def prefix(self, cells: int) -> "Grid":
        """Grid over the first ``cells`` cells (same step)."""
        if not 1 <= cells <= self.cells:
            raise ValueError(f"prefix cells must lie in 1..{self.cells}")
        return Grid(cells * self.step, cells)


class GridFunction:
    """Values of a function [0, T] -> R^d at the grid nodes.

    ``values`` has shape (N+1, d); scalar functions use d = 1 and can be
    read back through :meth:`scalar`.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        arr = np.asarray(values, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] != grid.cells + 1:
            raise ValueError(
                f"values must have {grid.cells + 1} rows, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid function values must be finite")
        self.grid = grid
        self.values = arr

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, grid: Grid, value) -> "GridFunction":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        return cls(grid, np.tile(v, (grid.cells + 1, 1)))

    # -- access ---------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def scalar(self) -> np.ndarray:
        """1-d view for d = 1 functions."""
        if self.dim != 1:
            raise ValueError(f"scalar() needs d=1, have d={self.dim}")
        return self.values[:, 0]

    def node_norms(self) -> np.ndarray:
        """Euclidean norm of the value at each node."""
        return np.linalg.norm(self.values, axis=1)

    def __repr__(self):
        return f"GridFunction(d={self.dim}, {self.grid!r})"
