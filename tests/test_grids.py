import math

import numpy as np
import pytest

from genfrac import (
    Grid,
    GridFunction,
    GronwallInstance,
    apply_B,
    caputo_derivative,
    check_instance,
    check_inversion_identity,
    eigen_residual,
    frac_integral,
    ml_bound,
    monotone_bound,
    series_bound,
)


class TestGrid:
    def test_nodes(self):
        grid = Grid(2.0, 4)
        assert grid.step == 0.5
        assert np.array_equal(grid.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])

    @pytest.mark.parametrize("horizon", [math.inf, math.nan, 0.0, -1.0])
    def test_horizon_must_be_positive_and_finite(self, horizon):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            Grid(horizon, 8)

    def test_needs_a_cell(self):
        with pytest.raises(ValueError, match="at least one cell"):
            Grid(1.0, 0)

    def test_cells_must_be_integral(self):
        with pytest.raises(ValueError, match="cells must be an integer"):
            Grid(1.0, 7.9)
        assert Grid(1.0, np.int64(8)).cells == 8


def _one(kt):
    return GridFunction.constant(kt.grid, 1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda kt, cp, f: frac_integral(kt, f),
        lambda kt, cp, f: caputo_derivative(kt, f),
        lambda kt, cp, f: check_inversion_identity(kt, f),
        lambda kt, cp, f: eigen_residual(kt, 1.0, f),
        lambda kt, cp, f: apply_B(kt, _one(kt), f),
        lambda kt, cp, f: series_bound(kt, f, _one(kt)),
        lambda kt, cp, f: ml_bound(kt, _one(kt), f),
        lambda kt, cp, f: monotone_bound(kt, f, _one(kt)),
        lambda kt, cp, f: GronwallInstance.build(kt.grid, f, _one(kt), _one(kt)),
        lambda kt, cp, f: check_instance(GronwallInstance.build(f.grid, f, f, f), kt, cp),
    ],
    ids=["frac_integral", "caputo_derivative", "check_inversion_identity", "eigen_residual",
         "apply_B", "series_bound", "ml_bound", "monotone_bound", "instance_build",
         "check_instance"],
)
def test_every_entry_point_refuses_another_grid(kt_stable_512, cp_stable_512, call):
    other = GridFunction.constant(Grid(1.0, 256), 1.0)
    with pytest.raises(ValueError, match="grid mismatch"):
        call(kt_stable_512, cp_stable_512, other)
