import math

import numpy as np
import pytest

from genfrac import Grid


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
