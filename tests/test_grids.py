import numpy as np
import pytest

from roughwave.errors import InvalidGridError
from roughwave.grids import Grid1D, Grid2D


def test_nodes_count_and_spacing():
    g = Grid1D(lower=-1.0, step=0.25, count=9)
    nodes = g.nodes()
    assert nodes.shape == (9,)
    assert nodes[0] == -1.0
    assert g.upper == pytest.approx(1.0)
    assert np.allclose(np.diff(nodes), 0.25)


def test_from_bounds_hits_upper_exactly():
    g = Grid1D.from_bounds(0.0, 2.0, 401)
    assert g.upper == pytest.approx(2.0, abs=1e-12)
    assert g.count == 401


def test_cell_centers_are_midpoints():
    g = Grid1D(0.0, 0.5, 5)
    assert np.allclose(g.cell_centers(), [0.25, 0.75, 1.25, 1.75])


def test_nearest_index_clamps():
    g = Grid1D(-1.0, 0.5, 5)
    assert g.nearest_index(0.0) == 2
    assert g.nearest_index(-50.0) == 0
    assert g.nearest_index(50.0) == 4


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(lower=0.0, step=0.0, count=5),
        dict(lower=0.0, step=-0.1, count=5),
        dict(lower=0.0, step=np.nan, count=5),
        dict(lower=np.inf, step=0.1, count=5),
        dict(lower=0.0, step=0.1, count=1),
    ],
)
def test_invalid_grids_rejected(kwargs):
    with pytest.raises(InvalidGridError):
        Grid1D(**kwargs)


def test_grid2d_cell_measure():
    g = Grid2D(Grid1D(0.0, 0.1, 11), Grid1D(0.0, 0.2, 6))
    assert g.cell_measure == pytest.approx(0.02)
