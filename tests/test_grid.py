import numpy as np
import pytest

from indirect_erm import ConfigurationError, Grid
from indirect_erm.grid import padded_axis


def test_weights_sum_to_volume():
    for n in (16, 64, 1024):
        g = Grid(lower=(-1.0,), upper=(2.5,), points_per_dim=n)
        assert abs(g.weights().sum() - 3.5) < 1e-12


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        Grid(points_per_dim=8)  # below the minimum
    with pytest.raises(ConfigurationError):
        Grid(points_per_dim=100)  # not a power of two
    with pytest.raises(ConfigurationError):
        Grid(lower=(1.0,), upper=(0.0,))
    with pytest.raises(ConfigurationError):
        Grid(lower=(0.0, -1.0), upper=(1.0, 1.0))  # the grid is one-dimensional


def test_axis_endpoints_and_spacing():
    g = Grid(points_per_dim=64)
    x = g.axis()
    assert x[0] == 0.0 and x[-1] == 1.0
    assert abs(g.spacing - 1.0 / 63) < 1e-15
    assert Grid(lower=[0.0], upper=[1.0], points_per_dim=64) == g


def test_trapezoid_integrates_linear_exactly():
    g = Grid(points_per_dim=128)
    x = g.axis()
    assert abs(g.integrate(2.0 * x) - 1.0) < 1e-12


def test_padded_axis_contains_original_nodes():
    g = Grid(points_per_dim=64)
    nodes, weights = padded_axis(g, margin=0.3)
    h = g.spacing
    n_pad = (len(nodes) - 64) // 2
    assert n_pad >= int(np.ceil(0.3 / h))
    inner = nodes[n_pad:n_pad + 64]
    assert np.allclose(inner, g.axis(), atol=1e-12)
    assert abs(weights.sum() - (nodes[-1] - nodes[0])) < 1e-12


@pytest.mark.parametrize("margin", [-0.1, float("nan"), float("inf")])
def test_padded_axis_rejects_bad_margin(margin):
    with pytest.raises(ConfigurationError):
        padded_axis(Grid(points_per_dim=64), margin)
