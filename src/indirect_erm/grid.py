"""Uniform quadrature grids.

All integrals in the package are trapezoid-rule quadratures on uniform
grids whose point count is a power of two, so that grid spacing pairs
exactly with discrete Fourier transforms and discrete convolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = ["Grid", "trapezoid_weights", "padded_axis"]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def trapezoid_weights(n_points: int, spacing: float) -> np.ndarray:
    """Trapezoid quadrature weights for a uniform grid of ``n_points`` nodes."""
    w = np.full(n_points, spacing, dtype=float)
    w[0] = w[-1] = spacing / 2.0
    return w


def _one_number(value, name: str) -> float:
    """A number, or a one-element sequence as configs write it."""
    v = np.asarray(value, dtype=float).reshape(-1)
    if v.size != 1:
        raise ConfigurationError(f"{name} must be one number, got {value!r}")
    return float(v[0])


@dataclass(frozen=True)
class Grid:
    """Uniform grid on an interval with trapezoid quadrature.

    Nodes include both endpoints: ``linspace(lower, upper, points_per_dim)``.

    Parameters
    ----------
    lower, upper : float
        Interval bounds, ``upper > lower``; a one-element sequence is accepted.
    points_per_dim : int
        Number of nodes; at least 16 and a power of two.
    """

    lower: float = 0.0
    upper: float = 1.0
    points_per_dim: int = 1024

    def __post_init__(self):
        object.__setattr__(self, "lower", _one_number(self.lower, "grid lower"))
        object.__setattr__(self, "upper", _one_number(self.upper, "grid upper"))
        if not self.upper > self.lower:
            raise ConfigurationError("upper must exceed lower")
        if self.points_per_dim < 16 or not _is_power_of_two(self.points_per_dim):
            raise ConfigurationError(
                f"points_per_dim must be a power of two >= 16, got {self.points_per_dim}"
            )

    @property
    def spacing(self) -> float:
        return (self.upper - self.lower) / (self.points_per_dim - 1)

    def axis(self) -> np.ndarray:
        """Node coordinates (endpoints included)."""
        return np.linspace(self.lower, self.upper, self.points_per_dim)

    def weights(self) -> np.ndarray:
        """Trapezoid weights; they sum to the interval length."""
        return trapezoid_weights(self.points_per_dim, self.spacing)

    def integrate(self, values: np.ndarray) -> float:
        """Trapezoid integral of node values."""
        return float(np.dot(self.weights(), values))


def padded_axis(grid: Grid, margin: float) -> tuple[np.ndarray, np.ndarray]:
    """Extend the grid by ``margin`` on each side at the same spacing.

    Returns ``(nodes, weights)`` for the extended axis. The original nodes
    are a contiguous subset, so tables on the padded axis restrict exactly
    to the domain grid. Used to absorb contaminated observations that fall
    outside the domain.
    """
    h = grid.spacing
    n_pad = int(math.ceil(max(margin, 0.0) / h))
    n_total = grid.points_per_dim + 2 * n_pad
    lo = grid.lower - n_pad * h
    nodes = lo + h * np.arange(n_total)
    return nodes, trapezoid_weights(n_total, h)
