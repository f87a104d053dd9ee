"""Forward models for indirect observations.

Two contamination routes: additive noise Z = X + eps (convolution), and a
known self-adjoint compact operator acting on the input density, realized
in the cosine eigenbasis on [0, 1] with polynomially decaying eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ModelError
from .grid import Grid
from .kernels import NoiseModel

__all__ = [
    "SpectralOperator",
    "CoefficientVector",
    "contaminate",
    "apply_operator",
    "sample_density",
]


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class SpectralOperator:
    """Self-adjoint compact operator diagonal in the cosine basis on [0, 1].

    Eigenfunctions are phi_0(x) = 1 and phi_k(x) = sqrt(2) cos(pi k x); the
    eigenvalue sequence is b_0 = 1, b_k = k^(-decay). Self-adjointness makes
    the image basis coincide with the input basis, so unbiased coefficient
    estimation can evaluate the same functions at the observations.
    """

    decay: float = 1.0
    k_max: int = 64

    def __post_init__(self):
        if self.decay < 0:
            raise ConfigurationError("operator decay must be nonnegative")
        if self.k_max < 1:
            raise ConfigurationError("k_max must be at least 1")

    @property
    def singular_values(self) -> np.ndarray:
        k = np.arange(self.k_max + 1, dtype=float)
        vals = np.empty_like(k)
        vals[0] = 1.0
        vals[1:] = k[1:] ** (-self.decay)
        return vals

    def basis(self, x: np.ndarray, n_funcs: int | None = None) -> np.ndarray:
        """Matrix phi[k, j] = phi_k(x_j) for k = 0..n_funcs."""
        n = self.k_max if n_funcs is None else n_funcs
        if n > self.k_max:
            raise ConfigurationError(f"requested {n} basis functions, k_max={self.k_max}")
        x = np.asarray(x, dtype=float)
        k = np.arange(n + 1)[:, None]
        out = np.sqrt(2.0) * np.cos(np.pi * k * x[None, :])
        out[0, :] = 1.0
        return out


@dataclass(frozen=True)
class CoefficientVector:
    """Cosine-basis coefficients theta_k, k = 0..k_max."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if not np.all(np.isfinite(vals)):
            raise ModelError("coefficients must be finite")

    @property
    def k_max(self) -> int:
        return len(self.values) - 1

    def check_density_guard(self, tol: float = 1e-9) -> None:
        """Sufficient condition for pointwise nonnegativity of the density.

        Requires theta_0 = 1 (unit mass) and sum_(k>=1) sqrt(2)|theta_k| <= 1,
        which bounds the oscillating part below the constant term.
        """
        if abs(self.values[0] - 1.0) > tol:
            raise ModelError("density coefficients must have theta_0 = 1")
        osc = np.sqrt(2.0) * np.abs(self.values[1:]).sum()
        if osc > 1.0 + tol:
            raise ModelError(
                f"positivity guard violated: sqrt(2) * sum|theta_k| = {osc:.6f} > 1"
            )


def contaminate(x_draws: np.ndarray, noise: NoiseModel, seed) -> np.ndarray:
    """Add i.i.d. noise to direct draws: Z_i = X_i + eps_i.

    Reproducible: a fixed integer seed yields bitwise-identical output.
    ``x_draws`` is a one-dimensional array of n draws.
    """
    x = np.asarray(x_draws, dtype=float)
    if x.ndim != 1:
        raise ConfigurationError(f"draws must be a one-dimensional array, got shape {x.shape}")
    return x + noise.sample(_as_rng(seed), x.shape[0])


def apply_operator(coeffs: CoefficientVector, op: SpectralOperator,
                   grid: Grid) -> np.ndarray:
    """Tabulate the image density sum_k b_k theta_k phi_k on the grid.

    The input must satisfy the positivity guard; the output is checked to be
    a valid density (nonnegative, unit mass under the grid quadrature).
    """
    coeffs.check_density_guard()
    n = min(coeffs.k_max, op.k_max)
    phi = op.basis(grid.axis(), n)
    vals = (op.singular_values[: n + 1] * coeffs.values[: n + 1]) @ phi
    if np.any(vals < -1e-9):
        raise ModelError("operator image is negative on the grid")
    vals = np.clip(vals, 0.0, None)
    mass = grid.integrate(vals)
    if abs(mass - 1.0) > 1e-6:
        raise ModelError(f"operator image integrates to {mass}, expected 1")
    return vals


def sample_density(values: np.ndarray, grid: Grid, n: int, seed) -> np.ndarray:
    """Draw n i.i.d. points from tabulated density values by inverse CDF.

    The CDF is the cumulative trapezoid integral of the node values, inverted
    by linear interpolation; draws are reproducible from the seed.
    """
    vals = np.asarray(values, dtype=float)
    if np.any(vals < 0):
        raise ModelError("density values must be nonnegative")
    x = grid.axis()
    h = grid.spacing
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * h * (vals[1:] + vals[:-1]))])
    total = cdf[-1]
    if total <= 0:
        raise ModelError("density has zero mass on the grid")
    cdf /= total
    rng = _as_rng(seed)
    u = rng.random(n)
    # np.interp needs strictly increasing xp on flat CDF stretches; jitter-free
    # searchsorted interpolation handles zero-density cells exactly.
    idx = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, len(x) - 2)
    gap = cdf[idx + 1] - cdf[idx]
    frac = np.where(gap > 0, (u - cdf[idx]) / np.where(gap > 0, gap, 1.0), 0.0)
    return x[idx] + frac * h

