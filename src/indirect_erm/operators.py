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
    "basis_integrals",
    "contaminate",
    "apply_operator",
    "SamplerTable",
    "sampler_table",
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
    the image basis coincide with the input basis, so the spectral backend
    evaluates the same functions at the observations.
    """

    decay: float = 1.0
    k_max: int = 64

    def __post_init__(self):
        if self.decay < 0:
            raise ConfigurationError("operator decay must be nonnegative")
        if self.k_max < 1:
            raise ConfigurationError("k_max must be at least 1")
        if not np.all(self.singular_values >= np.finfo(float).tiny):  # NaN fails too
            raise ConfigurationError(f"decay {self.decay} makes a b_k up to k_max zero or NaN")

    @property
    def singular_values(self) -> np.ndarray:
        k = np.arange(self.k_max + 1, dtype=float)
        vals = np.empty_like(k)
        vals[0] = 1.0
        vals[1:] = k[1:] ** (-self.decay)
        return vals

    def basis(self, x: np.ndarray, n_funcs: int | None = None) -> np.ndarray:
        """Matrix phi[k, j] = phi_k(x_j) for k = 0..n_funcs.

        One ``cos`` per point: row k holds the Chebyshev polynomial
        T_k(c) = cos(pi k x) of c = cos(pi x), filled in place by
        T_k = 2c T_(k-1) - T_(k-2) from T_0 = 1, and rows 1..n are then
        scaled by sqrt(2). On [0, 1] it stays within 7e-15 of the direct
        sqrt(2) cos(pi k x) up to k = 6 and within 4e-13 up to k = 64.
        """
        n = self.k_max if n_funcs is None else n_funcs
        if n > self.k_max:
            raise ConfigurationError(f"requested {n} basis functions, k_max={self.k_max}")
        x = np.asarray(x, dtype=float)
        out = np.empty((n + 1, x.size))
        out[0] = 1.0
        if n >= 1:
            np.cos(np.pi * x, out=out[1])
            two_c = 2.0 * out[1]
            for k in range(2, n + 1):
                np.multiply(two_c, out[k - 1], out=out[k])
                out[k] -= out[k - 2]
            out[1:] *= np.sqrt(2.0)
        return out


def basis_integrals(a, b, cutoff: int) -> np.ndarray:
    """The integrals of phi_0 .. phi_cutoff over [a, b], one row per interval
    for bounds of one shape: x for k = 0, sqrt(2) sin(pi k x)/(pi k) else."""
    a, b = (np.asarray(v, dtype=float)[..., None] for v in (a, b))
    kk = np.arange(1, cutoff + 1, dtype=float)
    sines = np.sqrt(2.0) * (np.sin(np.pi * kk * b) - np.sin(np.pi * kk * a)) / (np.pi * kk)
    return np.concatenate([b - a, sines], axis=-1)


def contaminate(x_draws: np.ndarray, noise: NoiseModel, seed) -> np.ndarray:
    """Add i.i.d. noise to direct draws: Z_i = X_i + eps_i.

    Reproducible: a fixed integer seed yields bitwise-identical output.
    ``x_draws`` is a one-dimensional array of n draws.
    """
    x = np.asarray(x_draws, dtype=float)
    if x.ndim != 1:
        raise ConfigurationError(f"draws must be a one-dimensional array, got shape {x.shape}")
    return x + noise.sample(_as_rng(seed), x.shape[0])


def apply_operator(coefficients: np.ndarray, op: SpectralOperator,
                   grid: Grid) -> np.ndarray:
    """Tabulate the image density sum_k b_k theta_k phi_k on the grid.

    The input's cosine coefficients theta_k must be finite and pass the
    positivity guard, theta_0 = 1 (unit mass) and sum_(k>=1) sqrt(2)
    |theta_k| <= 1, a sufficient condition for a nonnegative density. The
    output is checked to be a valid density (nonnegative, unit mass under
    the grid quadrature). Each check raises ``ModelError``.
    """
    theta = np.asarray(coefficients, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise ModelError("coefficients must be finite")
    if abs(theta[0] - 1.0) > 1e-9:
        raise ModelError("density coefficients must have theta_0 = 1")
    osc = np.sqrt(2.0) * np.abs(theta[1:]).sum()
    if osc > 1.0 + 1e-9:
        raise ModelError(f"positivity guard violated: sqrt(2) * sum|theta_k| = {osc:.6f} > 1")
    n = min(len(theta) - 1, op.k_max)
    phi = op.basis(grid.axis(), n)
    vals = (op.singular_values[: n + 1] * theta[: n + 1]) @ phi
    if np.any(vals < -1e-9):
        raise ModelError("operator image is negative on the grid")
    vals = np.clip(vals, 0.0, None)
    mass = grid.integrate(vals)
    if abs(mass - 1.0) > 1e-6:
        raise ModelError(f"operator image integrates to {mass}, expected 1")
    return vals


@dataclass(frozen=True, eq=False)
class SamplerTable:
    """Inverse-CDF table of one tabulated density, built by ``sampler_table``.

    ``cdf`` is the normalized cumulative trapezoid integral of the node
    values and ``gap[i] = cdf[i + 1] - cdf[i]``. The guide table (indexed
    search: Chen & Asau 1974; Devroye 1986, section III.2.4) splits [0, 1)
    into G = 16 * (grid points) equal cells; ``guide[k]`` is the CDF cell of
    u = k / G, and ``searched[k]`` marks the guide cells that contain a CDF
    node, where the CDF cell is not known from k alone. Every array is
    read-only.
    """

    nodes: np.ndarray
    spacing: float
    cdf: np.ndarray
    gap: np.ndarray
    guide: np.ndarray
    searched: np.ndarray

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """The inverse CDF at uniforms u in [0, 1), linear within each cell.

        G is a power of two, so u * G is exact and its floor is the guide
        cell of u; only the draws in ``searched`` cells are binary-searched.
        Each u lands in the cell i with cdf[i] <= u < cdf[i + 1], so its
        gap is positive.
        """
        k = (u * len(self.guide)).astype(np.intp)
        idx = self.guide[k]
        hard = np.flatnonzero(self.searched[k])
        idx[hard] = np.searchsorted(self.cdf, u[hard], side="right") - 1
        frac = (u - self.cdf[idx]) / self.gap[idx]
        return self.nodes[idx] + frac * self.spacing


_GUIDE_CELLS_PER_NODE = 16


def sampler_table(values: np.ndarray, grid: Grid) -> SamplerTable:
    """The inverse-CDF table of tabulated density values on the grid.

    Raises ``ModelError``, before any draw, for a negative, NaN or infinite
    value and for a density with zero mass.
    """
    vals = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(vals) & (vals >= 0)):
        raise ModelError("density values must be finite and nonnegative")
    h = grid.spacing
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * h * (vals[1:] + vals[:-1]))])
    total = cdf[-1]
    if total <= 0:
        raise ModelError("density has zero mass on the grid")
    cdf /= total
    cells = _GUIDE_CELLS_PER_NODE * grid.points_per_dim  # a power of two
    # the CDF cell of u = k / G for k = 0..G; u = 1 caps at the last cell
    guide = np.minimum(np.searchsorted(cdf, np.arange(cells + 1) / cells, side="right") - 1,
                       len(cdf) - 2)
    table = SamplerTable(nodes=grid.axis(), spacing=h, cdf=cdf, gap=np.diff(cdf),
                         guide=guide[:-1], searched=guide[:-1] != guide[1:])
    for arr in (table.nodes, table.cdf, table.gap, table.guide, table.searched):
        arr.setflags(write=False)
    return table


def sample_density(table: SamplerTable, n: int, seed) -> np.ndarray:
    """Draw n i.i.d. points from a sampler table by inverse CDF.

    The CDF is the cumulative trapezoid integral of the density's node
    values, inverted by linear interpolation (``SamplerTable.quantile``);
    draws are reproducible from the seed. The guide table finds each
    uniform's CDF cell, binary-searching only the few that share a guide
    cell with a CDF node; the interpolation is the same arithmetic, in the
    same order, as a fresh CDF build and a full search, so the draws are
    bit-identical to that.
    """
    return table.quantile(_as_rng(seed).random(n))
