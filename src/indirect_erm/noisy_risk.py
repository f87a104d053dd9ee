"""Modified losses and empirical risks built from contaminated observations.

A sample (``NoisySample``) is its two label groups: under the hard loss
the regularized empirical risk reads the draws only through their
label-wise empirical measures P_0 and P_1, so no label array is kept.

The regularized loss of a classifier is the quadrature of its pointwise
loss against the noise-corrected kernel. Because the observation grid, the
quadrature grid, and the kernel offsets share one spacing, the table path,
the per-observation quadrature path, and the plug-in density path are the
same bilinear form evaluated in different orders and agree to rounding.
The pipeline evaluates it through the backends of ``erm``, which bin a
sample once (``bin_draws``) and convolve it with the kernel only where the
runs of a class need it pointwise (``ObservationLattice.kernel_window``);
the per-classifier tables here (``ModifiedLossTable``,
``modified_loss_deconv``) and ``plug_in_density`` are the kernel backend's
reference order, which the tests compare against.
The backend itself keeps no loss table: it reads each loss row off the
kernel's cumulative sum at the nodes it needs.
The spectral backend has no table here: ``erm.SvdBackend`` evaluates its
loss from the basis integrals and the basis of ``operators``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.fft import irfft, rfft

from .errors import DataError
from .grid import Grid, padded_axis
from .hypotheses import Scenario, loss_values, window_mask
from .kernels import (
    NoiseModel,
    TabulatedKernel,
    build_base_kernel,
    build_deconvolution_kernel,
    dirac_noise,
)

logger = logging.getLogger(__name__)

# first clamp event in a process logs at WARNING, later ones at DEBUG
_clamp_seen = False

__all__ = [
    "NoisySample",
    "ObservationLattice",
    "ModifiedLossTable",
    "build_lattice",
    "modified_loss_deconv",
    "bin_draws",
    "plug_in_density",
    "zero_extended_density",
]


def _next_fast_len(target: int) -> int:
    """The smallest 5-smooth integer 2^a 3^b 5^c at or above ``target`` >= 1:
    for each 3^b 5^c below the best length so far, the power of two that
    lifts it to ``target``."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            quotient = -(-target // p35)
            best = min(best, p35 << (quotient - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _log_clamped(groups, lo: float, hi: float) -> None:
    """Log in one event how many draws of the groups fall outside [lo, hi]."""
    global _clamp_seen
    n_clamped = sum(np.count_nonzero((z < lo) | (z > hi)) for z in groups)
    if n_clamped:
        level = logging.DEBUG if _clamp_seen else logging.WARNING
        _clamp_seen = True
        logger.log(level, "clamping %d observation(s) outside the lattice range "
                   "(later clamp events log at DEBUG)", n_clamped)


@dataclass(frozen=True, init=False)
class NoisySample:
    """Frozen labeled draws, held as their two label groups: ``groups[y]``
    holds the label-y draws in draw order (the empirical measures P_0 and
    P_1), not copied. Two one-dimensional groups of finite draws, with at
    least one draw between them; anything else is a ``DataError``."""

    groups: tuple[np.ndarray, np.ndarray]

    def __init__(self, groups):
        groups = tuple(np.asarray(z, dtype=float) for z in groups)
        if len(groups) != 2 or any(z.ndim != 1 for z in groups):
            raise DataError(f"a sample is two one-dimensional label groups, got shapes "
                            f"{[z.shape for z in groups]}")
        if not any(z.size for z in groups):
            raise DataError("sample must contain at least one observation")
        if not all(np.all(np.isfinite(z)) for z in groups):
            raise DataError("observations must be finite")
        object.__setattr__(self, "groups", groups)

    @property
    def n(self) -> int:
        return sum(len(z) for z in self.groups)

    def counts(self) -> dict[int, int]:
        return {label: len(z) for label, z in enumerate(self.groups)}


@dataclass(frozen=True)
class ObservationLattice:
    """Shared discretization for one bandwidth: padded grid + aligned kernel.

    ``nodes``/``weights`` extend the scenario domain far enough to absorb
    contaminated observations; the kernel offsets run over every node
    difference at the domain's ``spacing``, the one that built the nodes and
    the weights, so discrete convolutions against node functions are exact
    sums. ``base_scaled`` is the bandwidth-scaled base kernel on the same
    offsets (the noise-free twin of ``kernel``); it is built on first use,
    since only expected risks read it
    (``DeconvolutionBackend.expected_features``), never a trial.
    """

    domain: Grid
    nodes: np.ndarray
    weights: np.ndarray
    kernel: TabulatedKernel
    noise: NoiseModel

    @property
    def bandwidth(self) -> float:
        return self.kernel.bandwidth

    @property
    def spacing(self) -> float:
        return self.domain.spacing

    @cached_property
    def base_scaled(self) -> TabulatedKernel:
        return build_deconvolution_kernel(self.kernel, dirac_noise(), self.bandwidth)

    def convolve(self, values: np.ndarray) -> np.ndarray:
        """'valid' convolution of node values with the kernel on its 2P - 1
        offsets: P values, one per node, through the window over every node,
        at the shortest 5-smooth length free of wraparound (at least
        2P - 1). Same result as ``fftconvolve(values, kernel, mode="valid")``
        to rounding. Only the reference orders call it.
        """
        return self.kernel_window(0, len(self.nodes)).convolve(values).copy()

    def kernel_window(self, start: int, stop: int) -> "KernelWindow":
        """``convolve`` at the nodes start .. stop - 1 only.

        Those D = stop - start outputs read the function at the P + D - 1
        offsets start - P + 1 .. stop - 1 alone, so a circular convolution
        at any length >= P + D - 1 (2P - 1 for the whole lattice) leaves
        them free of wraparound; the segment's spectrum is taken once here.
        """
        p = len(self.nodes)
        length = _next_fast_len(p + stop - start - 1)
        return KernelWindow(start=start, stop=stop, length=length,
                            spectrum=rfft(self.kernel.values[0][start: stop + p - 1], length))


@dataclass(frozen=True)
class KernelWindow:
    """A 'valid' convolution with the lattice's kernel restricted to the
    nodes ``start`` .. ``stop - 1``, at the FFT ``length`` of its
    ``spectrum`` (``ObservationLattice.kernel_window``)."""

    start: int
    stop: int
    length: int
    spectrum: np.ndarray

    def convolve(self, values: np.ndarray) -> np.ndarray:
        """The D = stop - start outputs of ``ObservationLattice.convolve(values)``
        at the window's nodes, to rounding."""
        p = len(values)
        full = irfft(self.spectrum * rfft(values, self.length), self.length)
        return full[p - 1: p - 1 + self.stop - self.start]


def build_lattice(grid: Grid, noise: NoiseModel, bandwidth: float,
                  base_kind: str = "sinc", pad_factor: float = 4.0) -> ObservationLattice:
    """Assemble the padded observation grid and the aligned scaled kernel.

    Padding is ``pad_factor * max(bandwidth, noise scale)`` per side, after
    which observations are clamped to the boundary (with a logged count).
    """
    margin = pad_factor * max(float(bandwidth), noise.std)
    nodes, weights = padded_axis(grid, margin)
    m = len(nodes) - 1
    offsets = grid.spacing * np.arange(-m, m + 1)
    base = build_base_kernel(base_kind, grid, offsets=offsets)
    kernel = build_deconvolution_kernel(base, noise, bandwidth)
    return ObservationLattice(domain=grid, nodes=nodes, weights=weights,
                              kernel=kernel, noise=noise)


@dataclass(frozen=True)
class ModifiedLossTable:
    """Per-label tables of the regularized loss of one classifier.

    ``values[label]`` holds the table on ``z_nodes``; queries interpolate
    linearly and clamp out-of-range observations to the boundary value
    (clamp counts are logged: the first time in a process at WARNING,
    later at DEBUG).
    """

    z_nodes: np.ndarray
    values: dict

    def evaluate(self, z: np.ndarray, label: int) -> np.ndarray:
        if label not in self.values:
            raise DataError(f"no table for label {label}")
        z = np.asarray(z, dtype=float)
        _log_clamped((z,), self.z_nodes[0], self.z_nodes[-1])
        return np.interp(z, self.z_nodes, self.values[label])


def modified_loss_deconv(clf, lattice: ObservationLattice, labels=(0, 1),
                         window: tuple[float, float] | None = None) -> ModifiedLossTable:
    """Regularized loss table: quadrature of the loss against the scaled kernel.

    The integration runs over the padded grid (the classifier's natural
    extension beyond the domain is used); ``window`` restricts it to a
    compact subinterval instead.
    """
    x = lattice.nodes
    mask = None if window is None else window_mask(x, window)
    values = {}
    for label in labels:
        lv = loss_values(clf, label, x)
        if mask is not None:
            lv = np.where(mask, lv, 0.0)
        values[label] = lattice.convolve(lattice.weights * lv)
    return ModifiedLossTable(z_nodes=x, values=values)


def _cells(z: np.ndarray, nodes: np.ndarray, h: float) -> np.ndarray:
    """The cell i in [0, P - 2] of each draw z in [nodes[0], nodes[-1]], with
    nodes[i] < z <= nodes[i + 1] (i = 0 at the first node): exactly
    ``searchsorted(nodes, z) - 1``, clipped. A floor index on the nodes,
    uniform at spacing h, is off by at most one through rounding, and one
    node comparison each way, gathered into the floor's vector, corrects it.
    """
    scratch = np.subtract(z, nodes[0])
    idx = np.floor(np.divide(scratch, h, out=scratch), out=scratch).astype(np.intp)
    np.clip(idx, 0, len(nodes) - 2, out=idx)
    idx -= np.take(nodes, idx, mode="clip", out=scratch) >= z  # "clip": no temporary
    idx += np.take(nodes[1:], idx, mode="clip", out=scratch) < z  # -1 gathers node 1 >= z
    return np.clip(idx, 0, len(nodes) - 2, out=idx)


def bin_draws(groups, lattice: ObservationLattice) -> np.ndarray:
    """Linear binning onto the lattice nodes of groups of draws, clamped to its
    ends with one logged count: a row per group over all draws (P_0 and P_1).
    The draws are laid end to end once, in the right cell ends' half of the
    2n ``bincount`` weights, and turn into their fracs there."""
    nodes, h, p = lattice.nodes, lattice.spacing, len(lattice.nodes)
    _log_clamped(groups, nodes[0], nodes[-1])
    n = sum(len(g) for g in groups)
    weights = np.empty(2 * n)
    frac = np.clip(np.concatenate(groups, out=weights[n:]), nodes[0], nodes[-1], out=weights[n:])
    cells = _cells(frac, nodes, h)
    frac -= np.take(nodes, cells, mode="clip", out=weights[:n])
    frac /= h
    np.subtract(1.0, frac, out=weights[:n])
    for start in np.cumsum([len(g) for g in groups[:-1]]):
        cells[start:] += p  # each later group's draws bin one row further down
    cells = np.concatenate((cells, cells))
    cells[n:] += 1
    binned = np.bincount(cells, weights=weights, minlength=len(groups) * p)
    return np.divide(binned, n, out=binned).reshape(len(groups), p)


def plug_in_density(z_draws: np.ndarray, lattice: ObservationLattice) -> np.ndarray:
    """Noise-corrected density estimate on the lattice nodes.

    Each observation contributes the interpolated kernel column; computed by
    linear binning followed by one discrete convolution, which reproduces
    the per-observation sum exactly because the table kernel is piecewise
    linear between grid-aligned knots. Values may be negative. Observations
    outside the lattice are clamped to its ends, with a logged count.
    """
    z = np.asarray(z_draws, dtype=float)
    if z.size == 0:
        raise DataError("plug-in density needs at least one observation")
    return lattice.convolve(bin_draws((z,), lattice)[0])


def _domain_nodes(scenario: Scenario, lattice: ObservationLattice) -> slice:
    """The lattice nodes inside the scenario's domain, a contiguous run."""
    nodes = lattice.nodes
    inside = np.flatnonzero((nodes >= scenario.domain.lower) & (nodes <= scenario.domain.upper))
    return slice(int(inside[0]), int(inside[-1]) + 1)


def zero_extended_density(scenario: Scenario, lattice: ObservationLattice,
                          label: int) -> np.ndarray:
    """Conditional density on the lattice nodes, zero outside the domain.

    Only nodes inside the domain (``_domain_nodes``) are evaluated, so
    density formulas never see arguments outside their support.
    """
    inside = _domain_nodes(scenario, lattice)
    f = np.zeros(len(lattice.nodes))
    f[inside] = scenario.density(label, lattice.nodes[inside])
    return f
