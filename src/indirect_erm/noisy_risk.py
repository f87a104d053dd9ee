"""Modified losses and empirical risks built from contaminated observations.

The regularized loss of a classifier is the quadrature of its pointwise
loss against the noise-corrected kernel. Because the observation grid, the
quadrature grid, and the kernel offsets share one spacing, the table path,
the per-observation quadrature path, and the plug-in density path are the
same bilinear form evaluated in different orders and agree to rounding.
The pipeline evaluates it through the backends of ``erm``, which bin a
sample once (``bin_draws``) and convolve it with the kernel only where the
runs of a class need it pointwise (``ObservationLattice.kernel_window``);
the per-classifier tables here (``ModifiedLossTable``,
``modified_loss_deconv``, ``empirical_risk``) and ``plug_in_density`` are
the kernel backend's reference order, which the tests compare against.
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
    "empirical_risk",
    "bin_draws",
    "plug_in_density",
    "zero_extended_density",
    "contaminated_density",
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


def _log_clamped(z: np.ndarray, lo: float, hi: float) -> None:
    """Log how many observations fall outside [lo, hi] and get clamped to it."""
    global _clamp_seen
    n_clamped = int(np.sum((z < lo) | (z > hi)))
    if n_clamped:
        level = logging.DEBUG if _clamp_seen else logging.WARNING
        _clamp_seen = True
        logger.log(level, "clamping %d observation(s) outside the lattice range "
                   "(later clamp events log at DEBUG)", n_clamped)


@dataclass(frozen=True)
class NoisySample:
    """Labeled contaminated observations (z_i, y_i): one-dimensional arrays
    of finite draws and of labels that are each 0 or 1."""

    z: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        y = np.asarray(self.y)
        if z.ndim != 1 or y.ndim != 1:
            raise DataError(f"observations and labels must be one-dimensional arrays, "
                            f"got shapes {z.shape} and {y.shape}")
        if not np.all(np.isfinite(z)):
            raise DataError("observations must be finite")
        if not np.all((y == 0) | (y == 1)):
            raise DataError("labels must be 0 or 1")
        y = y.astype(int)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "y", y)
        if z.shape[0] != y.shape[0]:
            raise DataError("observations and labels differ in length")
        if z.shape[0] < 1:
            raise DataError("sample must contain at least one observation")

    @property
    def n(self) -> int:
        return int(self.z.shape[0])

    def counts(self) -> dict[int, int]:
        return {lab: int(np.sum(self.y == lab)) for lab in (0, 1)}


@dataclass(frozen=True)
class ObservationLattice:
    """Shared discretization for one bandwidth: padded grid + aligned kernel.

    ``nodes``/``weights`` extend the scenario domain far enough to absorb
    contaminated observations; the kernel offsets run over every node
    difference at the domain's ``spacing``, the one that built the nodes and
    the weights, so discrete convolutions against node functions are exact
    sums. ``base_scaled`` is the bandwidth-scaled base kernel on the same
    offsets (the noise-free twin of ``kernel``); it is built on first use,
    since only bias diagnostics read it. ``whole_window`` holds the real
    FFT of ``kernel`` at the shortest 5-smooth length whose circular
    convolution against a node function leaves the 'valid' outputs free of
    wraparound (at least 2P - 1 for P nodes); it is computed on first use
    and cached on the lattice, so every ``convolve`` with the kernel
    (plug-in densities, reference tables) reuses it.
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

    @cached_property
    def whole_window(self) -> "KernelWindow":
        """The kernel's window over every node, built on first use."""
        return self.kernel_window(0, len(self.nodes))

    def convolve(self, values: np.ndarray, offset_values: np.ndarray | None = None) -> np.ndarray:
        """'valid' convolution of node values with a function on the kernel's
        2P - 1 offsets: P values, one per node.

        Without ``offset_values`` the function is ``kernel``, through the
        cached ``whole_window``. Same result as ``fftconvolve(values,
        offset_values, mode="valid")`` to rounding.
        """
        window = (self.whole_window if offset_values is None
                  else self.kernel_window(0, len(self.nodes), offset_values))
        return window.convolve(values).copy()

    def kernel_window(self, start: int, stop: int,
                      offset_values: np.ndarray | None = None) -> "KernelWindow":
        """``convolve`` with the kernel, or with ``offset_values``, at the
        nodes start .. stop - 1 only.

        Those D = stop - start outputs read the function at the P + D - 1
        offsets start - P + 1 .. stop - 1 alone, so a circular convolution
        at any length >= P + D - 1 (2P - 1 for the whole lattice) leaves
        them free of wraparound; the segment's spectrum is taken once here.
        """
        p = len(self.nodes)
        table = self.kernel.values[0] if offset_values is None else offset_values
        length = _next_fast_len(p + stop - start - 1)
        return KernelWindow(start=start, stop=stop, length=length,
                            spectrum=rfft(table[start: stop + p - 1], length))


@dataclass(frozen=True)
class KernelWindow:
    """A 'valid' convolution on the lattice (with its kernel, or another
    function on the kernel's offsets) restricted to the nodes ``start`` ..
    ``stop - 1``, at the FFT ``length`` of its ``spectrum``
    (``ObservationLattice.kernel_window``)."""

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
        _log_clamped(z, self.z_nodes[0], self.z_nodes[-1])
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


def empirical_risk(table: ModifiedLossTable, sample: NoisySample) -> float:
    """Mean of table lookups at the sample points."""
    total = 0.0
    for label in np.unique(sample.y):
        label = int(label)
        z_lab = sample.z[sample.y == label]
        total += float(np.sum(table.evaluate(z_lab, label)))
    return total / sample.n


def _cells(z: np.ndarray, nodes: np.ndarray, h: float) -> np.ndarray:
    """The cell i in [0, P - 2] of each draw z in [nodes[0], nodes[-1]], with
    nodes[i] < z <= nodes[i + 1] (i = 0 at the first node): exactly
    ``searchsorted(nodes, z) - 1``, clipped. The nodes are uniform at
    spacing h, so a floor index is off by at most one through rounding,
    and one node comparison each way corrects it.
    """
    idx = np.clip(np.floor((z - nodes[0]) / h).astype(np.intp), 0, len(nodes) - 2)
    idx -= nodes[idx] >= z
    idx += nodes[idx + 1] < z
    return np.clip(idx, 0, len(nodes) - 2, out=idx)


def bin_draws(z: np.ndarray, y: np.ndarray, lattice: ObservationLattice) -> np.ndarray:
    """Linear binning of labeled draws onto the lattice nodes: row y holds
    the binned mass of the label-y draws over the number of all draws, so
    the two rows are the empirical measures P_0 and P_1 on the nodes.

    Draws outside the lattice are clamped to its ends, with a logged count.
    """
    nodes, h, p = lattice.nodes, lattice.spacing, len(lattice.nodes)
    _log_clamped(z, nodes[0], nodes[-1])
    z = np.clip(z, nodes[0], nodes[-1])
    idx = _cells(z, nodes, h)
    frac = (z - nodes[idx]) / h
    rows = idx + p * y
    binned = np.bincount(np.concatenate([rows, rows + 1]),
                         weights=np.concatenate([1.0 - frac, frac]), minlength=2 * p)
    return binned.reshape(2, p) / z.size


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
    return lattice.convolve(bin_draws(z, np.zeros(z.size, dtype=np.intp), lattice)[0])


def zero_extended_density(scenario: Scenario, lattice: ObservationLattice,
                          label: int) -> np.ndarray:
    """Conditional density on the lattice nodes, zero outside the domain.

    Only nodes inside the domain are evaluated, so density formulas never
    see arguments outside their support.
    """
    nodes = lattice.nodes
    inside = (nodes >= scenario.domain.lower) & (nodes <= scenario.domain.upper)
    f = np.zeros(len(nodes))
    f[inside] = scenario.density(label, nodes[inside])
    return f


def contaminated_density(scenario: Scenario, lattice: ObservationLattice,
                         label: int) -> np.ndarray:
    """Density of the contaminated observation Z for one label, on the lattice.

    For additive noise this is the discrete convolution of the conditional
    density (zero-extended to the padded grid) with the tabulated noise
    density; for dirac noise it is the zero-extended density itself.
    """
    f = zero_extended_density(scenario, lattice, label)
    if lattice.noise.kind == "dirac":
        return f
    eta = lattice.noise.density(lattice.kernel.offsets[0])
    return lattice.convolve(lattice.weights * f, eta)


def base_smoothed_density(scenario: Scenario, lattice: ObservationLattice,
                          label: int) -> np.ndarray:
    """Conditional density smoothed by the bandwidth-scaled base kernel.

    The expectation of the noise-corrected kernel column at a contaminated
    observation equals the base-kernel column at the clean input, so the
    expected regularized risk is the quadrature of the raw loss against
    this smoothed density. This form avoids integrating the oscillatory
    corrected kernel and is the numerically stable route to expectations.
    """
    f = zero_extended_density(scenario, lattice, label)
    return lattice.convolve(lattice.weights * f, lattice.base_scaled.values[0])
