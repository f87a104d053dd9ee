"""Band-limited smoothing kernels and their noise-corrected versions.

Base kernels have compactly supported Fourier transforms (the transform
lives in [-1, 1]). The noise-corrected kernel divides that transform by
the noise characteristic function before inverting, which undoes additive
measurement error in expectation. The paper's kernels on R^d are products
of such univariate factors; this package works on the line, so every
table here is one univariate factor.

Tables are produced by numerically inverting the Fourier integral with
composite 16-point Gauss-Legendre panels sized to the integrand: to the
oscillation of the offsets, with a panel edge where the flat-top symbol's
ramp starts (``_panel_rule``). Against a rule with 8 times the panels every
table lies within a few 1e-15 of its largest |value|. A base kernel is its kind
and its checked offset grid; its table is inverted only when ``values`` is
first read, since the lattices read only its kind and its offsets.
Offset grids are uniform and symmetric about 0, and the integrand is
even, so only the upper half of the offsets is evaluated and mirrored:
every table is exactly even. Uniform offsets also let the cosines of the
inversion factor by angle addition about block centres, so one pair of
small matrix products serves the offsets on both sides of each centre
(``_invert_symbol``).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, IllPosednessError
from .grid import Grid, trapezoid_weights

__all__ = [
    "NoiseModel",
    "TabulatedKernel",
    "dirac_noise",
    "laplace_noise",
    "build_base_kernel",
    "build_deconvolution_kernel",
    "kernel_fourier_sup",
    "kernel_fourier_l2",
    "base_symbol",
]

BASE_KINDS = ("sinc", "order_m_flat_top")

# Smallest admissible characteristic-function modulus where the kernel
# symbol is active; below this the inversion is declared ill-posed.
MIN_NOISE_FOURIER = 1e-12


# ---------------------------------------------------------------------------
# noise models
# ---------------------------------------------------------------------------

# Densities with characteristic function (1+t^2)^-k: the k-fold
# self-convolutions of the standard symmetric Laplace law.
def _laplace_fold_density(x: np.ndarray, folds: int) -> np.ndarray:
    a = np.abs(x)
    if folds == 1:
        return 0.5 * np.exp(-a)
    if folds == 2:
        return 0.25 * (1.0 + a) * np.exp(-a)
    if folds == 3:
        return (3.0 + 3.0 * a + a * a) * np.exp(-a) / 16.0
    raise ConfigurationError(f"unsupported Laplace fold count {folds}")


@dataclass(frozen=True)
class NoiseModel:
    """Additive-noise law entering the contaminated observations.

    ``kind`` is ``"dirac"`` (no noise) or ``"laplace_like"``, the symmetric
    Laplace law and its self-convolutions. ``beta`` is the polynomial decay
    rate of the characteristic function modulus; Laplace-type exponents are
    restricted to {2, 4, 6} so the characteristic function and density stay
    in closed form. Dirac noise ignores ``beta``.
    """

    kind: str
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("dirac", "laplace_like"):
            raise ConfigurationError(f"unknown noise kind {self.kind!r}")
        object.__setattr__(self, "beta", float(self.beta))
        if self.kind == "laplace_like" and self.beta not in (2.0, 4.0, 6.0):
            raise ConfigurationError(
                f"laplace_like decay exponent must be in {{2, 4, 6}}, got {self.beta}"
            )

    @property
    def std(self) -> float:
        """Standard deviation; 0 for dirac."""
        return 0.0 if self.kind == "dirac" else float(np.sqrt(self.beta))  # var = 2k = beta

    def fourier(self, t: np.ndarray) -> np.ndarray:
        """Characteristic function, evaluated in closed form."""
        t = np.asarray(t, dtype=float)
        if self.kind == "dirac":
            return np.ones_like(t)
        return (1.0 + t * t) ** (-int(self.beta / 2))

    def density(self, x: np.ndarray) -> np.ndarray:
        """Noise density; dirac has no density (raises)."""
        if self.kind == "dirac":
            raise ConfigurationError("dirac noise has no Lebesgue density")
        return _laplace_fold_density(np.asarray(x, dtype=float), int(self.beta / 2))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw noise variates."""
        if self.kind == "dirac":
            return np.zeros(size)
        return rng.laplace(0.0, 1.0, size=(int(self.beta / 2), size)).sum(axis=0)


def dirac_noise() -> NoiseModel:
    return NoiseModel("dirac")


def laplace_noise(beta: float = 2.0) -> NoiseModel:
    """Laplace-type noise with characteristic function (1+t^2)^(-beta/2)."""
    return NoiseModel("laplace_like", beta)


# ---------------------------------------------------------------------------
# base kernel symbols (Fourier transforms, supported in [-1, 1])
# ---------------------------------------------------------------------------

def _smooth_step(u: np.ndarray) -> np.ndarray:
    """C-infinity step from 0 at u<=0 to 1 at u>=1 (exponential partition)."""
    u = np.clip(u, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(u > 0.0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        b = np.where(u < 1.0, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return a / (a + b)


def base_symbol(kind: str, t: np.ndarray) -> np.ndarray:
    """Fourier transform of a univariate base kernel.

    ``sinc``: indicator of [-1, 1].
    ``order_m_flat_top``: 1 on [-1/2, 1/2], then an infinitely smooth ramp
    down to 0 at |t| = 1. A transform identically 1 near the origin makes
    every moment of the kernel vanish, so the flat-top kernel has arbitrary
    order; the smooth ramp gives it super-polynomially decaying tails.
    """
    t = np.abs(np.asarray(t, dtype=float))
    if kind == "sinc":
        return (t <= 1.0).astype(float)
    if kind == "order_m_flat_top":
        ramp = 1.0 - _smooth_step(2.0 * t - 1.0)
        return np.where(t <= 0.5, 1.0, np.where(t <= 1.0, ramp, 0.0))
    raise ConfigurationError(f"unknown base kernel kind {kind!r}")


# ---------------------------------------------------------------------------
# Fourier inversion on Gauss-Legendre panels
# ---------------------------------------------------------------------------

# Half-width R of the centred offset blocks of ``_invert_symbol``, the
# number T of block centres per chunk, and the panels of ``_panel_rule``: at
# most _PANEL_PHASE radians of the phase s v per panel, and at least
# _RAMP_PANELS panels on the flat-top ramp. The products take (1 + 1/R) S
# multiply-adds per offset, for S quadrature nodes. Measured on the laplace
# lattice's 25,195 offsets (2 vCPU), against the same symbol on a uniform
# rule with 8 times the panels:
# - 7.5 rad and 10 ramp panels keep every table within 2.5e-15 of its
#   largest |value| (both base kinds, dirac and laplace(2) noise, lambda
#   0.1 .. 0.6 and the base kernel at 1; 3.8e-15 at lambda 0.05 with
#   laplace(6)). 6 ramp panels leave the flat-top 1.4e-13 off, 10 and
#   12.5 rad leave it 6e-15 and 1.3e-14 off at lambda 0.05.
# - The five diagnose flat-top inversions (lambda 0.1 .. 0.5, S = 304 ..
#   192) took 9.6 ms at R = 32, T = 14, 12.0 ms at R = 16 and 9.1-10.8 ms
#   for R in {32, 48, 64} and T in {8 .. 28}, within the noise; the uniform
#   2.5 rad panels of before (S = 800 .. 160) took about 1.6 times as long.
#   R = 32 is the smallest R at that level, so the (R + 1) x S factors
#   stay small.
_HALF_BLOCK = 32
_CHUNK = 14
_PANEL_PHASE = 7.5
_RAMP_PANELS = 10

# the 16-point Gauss-Legendre rule's nodes x > 0 and weights, as leggauss(16);
# tuples, since two arrays made at import raised svd-rates' peak RSS 0.1 MiB
_GAUSS_X = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
             0.6178762444026438, 0.755404408355003, 0.8656312023878318,
             0.9445750230732326, 0.9894009349916499)
_GAUSS_W = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
             0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
             0.062253523938647456, 0.027152459411754176)


def _gauss_rule(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights of the 16-point Gauss-Legendre rule on each panel
    between consecutive ``edges``."""
    half_x, half_w = np.array(_GAUSS_X), np.array(_GAUSS_W)
    x, w = np.r_[-half_x[::-1], half_x], np.r_[half_w[::-1], half_w]
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _panel_rule(kind: str, s_max: float, v_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for integrating base_symbol(kind, s / s_max) cos(sv)
    over [0, s_max], |v| <= v_max.

    The flat-top symbol's ramp starts at s_max / 2, so a panel edge sits
    there and the ramp gets at least _RAMP_PANELS panels; sinc has no
    interior break. Every panel is also sized so the phase s v advances at
    most _PANEL_PHASE radians across it.
    """
    def edges(lo, hi, least):
        return np.linspace(lo, hi, max(least, math.ceil((hi - lo) * v_max / _PANEL_PHASE)) + 1)

    if kind == "order_m_flat_top":
        ramp = 0.5 * s_max
        return _gauss_rule(np.r_[edges(0.0, ramp, 1)[:-1], edges(ramp, s_max, _RAMP_PANELS)])
    return _gauss_rule(edges(0.0, s_max, 1))


def _invert_symbol(symbol_values: np.ndarray, s_nodes: np.ndarray,
                   s_weights: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Evaluate (1/pi) * int_0^smax symbol(s) cos(s v) ds at each offset v.

    The integral is even in v, so only the upper half of the symmetric
    offset grid (from the 0 node on for odd lengths, the positive offsets
    for even ones) is evaluated; the lower half is its mirror image and the
    table is exactly even. The grid must also be uniform, at spacing h.

    The M upper offsets then fall into J = ceil(M / 2R) blocks of 2R (the
    last one's values past M are dropped), and block j is c_j + rho h about
    its centre c_j = upper[0] + (2R j + R) h, for -R <= rho < R. With
    coef = weight * symbol at the S quadrature nodes s,
    P = sum_s coef cos(s c_j) cos(s rho h) and
    Q = sum_s coef sin(s c_j) sin(s rho h) for rho = 0..R,
    the block's values are P - Q at c_j + rho h and P + Q at c_j - rho h.
    So one (J x S)(S x (R+1)) pair of products serves both sides of each
    centre: M S (1 + 1/R) multiply-adds, where splitting each offset from
    a coarse point below it takes 2 M S. The centres are taken T at a time,
    j = T q + t, and c_j = A_q + B_t with A_q = upper[0] + (R + 2R T q) h
    and B_t = 2R t h. The centre sines and cosines then come by angle
    addition from one chunk's A_q and the T factors of B_t, which carry
    ``coef``: the sines and cosines of J/T + T + R + 1 rows of S, and no
    J x S block is formed. The offsets are checked where they enter
    (``_checked_grid``); any length, one offset included, inverts.

    ``einsum`` forms the products on the calling thread. ``@`` would hand
    them to BLAS: OpenBLAS 0.3.31 keeps products this small (T x S by
    S x (R + 1)) on the calling thread too (its worker threads took no
    CPU time in diagnose runs) and takes them in a fifth of the time, but
    its GEMM buffers raised ``peak_rss_mb`` by 0.13-0.19 MiB on the
    laplace diagnose benchmark and 0.04-0.07 MiB on the laplace rate
    benchmark, where the bound is 0.1 MiB. The worker threads that once
    spun and doubled a run's CPU time were started by lattice-length dot
    products, not by these.
    """
    h = (offsets[-1] - offsets[0]) / max(len(offsets) - 1, 1)
    upper = offsets[len(offsets) // 2:]
    r, t = _HALF_BLOCK, _CHUNK
    coef = s_weights * symbol_values
    phase = np.outer(h * np.arange(r + 1), s_nodes)
    sin_r, cos_r = np.sin(phase), np.cos(phase, out=phase)
    phase = np.outer(2 * r * h * np.arange(t), s_nodes)
    sin_b = np.sin(phase)
    cos_b = np.cos(phase, out=phase)
    sin_b *= coef
    cos_b *= coef
    blocks = -(-len(upper) // (2 * r))
    out = np.empty((blocks, 2 * r))
    for first in range(0, blocks, t):
        rows = out[first:first + t]
        phase_a = (upper[0] + (r + 2 * r * first) * h) * s_nodes
        sin_a, cos_a = np.sin(phase_a), np.cos(phase_a)
        cb, sb = cos_b[:len(rows)], sin_b[:len(rows)]
        cos_c = cos_a * cb
        cos_c -= sin_a * sb
        sin_c = sin_a * cb
        sin_c += cos_a * sb
        p = np.einsum("ts,rs->tr", cos_c, cos_r)
        q = np.einsum("ts,rs->tr", sin_c, sin_r)
        np.add(p[:, r:0:-1], q[:, r:0:-1], out=rows[:, :r])
        np.subtract(p[:, :r], q[:, :r], out=rows[:, r:])
    out = out.ravel()[:len(upper)] / np.pi
    return np.concatenate([out[len(offsets) % 2:][::-1], out])


# ---------------------------------------------------------------------------
# tabulated kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TabulatedKernel:
    """Univariate kernel tabulated on a symmetric uniform offset grid.

    The grid is held as its ``size`` and ``spacing`` (checked where offsets
    enter, ``build_base_kernel``): ``offsets``, a one-element tuple holding
    it, is made when first read, since no trial reads it. ``values`` holds
    the table, the inverse Fourier integral of
    ``base_symbol(lambda s) / noise(s)``, inverted when first read. At
    ``bandwidth`` 1 with dirac noise (``build_base_kernel``) the values are
    the unscaled base kernel K(u).
    Otherwise (``build_deconvolution_kernel``, which reads them at once)
    they are the bandwidth-scaled, noise-corrected kernel
    (1/lambda) K_eta(v/lambda) tabulated in observation-offset units v, so
    discrete convolution against grid functions needs no further rescaling.
    """

    size: int
    spacing: float
    bandwidth: float
    base_kind: str
    noise: NoiseModel = field(default_factory=dirac_noise)

    def _grid(self) -> np.ndarray:
        """The offsets, spacing * (k - (size - 1) / 2) for k = 0 .. size - 1."""
        return self.spacing * (np.arange(self.size) - (self.size - 1) / 2)

    @cached_property
    def offsets(self) -> tuple[np.ndarray]:
        """The offset grid, in a one-element tuple, made when first read."""
        return (self._grid(),)

    @cached_property
    def values(self) -> tuple[np.ndarray]:
        """The table on the offsets, in a one-element tuple; an
        ``IllPosednessError`` where the noise characteristic function falls
        below ``MIN_NOISE_FOURIER`` on the symbol's support."""
        off, lam = self._grid(), self.bandwidth
        s_nodes, s_weights = _panel_rule(self.base_kind, 1.0 / lam, float(off[-1]))
        num = base_symbol(self.base_kind, lam * s_nodes)
        den = self.noise.fourier(s_nodes)
        if not np.all(np.abs(den[num != 0.0]) >= MIN_NOISE_FOURIER):  # NaN fails too
            raise IllPosednessError(
                "noise characteristic function below threshold on the kernel band"
            )
        return (_invert_symbol(num / den, s_nodes, s_weights, off),)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the kernel by linear interpolation.

        Points outside the tabulated window evaluate to 0 (the window is
        chosen to cover every offset the quadratures can request).
        """
        return np.interp(np.asarray(points, dtype=float), self.offsets[0], self.values[0],
                         left=0.0, right=0.0)

    def integral(self) -> float:
        """Trapezoid integral over the tabulated window.

        For band-limited kernels the exact integral is symbol(0) = 1, but a
        finite window misses slowly decaying oscillatory tails; the windowed
        value is exact only up to that truncated tail mass.
        """
        return float(np.dot(trapezoid_weights(self.size, self.spacing), self.values[0]))

    def to_csv(self, path) -> None:
        """Write (axis, offset, value) rows for plotting; the axis is always 0."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["axis", "offset", "value"])
            for o, v in zip(self.offsets[0], self.values[0]):
                writer.writerow([0, repr(float(o)), repr(float(v))])


def _checked_grid(offsets) -> tuple[int, float]:
    """The size and spacing of an offset grid, or ``ConfigurationError``:
    one-dimensional with at least two points (else the spacing is
    undefined), finite (before ``_panel_rule`` sizes its panels from them),
    exactly symmetric about 0, and increasing and uniform, within 1e-9 of
    the spacing of the two offsets about 0."""
    off = np.asarray(offsets, dtype=float)
    if off.ndim != 1 or len(off) < 2:
        raise ConfigurationError(
            f"kernel offsets must be a 1-D grid of at least two points, got shape {off.shape}")
    if not np.isfinite(off).all():
        raise ConfigurationError("kernel offsets must be finite")
    if not np.array_equal(off, -off[::-1]):
        raise ConfigurationError("kernel offsets must be symmetric about 0")
    n = len(off)
    h = float(off[(n + 1) // 2] - off[(n + 1) // 2 - 1])
    if not (h > 0 and np.abs(off - h * (np.arange(n) - (n - 1) / 2)).max() <= 1e-9 * h):
        raise ConfigurationError("kernel offsets must be increasing and uniformly spaced")
    return n, h


def build_base_kernel(kind: str, grid: Grid,
                      offsets: np.ndarray | None = None) -> TabulatedKernel:
    """A base kernel with band-limited transform on grid-aligned offsets;
    its table is inverted when ``values`` is first read.

    Parameters
    ----------
    kind : {"sinc", "order_m_flat_top"}
    grid : Grid
        Supplies the spacing and the default offset span, eight grid widths
        each way; convolution lattices pass exactly matched offsets.
    offsets : optional offset array
        Override the tabulation window (must hold at least two points and
        be finite, exactly symmetric about 0 and uniform, else
        ``ConfigurationError``). It is kept as its size and the spacing of
        its two offsets about 0, so offsets within the tolerance of
        uniform read back as the exact grid.
    """
    if kind not in BASE_KINDS:
        raise ConfigurationError(f"unknown base kernel kind {kind!r}")
    if offsets is None:  # eight grid widths: slowly decaying tails show in exports
        size, spacing = 16 * (grid.points_per_dim - 1) + 1, grid.spacing
    else:
        size, spacing = _checked_grid(offsets)
    return TabulatedKernel(size=size, spacing=spacing, bandwidth=1.0, base_kind=kind)


def _as_bandwidth(bandwidth) -> float:
    lam = float(bandwidth)
    if not lam > 0:
        raise ConfigurationError(f"bandwidth must be positive, got {lam}")
    return lam


def build_deconvolution_kernel(base: TabulatedKernel, noise: NoiseModel,
                               bandwidth: float) -> TabulatedKernel:
    """Tabulate the noise-corrected kernel at bandwidth ``lambda``.

    The table is the inverse Fourier integral of
    ``base_symbol(lambda s) / noise_fourier(s)``, in scaled form
    (1/lambda) K_eta(v/lambda) on the base kernel's offset grid, inverted
    here. With dirac noise this reduces to the bandwidth-scaled base kernel.
    """
    lam = _as_bandwidth(bandwidth)
    if lam <= base.spacing:
        raise ConfigurationError(
            f"bandwidth {lam} at or below grid spacing {base.spacing}: refusing to alias"
        )
    kernel = TabulatedKernel(size=base.size, spacing=base.spacing, bandwidth=lam,
                             base_kind=base.base_kind, noise=noise)
    kernel.values  # inverted here, so an ill-posed noise law fails at the build
    return kernel


def kernel_fourier_sup(base_kind: str, noise: NoiseModel, bandwidth: float,
                       freq_points: int = 4097) -> float:
    """Numerical surrogate for the regularized-class Lipschitz constant.

    Returns ``sup_t |symbol(t * lambda) / F[eta](t)|`` over the tabulated
    frequency range [0, 8/lambda], for the base kernel of kind ``base_kind``.
    """
    lam = _as_bandwidth(bandwidth)
    t = np.linspace(0.0, 8.0 / lam, freq_points)
    return float(np.abs(base_symbol(base_kind, lam * t) / noise.fourier(t)).max())


def kernel_fourier_l2(base_kind: str, noise: NoiseModel, bandwidth: float) -> float:
    """L2 norm of the scaled noise-corrected kernel, via Plancherel.

    ``(1/pi * int_0^{1/lam} |symbol(lam s)/F[eta](s)|^2 ds)^(1/2)`` for the
    base kernel of kind ``base_kind``. This is the certified uniform-bound
    constant for [0,1]-valued losses (Cauchy-Schwarz against the loss L2
    norm).
    """
    lam = _as_bandwidth(bandwidth)
    s_max = 1.0 / lam
    # 4 uniform panels, or one per 2.5 of s: the rule the certificates
    # were fixed with (2.8-3.4e-10 relative off a 2000-panel rule at
    # lambda 0.1 .. 0.6; ROADMAP item 20)
    s_nodes, s_weights = _gauss_rule(np.linspace(0.0, s_max, max(4, math.ceil(s_max / 2.5)) + 1))
    ratio = base_symbol(base_kind, lam * s_nodes) / noise.fourier(s_nodes)
    return float(np.sqrt(np.dot(s_weights, ratio * ratio) / np.pi))
