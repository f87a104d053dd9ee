"""Band-limited smoothing kernels and their noise-corrected versions.

Base kernels have compactly supported Fourier transforms (the transform
lives in [-1, 1]). The noise-corrected kernel divides that transform by
the noise characteristic function before inverting, which undoes additive
measurement error in expectation. The paper's kernels on R^d are products
of such univariate factors; this package works on the line, so every
table here is one univariate factor.

Tables are produced by numerically inverting the Fourier integral with
composite 16-point Gauss-Legendre panels sized to the oscillation, which
keeps the pointwise error near machine precision even for small bandwidths.
Offset grids are uniform and symmetric about 0, and the integrand is
even, so only the upper half of the offsets is evaluated and mirrored:
every table is exactly even. Uniform offsets also let the cosines of the
inversion factor by angle addition about block centres, so one pair of
small matrix products serves the offsets on both sides of each centre
(``_invert_symbol``).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

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

# Half-width R of the centred offset blocks of ``_invert_symbol`` and the
# number T of block centres per chunk. The products take (1 + 1/R) S
# multiply-adds per offset, for S quadrature nodes. Measured
# on the five diagnose bandwidths (lambda 0.1 .. 0.5, 25,195 offsets; 2
# vCPU): the five inversions took a median 17.5 ms at R = 32, T = 14, 23.9
# ms at R = 16, and 16.4-19.5 ms for R in {32, 48, 64} and T in {8 .. 28},
# within the noise. R = 32 is the smallest R at that level, so the (R + 1)
# x S factors stay small.
_HALF_BLOCK = 32
_CHUNK = 14

# the 16-point Gauss-Legendre rule's nodes x > 0 and weights, as leggauss(16);
# tuples, since two arrays made at import raised svd-rates' peak RSS 0.1 MiB
_GAUSS_X = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
             0.6178762444026438, 0.755404408355003, 0.8656312023878318,
             0.9445750230732326, 0.9894009349916499)
_GAUSS_W = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
             0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
             0.062253523938647456, 0.027152459411754176)


def _panel_rule(s_max: float, v_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for integrating f(s)cos(sv) over [0, s_max], |v| <= v_max.

    Panels are sized so the phase s*v advances at most 2.5 radians per
    panel, which keeps the Gauss error negligible for any oscillation the
    offsets can produce; each takes the 16-point rule.
    """
    n_panels = max(4, int(np.ceil(s_max * max(v_max, 1.0) / 2.5)))
    half_x, half_w = np.array(_GAUSS_X), np.array(_GAUSS_W)
    x, w = np.r_[-half_x[::-1], half_x], np.r_[half_w[::-1], half_w]
    edges = np.linspace(0.0, s_max, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


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
    J x S block is formed. ``einsum`` forms the products on the calling
    thread: they are small, and a threaded BLAS product leaves its worker
    threads spinning after each call, which nearly doubled the CPU time of
    a laplace rate experiment.
    """
    if not np.array_equal(offsets, -offsets[::-1]):
        raise ConfigurationError("kernel offsets must be symmetric about 0")
    h = (offsets[-1] - offsets[0]) / max(len(offsets) - 1, 1)
    # one max-abs comparison, written so that a NaN fails it, with the
    # tolerance of ``np.allclose`` at under half its cost (0.17 against
    # 0.37 ms on the laplace lattice's 25,195 offsets)
    if not np.abs(offsets - (offsets[0] + h * np.arange(len(offsets)))).max() <= 1e-9 * h:
        raise ConfigurationError("kernel offsets must be uniformly spaced")
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

    ``offsets`` and ``values`` are one-element tuples holding the offset
    grid and the table. At ``bandwidth`` 1 (``build_base_kernel``) the
    values are the unscaled base kernel K(u). Otherwise
    (``build_deconvolution_kernel``) they are the bandwidth-scaled,
    noise-corrected kernel (1/lambda) K_eta(v/lambda) tabulated in
    observation-offset units v, so discrete convolution against grid
    functions needs no further rescaling.
    """

    offsets: tuple[np.ndarray]
    values: tuple[np.ndarray]
    bandwidth: float
    base_kind: str

    def __post_init__(self):
        (off,), (val,) = self.offsets, self.values
        if off.shape != val.shape:
            raise ConfigurationError("offset/value shape mismatch")
        if not np.all(np.isfinite(val)):
            raise ConfigurationError("kernel values must be finite")

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
        off = self.offsets[0]
        return float(np.dot(trapezoid_weights(len(off), off[1] - off[0]), self.values[0]))

    def to_csv(self, path) -> None:
        """Write (axis, offset, value) rows for plotting; the axis is always 0."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["axis", "offset", "value"])
            for o, v in zip(self.offsets[0], self.values[0]):
                writer.writerow([0, repr(float(o)), repr(float(v))])


def _default_offsets(grid: Grid) -> np.ndarray:
    """Symmetric offsets at the grid spacing spanning eight grid widths.

    Wide enough that slowly decaying kernel tails are visible in exports;
    convolution lattices override this with exactly matched offsets.
    """
    m = 8 * (grid.points_per_dim - 1)
    return grid.spacing * np.arange(-m, m + 1)


def build_base_kernel(kind: str, grid: Grid,
                      offsets: np.ndarray | None = None) -> TabulatedKernel:
    """Tabulate a base kernel with band-limited transform on grid-aligned offsets.

    Parameters
    ----------
    kind : {"sinc", "order_m_flat_top"}
    grid : Grid
        Supplies the spacing and the default offset span.
    offsets : optional offset array
        Override the tabulation window (must be finite, uniform and exactly
        symmetric about 0, else ``ConfigurationError``).
    """
    if kind not in BASE_KINDS:
        raise ConfigurationError(f"unknown base kernel kind {kind!r}")
    off = _default_offsets(grid) if offsets is None else np.asarray(offsets, dtype=float)
    if not np.isfinite(off).all():  # before _panel_rule sizes its panels from them
        raise ConfigurationError("kernel offsets must be finite")
    s_nodes, s_weights = _panel_rule(1.0, float(np.max(np.abs(off))))
    values = _invert_symbol(base_symbol(kind, s_nodes), s_nodes, s_weights, off)
    return TabulatedKernel(offsets=(off,), values=(values,), bandwidth=1.0, base_kind=kind)


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
    (1/lambda) K_eta(v/lambda) on the base kernel's offset grid. With
    dirac noise this reduces to the bandwidth-scaled base kernel.
    """
    lam = _as_bandwidth(bandwidth)
    off = base.offsets[0]
    h = off[1] - off[0]
    if lam <= h:
        raise ConfigurationError(
            f"bandwidth {lam} at or below grid spacing {h}: refusing to alias"
        )
    s_max = 1.0 / lam  # symbol support of base_symbol(lam * s)
    s_nodes, s_weights = _panel_rule(s_max, float(np.max(np.abs(off))))
    num = base_symbol(base.base_kind, lam * s_nodes)
    den = noise.fourier(s_nodes)
    active = num != 0.0
    if np.any(np.abs(den[active]) < MIN_NOISE_FOURIER):
        raise IllPosednessError(
            "noise characteristic function below threshold on the kernel band"
        )
    values = _invert_symbol(num / den, s_nodes, s_weights, off)
    return TabulatedKernel(offsets=base.offsets, values=(values,), bandwidth=lam,
                           base_kind=base.base_kind)


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
    s_nodes, s_weights = _panel_rule(1.0 / lam, 0.0)
    ratio = base_symbol(base_kind, lam * s_nodes) / noise.fourier(s_nodes)
    return float(np.sqrt(np.dot(s_weights, ratio * ratio) / np.pi))
