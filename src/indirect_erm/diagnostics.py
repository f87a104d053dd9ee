"""Numerical measurement of the structural quantities behind the rates.

Everything here is either closed-form exponent arithmetic or a measured
log-log scaling: the Lipschitz constant of the regularized loss class, its
certified uniform bound, the approximation (bias) function, the Bernstein
ratio of the excess-loss class. Every measured constant takes a risk
backend of ``erm`` and reads the regularized loss class through it: the
Lipschitz pairs' squared label-0 loss differences summed over the
Monte-Carlo draws, off the sample's second moments
(``squared_differences``: under the hard loss a label-1 difference is
minus the label-0 one), and the label-0 class matrix the minimizer pairs
with the expectation of the signed statistic of P_0 - P_1
(``expected_risks``); both biases take the exact risks from
``true_risks``. The raw sup folds the loss rows on the
backend's nodes (``_row_filler``) one at a time, with one body for both
backends. The raw-loss distances and norms are differences of the domain
weight at the classifiers' cuts. The certificates read the grid, kernel
or operator, and cutoff from the backend.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .erm import BIAS_VARIANTS, DeconvolutionBackend, SvdBackend, expected_risks
from .errors import ConfigurationError, DataError
from .grid import Grid
from .hypotheses import HypothesisClass, Scenario, _cuts, true_risks
from .kernels import kernel_fourier_l2

logger = logging.getLogger(__name__)

__all__ = [
    "rate_exponent",
    "hard_loss_exponent",
    "fit_rate_slope",
    "empirical_lipschitz",
    "sup_bound_deconv",
    "sup_bound_svd",
    "empirical_bias_deconv",
    "empirical_bias_svd",
    "bernstein_ratio",
    "DiagnosticsReport",
]

RATE_MODES = ("direct", "deconv", "svd", "hard_loss")


# ---------------------------------------------------------------------------
# exponent arithmetic
# ---------------------------------------------------------------------------

def hard_loss_exponent(alpha: float, gamma: float, dim: int, beta_bar: float) -> float:
    """Excess-risk n-exponent for hard-loss classification with margin alpha.

    (alpha+1) * gamma / (gamma * (alpha+2) + d + 2 * beta_bar); the additive
    noise exponent enters doubled, independently of the margin.
    """
    if alpha <= 0:
        raise ConfigurationError("margin parameter alpha must be positive")
    if gamma <= 0 or dim < 1 or beta_bar < 0:
        raise ConfigurationError("invalid hard-loss exponent parameters")
    return (alpha + 1.0) * gamma / (gamma * (alpha + 2.0) + dim + 2.0 * beta_bar)


def rate_exponent(cfg, mode: str) -> float:
    """Positive n-exponent of the excess-risk bound for the given mode.

    ``direct``: the noise-free exponent kappa / (2 kappa + rho - 1).
    ``deconv``/``svd``: kappa*gamma / (gamma(2 kappa + rho - 1) + (2 kappa - 1) beta)
    with beta the summed noise decay (deconv) or operator decay (svd) - the
    two backends share one formula.
    ``hard_loss``: the margin display above, with alpha recovered from kappa.
    """
    if mode not in RATE_MODES:
        raise ConfigurationError(f"unknown rate mode {mode!r}")
    k, g, b = cfg.kappa, cfg.gamma, cfg.beta_bar
    if mode == "hard_loss":
        alpha = 1.0 / (k - 1.0)
        return hard_loss_exponent(alpha, g, cfg.dim, b)
    r = cfg.rho
    if mode == "direct":
        return k / (2.0 * k + r - 1.0)
    return k * g / (g * (2.0 * k + r - 1.0) + (2.0 * k - 1.0) * b)


def fit_rate_slope(points) -> tuple[float, float]:
    """Weighted least-squares slope of log(mean) against log(n).

    ``points`` is an iterable of (n, mean, se). Points with nonpositive
    means are dropped with a log message. Weights are inverse squared
    log-scale standard errors (se/mean); when any se is 0 the fit falls
    back to equal weights. Returns (slope, half_width) with a 95% normal
    half-width, nan when there are no residual degrees of freedom. Kept
    points at fewer than two distinct n raise ``DataError``.
    """
    points = list(points)
    kept = [(n, m, s) for n, m, s in points if m > 0]
    dropped = len(points) - len(kept)
    if dropped:
        logger.warning("dropping %d nonpositive mean point(s) from the slope fit", dropped)
    if len({n for n, _, _ in kept}) < 2:
        raise DataError("slope fit needs points with positive means at two or more distinct n")
    x = np.log([p[0] for p in kept])
    y = np.log([p[1] for p in kept])
    se_log = np.array([s / m for _, m, s in kept])
    if np.any(se_log <= 0):
        weights = np.ones_like(x)
    else:
        weights = 1.0 / se_log ** 2
    sw = weights.sum()
    xbar = np.dot(weights, x) / sw
    ybar = np.dot(weights, y) / sw
    sxx = np.dot(weights, (x - xbar) ** 2)
    slope = float(np.dot(weights, (x - xbar) * (y - ybar)) / sxx)
    intercept = ybar - slope * xbar
    resid = y - intercept - slope * x
    dof = len(kept) - 2
    if dof > 0:
        sigma2 = float(np.dot(weights, resid ** 2) / dof)
        half = 1.96 * math.sqrt(sigma2 / sxx)
    else:
        half = float("nan")
    return slope, half


# ---------------------------------------------------------------------------
# measured structural constants
# ---------------------------------------------------------------------------

def _weights_at_cuts(hclass: HypothesisClass, grid: Grid):
    """The domain weight left of each cut (``_cuts``): h (s - 1/2) clipped to
    [0, P - 1] at node s, exact where a running sum drifts by up to 4e-14
    at 2048 nodes. Also the total weight."""
    total = grid.points_per_dim - 1.0
    left = grid.spacing * np.clip(_cuts(hclass, grid.axis()) - 0.5, 0.0, total)
    return left, grid.spacing * total


def _loss_distance_sq(scenario: Scenario, hclass: HypothesisClass, a, b) -> np.ndarray:
    """Squared L2(nu_y) distances (Lebesgue x priors) of the raw losses of
    classifiers a[k] and b[k], for index arrays a and b: the label-1 losses
    differ where the label-0 losses do, that is between the two cuts."""
    left = _weights_at_cuts(hclass, scenario.domain)[0]
    return sum(scenario.priors) * np.abs(left[a] - left[b])


def empirical_lipschitz(scenario: Scenario, backend, hclass: HypothesisClass, pairs,
                        sample) -> np.ndarray:
    """Measured Lipschitz ratios of the regularized loss class.

    For each pair (i, j) of class indices: the Monte-Carlo L2 norm, over the
    contaminated ``sample``, of the difference of the backend's regularized
    losses, divided by the quadrature L2 norm of the raw loss difference
    under nu_y. Degenerate pairs are skipped; a ``DataError`` is raised when
    none is left.

    The numerator's squares are the backend's ``squared_differences``:
    under the hard loss a pair's label-1 loss difference is minus its
    label-0 difference, so the label groups pool and the sums read the
    sample's second moments once, for every pair.
    """
    i, j = np.array(pairs, dtype=int).reshape(-1, 2).T
    denom = np.sqrt(_loss_distance_sq(scenario, hclass, i, j))
    keep = denom > 1e-8
    if not keep.all():
        logger.info("skipping %d degenerate classifier pair(s)", np.count_nonzero(~keep))
    if not keep.any():
        raise DataError("no classifier pair with a nonzero loss distance to measure")
    num_sq = backend.squared_differences(hclass, i[keep], j[keep], sample)
    return np.sqrt(num_sq / sample.n) / denom[keep]


def _max_loss_l2(hclass: HypothesisClass, grid: Grid) -> float:
    """The largest raw-loss L2 norm over the class and both labels: the
    root of the domain weight left or right of a cut, whichever is larger."""
    left, total = _weights_at_cuts(hclass, grid)
    return math.sqrt(max(left.max(), (total - left).max()))


def sup_bound_deconv(backend: DeconvolutionBackend, hclass: HypothesisClass) -> float:
    """Certified uniform bound of the regularized loss class (kernel route).

    Cauchy-Schwarz certificate: kernel L2 norm times the largest loss L2
    norm over the class. Bounded 0/1 losses cannot attain the kernel L2
    growth themselves, so the certificate, not the raw table sup, carries
    the theoretical scaling.
    """
    lattice = backend.lattice
    l2 = kernel_fourier_l2(lattice.kernel.base_kind, lattice.kernel.noise, lattice.bandwidth)
    return l2 * _max_loss_l2(hclass, lattice.domain)


def sup_bound_svd(backend: SvdBackend, hclass: HypothesisClass) -> float:
    """Certified uniform bound for the spectral backend.

    max over z of the l2 norm of (b_k^(-1) phi_k(z))_k, times the largest
    loss L2 norm over the class.
    """
    grid = backend.grid
    phi = backend.operator.basis(grid.axis(), backend.cutoff)
    col_norms = np.sqrt(np.sum((backend._inv_b[:, None] * phi) ** 2, axis=0))
    return float(col_norms.max()) * _max_loss_l2(hclass, grid)


def table_sup(backend, hclass: HypothesisClass) -> float:
    """Raw measured sup of the regularized losses over the class (secondary
    diagnostic) on the backend's nodes: every loss is a loss row or the
    loss 1's row minus it.

    The rows (``_row_filler``: on the kernel backend slices of the
    kernel's cumulative sum, the losses on the lattice nodes; on the
    spectral one the loss coefficients against the basis on the domain) are
    folded one at a time into their node-wise min and max, and the sup is
    read off those, alone and against the loss 1's row: a rounded
    difference is monotone in each operand, so the largest |one - row| at
    a node is one less the smallest row, or the largest row less one,
    exactly. No table of the rows is held."""
    fill, p = backend._row_filler(hclass)
    lo, hi, row = np.full(p, np.inf), np.full(p, -np.inf), np.empty(p)
    for j in range(len(hclass)):
        np.minimum(lo, fill(j, row), out=lo)
        np.maximum(hi, row, out=hi)
    one = fill(len(hclass), row)
    top, bottom = hi.max(), -lo.min()
    # one - lo and hi - one overwrite lo and hi, which nothing reads after
    return float(max(top, bottom, np.subtract(one, lo, out=lo).max(),
                     np.subtract(hi, one, out=hi).max()))


def _bias(risks: np.ndarray, reg: np.ndarray, star_index: int, kappa: float,
          variant: str) -> float:
    """The approximation function from the exact risks ``risks`` and the
    expected regularized risks ``reg``: the largest bias of an excess over
    the in-class oracle, less the residual-constant multiple of that
    excess, floored at zero."""
    if variant not in BIAS_VARIANTS:
        raise ConfigurationError(f"unknown bias variant {variant!r}")
    r = 1.0 / kappa if variant == "squared_loss" else 1.0 / (2.0 * kappa)
    excess = risks - risks[star_index]
    bias = excess - (reg - reg[star_index])
    return float(max((bias - r * excess).max(), 0.0))


def empirical_bias_deconv(scenario: Scenario, backend: DeconvolutionBackend,
                          hclass: HypothesisClass, star_index: int,
                          bias_variant: str = "squared_loss") -> float:
    """Approximation-function estimate for the kernel backend.

    The exact risks (``true_risks``, clipped to the backend's window) are
    the spectral backend's; the expected regularized risks
    (``expected_risks``) integrate the raw loss against the base-smoothed
    density. Neither integrates the oscillatory corrected kernel, whose
    quadrature noise would otherwise floor the small-bandwidth scaling.
    """
    return _bias(true_risks(hclass, scenario, backend.window),
                 expected_risks(hclass, scenario, backend),
                 star_index, scenario.kappa, bias_variant)


def empirical_bias_svd(scenario: Scenario, backend: SvdBackend, hclass: HypothesisClass,
                       star_index: int, bias_variant: str = "squared_loss") -> float:
    """Approximation-function estimate for the spectral backend.

    The expectation of the truncated empirical risk is the coefficient
    pairing sum_y p_y sum_(k<=N) c_k(g, y) theta_k^y (``expected_risks``),
    evaluated exactly.
    """
    return _bias(true_risks(hclass, scenario), expected_risks(hclass, scenario, backend),
                 star_index, scenario.kappa, bias_variant)


def bernstein_ratio(scenario: Scenario, hclass: HypothesisClass, star_index: int) -> float:
    """Empirical Bernstein constant of the excess-loss class.

    max over classifiers (excess above 1e-8) of
    ||loss(g) - loss(g*)||^2_(L2(nu_y)) / excess^(1/kappa). Returns 0 for a
    singleton class.
    """
    kappa = scenario.kappa
    if not kappa > 1.0 or not np.isfinite(kappa):  # also catches nan
        raise ConfigurationError("Bernstein ratio needs a finite kappa > 1")
    excess = true_risks(hclass, scenario)
    excess -= excess[star_index]
    kept = np.flatnonzero(excess > 1e-8)
    ratios = _loss_distance_sq(scenario, hclass, kept, star_index) / excess[kept] ** (1 / kappa)
    return float(ratios.max(initial=0.0))


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------

@dataclass
class DiagnosticsReport:
    """Measured structural scalings plus their fitted log-log slopes."""

    lipschitz: list = field(default_factory=list)      # (smoothing, max ratio)
    sup_bounds: list = field(default_factory=list)     # (smoothing, certificate, raw sup)
    bias: list = field(default_factory=list)           # (smoothing, a-hat)
    bernstein_max: float = float("nan")
    slopes: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "lipschitz": [[[float(s)], v] for s, v in self.lipschitz],
            "sup_bounds": [[[float(s)], c, r] for s, c, r in self.sup_bounds],
            "bias": [[[float(s)], v] for s, v in self.bias],
            "bernstein_max": self.bernstein_max,
            "slopes": self.slopes,
        }

    def raw_csv(self, path) -> None:
        import csv as _csv

        with open(path, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["series", "smoothing", "value", "extra"])
            for s, v in self.lipschitz:
                writer.writerow(["lipschitz", repr(float(s)), repr(v), ""])
            for s, c, r in self.sup_bounds:
                writer.writerow(["sup_bound", repr(float(s)), repr(c), repr(r)])
            for s, v in self.bias:
                writer.writerow(["bias", repr(float(s)), repr(v), ""])
