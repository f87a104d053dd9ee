"""Numerical measurement of the structural quantities behind the rates.

Everything here is either closed-form exponent arithmetic or a measured
log-log scaling: the Lipschitz constant of the regularized loss class, its
certified uniform bound, the approximation (bias) function, the Bernstein
ratio of the excess-loss class, and the modulus of continuity of the
centered empirical process over shrinking loss balls. The measured
constants read the regularized loss class through the risk backends of
``erm``, the same class matrices the minimizer scans: their losses at
Monte-Carlo draws, their exact expected risks, and their empirical risks.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .erm import BIAS_VARIANTS, DeconvolutionBackend, SvdBackend, empirical_risks
from .errors import ConfigurationError, DataError
from .grid import Grid
from .hypotheses import HypothesisClass, LossSpec, Scenario, loss_values, true_risk
from .kernels import kernel_fourier_l2
from .noisy_risk import ObservationLattice, base_smoothed_density, zero_extended_density
from .operators import SpectralOperator

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
    "empirical_modulus",
    "DiagnosticsReport",
]

RATE_MODES = ("direct", "deconv", "svd", "hard_loss")
MU_CHOICES = ("nu_y", "p")


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
    half-width, nan when there are no residual degrees of freedom.
    """
    points = list(points)
    kept = [(n, m, s) for n, m, s in points if m > 0]
    dropped = len(points) - len(kept)
    if dropped:
        logger.warning("dropping %d nonpositive mean point(s) from the slope fit", dropped)
    if len(kept) < 2:
        raise DataError("slope fit needs at least two points with positive means")
    x = np.log([p[0] for p in kept])
    y = np.log([p[1] for p in kept])
    se_log = np.array([s / m if m > 0 else 0.0 for _, m, s in kept])
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

def _loss_distance_sq(scenario: Scenario, loss: LossSpec, clf_a, clf_b, mu: str) -> float:
    """Squared L2(mu) distance of two classifiers' raw losses; ``mu`` is
    "nu_y" (Lebesgue measure times the label priors) or "p" (the input law)."""
    if mu not in MU_CHOICES:
        raise ConfigurationError(f"unknown loss-distance measure {mu!r}, "
                                 f"not one of {list(MU_CHOICES)}")
    x, w = scenario.domain.axis(), scenario.domain.weights()
    total = 0.0
    for label in scenario.labels:
        diff = loss_values(clf_a, loss, label, x) - loss_values(clf_b, loss, label, x)
        density = scenario.density(label, x) if mu == "p" else np.ones_like(x)
        total += scenario.priors[label] * float(np.dot(w, diff * diff * density))
    return total


def empirical_lipschitz(scenario: Scenario, backend, hclass: HypothesisClass, pairs,
                        mc_n: int, seed, mu: str = "nu_y") -> np.ndarray:
    """Measured Lipschitz ratios of the regularized loss class.

    For each pair (i, j) of class indices: the Monte-Carlo L2 norm of the
    difference of the backend's regularized losses under the contaminated
    law, divided by the quadrature L2 norm of the raw loss difference (with
    the backend's loss) under ``mu``. Degenerate pairs are skipped; a
    ``DataError`` is raised when none is left.
    """
    from .simulation import generate_sample  # a top-level import would be circular

    kept = []  # (i, j, raw loss distance)
    for i, j in pairs:
        denom = math.sqrt(max(_loss_distance_sq(scenario, backend.loss, hclass[i], hclass[j],
                                                mu), 0.0))
        if denom <= 1e-8:
            logger.info("skipping a degenerate classifier pair (zero loss distance)")
        else:
            kept.append((i, j, denom))
    if not kept:
        raise DataError("no classifier pair with a nonzero loss distance to measure")
    sample = generate_sample(scenario, mc_n, np.random.default_rng(seed))
    num_sq = np.zeros(len(kept))
    for label in scenario.labels:
        z_lab = sample.z[sample.y == label]
        if z_lab.size:
            values = backend.losses(hclass, label, z_lab)
            num_sq += [float(np.sum((values[i] - values[j]) ** 2)) for i, j, _ in kept]
            del values  # one label's loss matrix alive at a time
    return np.asarray([math.sqrt(s / sample.n) / d for s, (_, _, d) in zip(num_sq, kept)])


def _max_loss_l2(hclass: HypothesisClass, loss: LossSpec, grid: Grid) -> float:
    x, w = grid.axis(), grid.weights()
    best = 0.0
    for clf in hclass:
        for label in (0, 1):
            lv = loss_values(clf, loss, label, x)
            best = max(best, math.sqrt(float(np.dot(w, lv * lv))))
    return best


def sup_bound_deconv(lattice: ObservationLattice, hclass: HypothesisClass,
                     loss: LossSpec, grid: Grid) -> float:
    """Certified uniform bound of the regularized loss class (kernel route).

    Cauchy-Schwarz certificate: kernel L2 norm times the largest loss L2
    norm over the class. Bounded 0/1 losses cannot attain the kernel L2
    growth themselves, so the certificate, not the raw table sup, carries
    the theoretical scaling.
    """
    base = lattice.kernel
    l2 = kernel_fourier_l2(base, lattice.noise, lattice.bandwidth)
    return l2 * _max_loss_l2(hclass, loss, grid)


def sup_bound_svd(op: SpectralOperator, cutoff: int, hclass: HypothesisClass,
                  loss: LossSpec, grid: Grid) -> float:
    """Certified uniform bound for the spectral backend.

    max over z of the l2 norm of (b_k^(-1) phi_k(z))_k, times the largest
    loss L2 norm over the class.
    """
    phi = op.basis(grid.axis(), cutoff)
    inv_b = 1.0 / op.singular_values[: cutoff + 1]
    col_norms = np.sqrt(np.sum((inv_b[:, None] * phi) ** 2, axis=0))
    return float(col_norms.max()) * _max_loss_l2(hclass, loss, grid)


def table_sup(backend, hclass: HypothesisClass) -> float:
    """Raw measured sup of the regularized losses over the class (secondary
    diagnostic), on the backend's own nodes: the lattice nodes, or the
    domain axis for the spectral backend."""
    nodes = (backend.lattice.nodes if isinstance(backend, DeconvolutionBackend)
             else backend.grid.axis())
    return max(float(np.max(np.abs(backend.losses(hclass, label, nodes))))
               for label in hclass.labels)


def _r_constant(kappa: float, variant: str) -> float:
    if variant not in BIAS_VARIANTS:
        raise ConfigurationError(f"unknown bias variant {variant!r}")
    return 1.0 / kappa if variant == "squared_loss" else 1.0 / (2.0 * kappa)


def empirical_bias_deconv(scenario: Scenario, lattice: ObservationLattice,
                          hclass: HypothesisClass, star_index: int, loss: LossSpec,
                          bias_variant: str = "squared_loss") -> float:
    """Approximation-function estimate for the kernel backend.

    Exact quadrature of (R - R_reg)(g - g*) over the class, minus the
    residual-constant multiple of the excess risk, floored at zero. The
    expected regularized risk is evaluated through the base-smoothed
    density identity (see ``base_smoothed_density``): integrating the raw
    loss against the smoothed conditional density is analytically equal to
    the table expectation and free of the oscillatory-quadrature noise that
    would otherwise floor the small-bandwidth scaling. Both risk paths use
    the padded-grid quadrature so discretization errors cancel in the
    difference.
    """
    kappa = scenario.kappa
    r = _r_constant(kappa, bias_variant)
    nodes, w = lattice.nodes, lattice.weights
    risks = np.zeros(len(hclass))
    reg = np.zeros(len(hclass))
    for label in scenario.labels:
        f = zero_extended_density(scenario, lattice, label)
        f_smooth = base_smoothed_density(scenario, lattice, label)
        prior = scenario.priors[label]
        for i, clf in enumerate(hclass):
            lv = loss_values(clf, loss, label, nodes)
            risks[i] += prior * float(np.dot(w, lv * f))
            reg[i] += prior * float(np.dot(w, lv * f_smooth))
    excess = risks - risks[star_index]
    bias = excess - (reg - reg[star_index])
    values = bias - r * excess
    return float(max(values.max(), 0.0))


def empirical_bias_svd(scenario: Scenario, op: SpectralOperator, cutoff: int,
                       hclass: HypothesisClass, star_index: int, loss: LossSpec,
                       bias_variant: str = "squared_loss") -> float:
    """Approximation-function estimate for the spectral backend.

    The expectation of the truncated empirical risk is the coefficient
    pairing sum_y p_y sum_(k<=N) c_k(g, y) theta_k^y (the backend's
    ``expected_risks``), evaluated exactly.
    """
    r = _r_constant(scenario.kappa, bias_variant)
    risks = np.array([true_risk(c, scenario, loss) for c in hclass])
    reg = SvdBackend(operator=op, cutoff=cutoff, grid=scenario.domain, loss=loss).expected_risks(
        hclass, scenario)
    excess = risks - risks[star_index]
    bias = excess - (reg - reg[star_index])
    values = bias - r * excess
    return float(max(values.max(), 0.0))


def bernstein_ratio(scenario: Scenario, hclass: HypothesisClass, star_index: int,
                    loss: LossSpec, mu: str = "nu_y") -> float:
    """Empirical Bernstein constant of the excess-loss class.

    max over classifiers (excess above 1e-8) of
    ||loss(g) - loss(g*)||^2_(L2(mu)) / excess^(1/kappa). Returns 0 for a
    singleton class.
    """
    kappa = scenario.kappa
    if not kappa > 1.0 or not np.isfinite(kappa):  # also catches nan
        raise ConfigurationError("Bernstein ratio needs a finite kappa > 1")
    star = hclass[star_index]
    risk_star = true_risk(star, scenario, loss)
    best = 0.0
    for clf in hclass:
        if clf is star:
            continue
        excess = true_risk(clf, scenario, loss) - risk_star
        if excess <= 1e-8:
            continue
        norm_sq = _loss_distance_sq(scenario, loss, clf, star, mu)
        best = max(best, norm_sq / excess ** (1.0 / scenario.kappa))
    return best


def empirical_modulus(scenario: Scenario, backend, hclass: HypothesisClass, delta: float,
                      n: int, mc_reps: int, seed, mu: str = "nu_y") -> float:
    """Monte-Carlo modulus of continuity of the centered empirical process.

    Average over replications of the sup, over classifier pairs whose raw
    loss distance under mu is at most delta, of |empirical - expected|
    regularized risk difference. Both risks come from the backend; the
    expected ones are exact.
    """
    if delta < 0:
        raise ConfigurationError("delta must be nonnegative")
    admissible = [
        (i, j) for i in range(len(hclass)) for j in range(i + 1, len(hclass))
        if math.sqrt(max(_loss_distance_sq(scenario, backend.loss, hclass[i], hclass[j],
                                           mu), 0.0)) <= delta
    ]
    if not admissible:
        logger.warning("no classifier pair within delta=%g; modulus is 0", delta)
        return 0.0
    expected = backend.expected_risks(hclass, scenario)
    from .simulation import generate_sample  # a top-level import would be circular

    rng = np.random.default_rng(seed)
    sups = []
    for _ in range(mc_reps):
        emp = empirical_risks(hclass, generate_sample(scenario, n, rng), backend)
        sups.append(max(abs((emp[i] - emp[j]) - (expected[i] - expected[j]))
                        for i, j in admissible))
    return float(np.mean(sups))


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
    modulus: list = field(default_factory=list)        # (delta or n, value)
    slopes: dict = field(default_factory=dict)
    exponents: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "lipschitz": [[[float(s)], v] for s, v in self.lipschitz],
            "sup_bounds": [[[float(s)], c, r] for s, c, r in self.sup_bounds],
            "bias": [[[float(s)], v] for s, v in self.bias],
            "bernstein_max": self.bernstein_max,
            "modulus": [[float(k), float(v)] for k, v in self.modulus],
            "slopes": self.slopes,
            "exponents": self.exponents,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

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
            for k, v in self.modulus:
                writer.writerow(["modulus", repr(float(k)), repr(v), ""])
