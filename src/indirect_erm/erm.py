"""Smoothed empirical risk minimization and smoothing-parameter selection.

The two backends are the pipeline's one risk engine: every regularized
risk is a backend's ``scan``, which pairs its cached class matrix, per
label, with one statistic. For the kernel backend these are the node
losses, merged over the runs of nodes on which no classifier's loss
changes (every classifier predicts 0 or 1, so every loss is piecewise
constant), and the weighted plug-in density, summed per run; for the
spectral backend, the loss coefficients and the 1/b_k-weighted basis
means. ``empirical_risks`` scans the statistic of a sample's observations,
``expected_risks`` its expectation (``expected_features``). The class's
regularized losses at given points come from the kernel backend's
regularized-loss tables and from the spectral class matrix. The
per-classifier tables of ``noisy_risk`` evaluate the same bilinear form in
another order; they are the reference the tests compare against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .hypotheses import HypothesisClass, LossSpec, Scenario, loss_values, window_mask
from .noisy_risk import (
    NoisySample,
    ObservationLattice,
    _log_clamped,
    contaminated_density,
    plug_in_density,
    svd_loss_coefficients,
)
from .operators import SpectralOperator
from .reader import ConfigReader

__all__ = [
    "RateConfig",
    "FitResult",
    "DeconvolutionBackend",
    "SvdBackend",
    "select_bandwidth",
    "select_cutoff",
    "expected_risks",
    "empirical_risks",
    "minimize",
]

BIAS_VARIANTS = ("general", "squared_loss")


@dataclass(frozen=True)
class RateConfig:
    """Structural parameters entering rates and smoothing-parameter rules.

    ``kappa`` is the Bernstein exponent (> 1), ``rho`` the complexity
    exponent in (0, 1), ``gamma`` the declared density smoothness,
    ``beta_bar`` the total ill-posedness (noise decay sum, or operator
    decay for the spectral backend), and ``bias_variant`` selects which
    approximation-function regime tunes the smoothing: ``general`` for
    arbitrary bounded losses, ``squared_loss`` for losses whose pairwise
    differences square to themselves (the hard loss), which admits the
    sharper bias exponent. ``dim`` is the input dimension d of the rate
    exponents; the data model itself is one-dimensional.
    """

    kappa: float
    rho: float
    gamma: float
    beta_bar: float = 0.0
    dim: int = 1
    bias_variant: str = "general"

    def __post_init__(self):
        if self.kappa <= 1.0:
            raise ConfigurationError("kappa must exceed 1")
        if not 0.0 < self.rho < 1.0:
            raise ConfigurationError("rho must lie strictly inside (0, 1)")
        if self.gamma <= 0.0:
            raise ConfigurationError("gamma must be positive")
        if self.beta_bar < 0.0:
            raise ConfigurationError("beta_bar must be nonnegative")
        if self.dim < 1:
            raise ConfigurationError("dim must be at least 1")
        if self.bias_variant not in BIAS_VARIANTS:
            raise ConfigurationError(f"unknown bias variant {self.bias_variant!r}")

    def to_json(self) -> dict:
        return {
            "kappa": self.kappa, "rho": self.rho, "gamma": self.gamma,
            "beta_bar": self.beta_bar, "dim": self.dim,
            "bias_variant": self.bias_variant,
        }

    @staticmethod
    def from_json(doc: dict) -> "RateConfig":
        """The ``rate_config`` block; absent optional keys take the field defaults."""
        r = ConfigReader(doc, "rate_config")
        cfg = RateConfig(
            kappa=r.get("kappa", float), rho=r.get("rho", float), gamma=r.get("gamma", float),
            beta_bar=r.get("beta_bar", float, RateConfig.beta_bar),
            dim=r.get("dim", int, RateConfig.dim),
            bias_variant=r.get("bias_variant", str, RateConfig.bias_variant, BIAS_VARIANTS),
        )
        r.done()
        return cfg


def _smoothing_exponent(cfg: RateConfig) -> float:
    """Positive exponent e with lambda = n^(-e) (equivalently N = n^(+e)).

    The exponent balances the bias of the regularized risk against the
    variance term; the ``squared_loss`` variant uses the sharper bias scale
    available to hard-type losses.
    """
    k, r, g, b = cfg.kappa, cfg.rho, cfg.gamma, cfg.beta_bar
    if cfg.bias_variant == "general":
        return (2 * k - 1) / (2 * g * (2 * k + r - 1) + 2 * (2 * k - 1) * b)
    return (k - 1) / (g * (2 * k + r - 1) + 2 * (k - 1) * b)


def select_bandwidth(cfg: RateConfig, n: int) -> float:
    """Bandwidth rule: n^(-e) for the balancing exponent e."""
    if n < 1:
        raise ConfigurationError("sample size must be at least 1")
    return float(n) ** (-_smoothing_exponent(cfg))

def select_cutoff(cfg: RateConfig, n: int) -> int:
    """Spectral cutoff rule: n^(+e) rounded to the nearest integer, at least 1."""
    if n < 1:
        raise ConfigurationError("sample size must be at least 1")
    return max(1, int(round(float(n) ** _smoothing_exponent(cfg))))


@dataclass(frozen=True)
class FitResult:
    """Outcome of one exhaustive scan; ``smoothing`` is the bandwidth or the cutoff."""

    index: int
    classifier: object
    empirical_risk: float
    smoothing: float | int
    backend: str
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "empirical_risk": self.empirical_risk,
            "smoothing": [self.smoothing],
            "backend": self.backend,
            "diagnostics": self.diagnostics,
            "classifier": {"kind": "threshold", "threshold": self.classifier.threshold,
                           "orientation": self.classifier.orientation},
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def _cached(cache: dict, key: tuple, build):
    """``build()`` once per key, kept in ``cache``; keys hold values, never ids."""
    value = cache.get(key)
    if value is None:
        value = cache[key] = build()
    return value


@dataclass(frozen=True)
class DeconvolutionBackend:
    """Kernel-quadrature empirical risk on a prepared observation lattice.

    The risk of each classifier pairs its node losses with the
    quadrature-weighted plug-in density of each label's observations;
    ``window`` zeroes the quadrature weights outside a compact interval.
    The node losses are kept merged over the runs of nodes on which no
    classifier's loss changes, so the pairing sums the density per run.
    """

    lattice: ObservationLattice
    loss: LossSpec
    window: tuple[float, float] | None = None
    _cache: dict = field(default_factory=dict, compare=False, repr=False)
    _weights: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        w = self.lattice.weights
        if self.window is not None:
            w = np.where(window_mask(self.lattice.nodes, self.window), w, 0.0)
        object.__setattr__(self, "_weights", w)

    @property
    def name(self) -> str:
        return "deconvolution" if self.window is None else "restricted"

    @property
    def smoothing(self) -> float:
        return self.lattice.bandwidth

    def features(self, z: np.ndarray) -> np.ndarray:
        return self._weights * plug_in_density(z, self.lattice)

    def _runs(self, hclass: HypothesisClass, label: int) -> tuple[np.ndarray, np.ndarray]:
        """The class matrix and the first node of each of its runs: the
        lattice split into runs of consecutive nodes on which every
        classifier's loss is constant."""
        def build():
            nodes = self.lattice.nodes
            change = np.zeros(len(nodes), dtype=bool)
            change[0] = True
            for clf in hclass:
                row = loss_values(clf, self.loss, label, nodes)
                change[1:] |= row[1:] != row[:-1]
            starts = np.flatnonzero(change)
            return np.vstack([loss_values(clf, self.loss, label, nodes[starts])
                              for clf in hclass]), starts

        return _cached(self._cache, (hclass, label), build)

    def class_matrix(self, hclass: HypothesisClass, label: int) -> np.ndarray:
        """Node losses merged over runs, one row per classifier, one column per run."""
        return self._runs(hclass, label)[0]

    def scan(self, hclass: HypothesisClass, label: int, features: np.ndarray) -> np.ndarray:
        """Each classifier's risk term: its run losses times the features summed per run."""
        matrix, starts = self._runs(hclass, label)
        return matrix @ np.add.reduceat(features, starts)

    def _tables(self, hclass: HypothesisClass, label: int) -> np.ndarray:
        """Regularized losses on the lattice nodes, one row per classifier."""
        def build():  # row by row; no class matrix, so diagnostics do not also hold one
            lattice = self.lattice
            return np.vstack([
                lattice.convolve(self._weights * loss_values(clf, self.loss, label, lattice.nodes))
                for clf in hclass])

        return _cached(self._cache, ("tables", hclass, label), build)

    def losses(self, hclass: HypothesisClass, label: int, z: np.ndarray) -> np.ndarray:
        """Regularized losses at the points z (clamped to the lattice, with a
        logged count), one row per classifier."""
        z = np.asarray(z, dtype=float)
        nodes = self.lattice.nodes
        _log_clamped(z, nodes[0], nodes[-1])
        return np.vstack([np.interp(z, nodes, row) for row in self._tables(hclass, label)])

    def expected_features(self, scenario: Scenario, label: int) -> np.ndarray:
        """The expectation of ``features`` for one label: the kernel is even,
        so pairing it with the node losses pairs the tables with the
        contaminated density."""
        lattice = self.lattice
        return self._weights * lattice.convolve(
            lattice.weights * contaminated_density(scenario, lattice, label))


@dataclass(frozen=True)
class SvdBackend:
    """Spectral-cutoff empirical risk.

    The risk of each classifier pairs its basis coefficients with the
    1/b_k-weighted empirical basis moments of each label's observations.
    The cutoff must lie in [1, ``operator.k_max``].
    """

    operator: SpectralOperator
    cutoff: int
    grid: object
    loss: LossSpec
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    name = "svd"

    def __post_init__(self):
        if not 1 <= self.cutoff <= self.operator.k_max:
            raise ConfigurationError(
                f"cutoff {self.cutoff} outside [1, k_max={self.operator.k_max}]")

    @property
    def smoothing(self) -> int:
        return self.cutoff

    @property
    def _inv_b(self) -> np.ndarray:
        return 1.0 / self.operator.singular_values[: self.cutoff + 1]

    def features(self, z: np.ndarray) -> np.ndarray:
        return self._inv_b * self.operator.basis(z, self.cutoff).mean(axis=1)

    def class_matrix(self, hclass: HypothesisClass, label: int) -> np.ndarray:
        """Spectral loss coefficients, one row per classifier."""
        return _cached(self._cache, (hclass, label), lambda: np.vstack(
            [svd_loss_coefficients(clf, self.loss, self.operator, self.cutoff, self.grid, label)
             for clf in hclass]))

    def scan(self, hclass: HypothesisClass, label: int, features: np.ndarray) -> np.ndarray:
        """Each classifier's risk term: its loss coefficients times the features."""
        return self.class_matrix(hclass, label) @ features

    def losses(self, hclass: HypothesisClass, label: int, z: np.ndarray) -> np.ndarray:
        """Regularized losses at the points z, one row per classifier."""
        return (self.class_matrix(hclass, label) * self._inv_b) @ self.operator.basis(
            z, self.cutoff)

    def expected_features(self, scenario: Scenario, label: int) -> np.ndarray:
        """The expectation of ``features`` for one label: the density's
        cosine coefficients, since E[b_k^(-1) phi_k(Z)] = theta_k."""
        return scenario.cosine_coefficients(label, self.cutoff)


def expected_risks(hclass: HypothesisClass, scenario: Scenario, backend) -> np.ndarray:
    """Expected regularized risk of every classifier: per label, the
    backend's scan against the expectation of its statistic."""
    risks = np.zeros(len(hclass))
    for label in scenario.labels:
        features = backend.expected_features(scenario, label)
        risks += scenario.priors[label] * backend.scan(hclass, label, features)
    return risks


def empirical_risks(hclass: HypothesisClass, sample: NoisySample, backend) -> np.ndarray:
    """Regularized empirical risk of every classifier: per label, the
    backend's scan of its class matrix against its statistic of that
    label's observations."""
    risks = np.zeros(len(hclass))
    for label in np.flatnonzero(np.bincount(sample.y, minlength=2)):  # labels present
        label = int(label)
        z_y = sample.z[sample.y == label]
        # features first: allocating them after the cached class matrix
        # fragments the heap and raises the peak resident set
        features = backend.features(z_y)
        risks += (z_y.size / sample.n) * backend.scan(hclass, label, features)
    return risks


def minimize(hclass: HypothesisClass, sample: NoisySample, backend) -> FitResult:
    """Exhaustive scan of the class; deterministic lowest-index tie-break."""
    risks = empirical_risks(hclass, sample, backend)
    idx = int(np.argmin(risks))
    return FitResult(
        index=idx,
        classifier=hclass[idx],
        empirical_risk=float(risks[idx]),
        smoothing=backend.smoothing,
        backend=backend.name,
        diagnostics={"n_y": sample.counts(), "class_size": len(hclass)},
    )
