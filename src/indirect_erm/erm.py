"""Smoothed empirical risk minimization and smoothing-parameter selection.

The two backends are the pipeline's one risk engine for threshold classes.
Under the hard loss a classifier's label-1 loss is one minus its label-0
loss, so every regularized risk, empirical or expected, is one product: the
backend's cached label-0 class matrix against a statistic of the signed
measure P_0 - P_1, plus the statistic of P_1 against the loss 1, one
number that every classifier shares. ``empirical_risks`` pairs it with a
sample's statistic (``features``), ``expected_risks`` with its expectation
(``expected_features``).

Each class matrix comes from the thresholds alone. The kernel backend's
holds the 0/1 predictions on runs of lattice nodes that start right of a
threshold, against the weighted plug-in density summed per run: one
windowed convolution between the first run's end and the last run's
start, and cached dot products for the outer runs and the shared term.
The spectral backend's holds the basis integrals over the side of each
threshold where its label-0 loss is 1, against the 1/b_k-weighted basis
moments. ``losses`` at given points come from differences of the kernel's
cumulative sum, or from the spectral class matrix and basis, the one
spectral evaluation; the kernel tables of ``noisy_risk`` are the reference
the tests compare the kernel backend against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError
from .hypotheses import HypothesisClass, LossSpec, Scenario, _cuts, _thresholds, window_mask
from .noisy_risk import (
    NoisySample,
    ObservationLattice,
    _cells,
    _log_clamped,
    bin_draws,
    contaminated_density,
    plug_in_density,  # noqa: F401  unused here; the benchmark's tracer wraps it by name
)
from .operators import SpectralOperator, basis_integrals
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
        if not self.kappa > 1.0:  # NaN fails too
            raise ConfigurationError("kappa must exceed 1")
        if not 0.0 < self.rho < 1.0:
            raise ConfigurationError("rho must lie strictly inside (0, 1)")
        if not self.gamma > 0.0:
            raise ConfigurationError("gamma must be positive")
        if not self.beta_bar >= 0.0:
            raise ConfigurationError("beta_bar must be nonnegative")
        if self.dim < 1:
            raise ConfigurationError("dim must be at least 1")
        if self.bias_variant not in BIAS_VARIANTS:
            raise ConfigurationError(f"unknown bias variant {self.bias_variant!r}")

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


def _cached(cache: dict, key: tuple, build):
    """``build()`` once per key, kept in ``cache``; keys hold values, never ids."""
    value = cache.get(key)
    if value is None:
        value = cache[key] = build()
    return value


@dataclass(frozen=True)
class DeconvolutionBackend:
    """Kernel-quadrature empirical risk on a prepared observation lattice.

    The risk of each classifier pairs its node losses, merged over runs,
    with the quadrature-weighted plug-in density of the observations summed
    per run; ``window`` zeroes the quadrature weights outside an interval.
    """

    lattice: ObservationLattice
    # unread; kept for perfbench/child.py, which passes one, until ROADMAP item 1
    loss: LossSpec = field(default_factory=LossSpec)
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

    def features(self, hclass: HypothesisClass, sample: NoisySample) -> tuple[np.ndarray, float]:
        """A sample's statistic (``_statistic``) of its binned measures:
        the signed P_0 - P_1 and P_1."""
        self._signed_runs(hclass)  # cached first, below this trial's arrays on the heap
        binned = bin_draws(sample.z, sample.y, self.lattice)
        return self._statistic(hclass, binned[0] - binned[1], binned[1])

    def expected_features(self, hclass: HypothesisClass,
                          scenario: Scenario) -> tuple[np.ndarray, float]:
        """The expectation of ``features``: the statistic of the node
        measures p_y w g_y, with w the lattice weights and g_y the
        contaminated density of label y."""
        lattice = self.lattice
        p0, p1 = (scenario.priors[y] * lattice.weights * contaminated_density(scenario, lattice, y)
                  for y in (0, 1))
        return self._statistic(hclass, p0 - p1, p1)

    def _statistic(self, hclass: HypothesisClass, signed: np.ndarray,
                   label1: np.ndarray) -> tuple[np.ndarray, float]:
        """The weighted plug-in density of the node measure ``signed``
        summed over each run, and the label-1 term every classifier shares,
        that of ``label1`` summed over the lattice.

        The interior runs come from one windowed convolution; the first and
        the last run, and the shared term, are dot products of the node
        measures with the kernel convolved with the weights over that run
        (the kernel is even). These multiply and sum: numpy's pairwise sum
        keeps them accurate where a running sum (``einsum``) loses about
        1e-15 over 12,598 nodes, and BLAS (``@``) would start a thread.
        """
        starts, window, q = self._signed_runs(hclass)
        stat = np.empty(len(starts))
        if window.stop > window.start:
            stat[1:-1] = np.add.reduceat(
                self._weights[window.start: window.stop] * window.convolve(signed),
                starts[1:-1] - window.start)
        stat[-1] = (q[1] * signed).sum()
        stat[0] = (q[0] * signed).sum()  # after the last: one run is its own head
        return stat, float((q[2] * label1).sum())

    def _runs(self, hclass: HypothesisClass) -> tuple[np.ndarray, np.ndarray]:
        """The class matrix and the first node of each run of nodes on which
        no prediction changes: node 0 and every cut s_j (``_cuts``) inside
        the lattice."""
        def build():
            cuts, orientations = _cuts(hclass, self.lattice.nodes)
            change = np.zeros(len(self.lattice.nodes) + 1, dtype=bool)
            change[np.r_[0, cuts]] = True  # np.unique would add 1.4 MiB to a run's peak RSS
            starts = np.flatnonzero(change[:-1])
            return np.where(orientations[:, None] == 1, starts >= cuts[:, None],
                            starts < cuts[:, None]) * 1.0, starts

        return _cached(self._cache, ("runs", hclass), build)

    def class_matrix(self, hclass: HypothesisClass) -> np.ndarray:
        """The 0/1 predictions merged over runs: one row per classifier."""
        return self._runs(hclass)[0]

    def _signed_runs(self, hclass: HypothesisClass):
        """The first node of each run; the kernel window over the interior
        runs (from the second run's start to the last run's); and the
        kernel convolved with the weights over the first run, over the last
        run and over the whole lattice. A class with one run has no
        interior and no last run apart from its first."""
        def build():
            starts = self._runs(hclass)[1]
            w, p = self._weights, len(self._weights)
            a, b = (int(starts[1]), int(starts[-1])) if len(starts) > 1 else (p, p)
            head, tail = w.copy(), w.copy()
            head[a:] = 0.0
            tail[:b] = 0.0
            # ``lattice.whole_window``, but not kept on the lattice: nothing
            # else in a rate run reads its spectrum
            whole = self.lattice.kernel_window(0, p)
            q = np.vstack([whole.convolve(v) for v in (head, tail, w)])
            return starts, self.lattice.kernel_window(a, b), q

        return _cached(self._cache, ("signed", hclass), build)

    def scan(self, hclass: HypothesisClass, features: np.ndarray) -> np.ndarray:
        """The class matrix against the node features summed per run."""
        matrix, starts = self._runs(hclass)
        return matrix @ np.add.reduceat(features, starts)

    def _tables(self, hclass: HypothesisClass) -> np.ndarray:
        """Regularized losses on the nodes: row j for the loss 1{x > t_j} and
        a last row for the loss 1, zero outside the window. The loss 1 on
        nodes lo .. hi gives h (CK[i - lo + P] - CK[i - hi + P - 1]) at node
        i, less h/2 times the kernel at each lattice end node in lo .. hi;
        CK[u] sums the kernel's first u offsets. Row j runs from s_j."""
        def build():
            p, h = len(self.lattice.nodes), self.lattice.spacing
            kernel = self.lattice.kernel.values[0]
            first, last = np.flatnonzero(self._weights)[[0, -1]]  # the window's end nodes
            lo = np.clip(np.r_[_cuts(hclass, self.lattice.nodes)[0], first], first, last + 1)
            ck = sliding_window_view(np.r_[0.0, np.cumsum(kernel)], p)  # ck[k] = CK[k: k + P]
            tables = ck[p - lo]
            tables -= ck[p - 1 - last]
            tables *= h
            if first == 0:
                tables[lo == 0] -= h / 2 * kernel[p - 1:]
            if last == p - 1:
                tables[lo <= last] -= h / 2 * kernel[:p]
            return tables

        return _cached(self._cache, ("tables", hclass), build)

    def losses(self, hclass: HypothesisClass, label: int, z: np.ndarray) -> np.ndarray:
        """Regularized losses at the points z (clamped to the lattice, with a
        logged count), one row per classifier: ``_tables`` interpolated
        linearly, with each point's cell found once. A row of orientation -1
        for label 0, or +1 for label 1, is the loss 1's minus its table's."""
        z = np.asarray(z, dtype=float)
        nodes = self.lattice.nodes
        _log_clamped(z, nodes[0], nodes[-1])
        z = np.clip(z, nodes[0], nodes[-1])
        cell = _cells(z, nodes, self.lattice.spacing)
        tables = self._tables(hclass)
        out, step = tables[:, cell], tables[:, cell + 1]
        step -= out
        step *= (z - nodes[cell]) / (nodes[cell + 1] - nodes[cell])
        out += step
        flip = (_thresholds(hclass)[1] == 1) == (label == 1)
        return np.subtract(out[-1], out[:-1], out=out[:-1], where=flip[:, None])


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
    # unread; kept for perfbench/child.py, which passes one, until ROADMAP item 1
    loss: LossSpec = field(default_factory=LossSpec)
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

    @property
    def _ones(self) -> np.ndarray:
        """The loss coefficients of the loss 1: the basis integrals over the
        domain (a classifier's label-0 plus label-1 row)."""
        return _cached(self._cache, ("domain",), lambda: basis_integrals(
            self.grid.lower, self.grid.upper, self.cutoff))

    def features(self, hclass: HypothesisClass, sample: NoisySample) -> tuple[np.ndarray, float]:
        """The statistic ``empirical_risks`` pairs with the class matrix:
        the 1/b_k-weighted basis moments of the signed measure P_0 - P_1,
        and the label-1 term every classifier shares, those moments of P_1
        against the loss coefficients of the loss 1.

        Each label's draws get their own basis evaluation. One evaluation
        over all n draws plus a masked copy per label costs more: at
        n = 16384 and cutoff 6, a median 1.77 ms against 1.01 ms (2 vCPU),
        and its column sums differ in the last bits.
        """
        moments = np.stack([self.operator.basis(sample.z[sample.y == label], self.cutoff)
                            .sum(axis=1) for label in (0, 1)]) / sample.n * self._inv_b
        return moments[0] - moments[1], float(self._ones @ moments[1])

    def expected_features(self, hclass: HypothesisClass,
                          scenario: Scenario) -> tuple[np.ndarray, float]:
        """The expectation of ``features``, (p_0 theta_0 - p_1 theta_1,
        p_1 ones . theta_1), with theta_y the cosine coefficients of the
        label-y density, since E[b_k^(-1) phi_k(Z)] = theta_k."""
        p0, p1 = (scenario.priors[y] * scenario.cosine_coefficients(y, self.cutoff)
                  for y in (0, 1))
        return p0 - p1, float(self._ones @ p1)

    def class_matrix(self, hclass: HypothesisClass) -> np.ndarray:
        """Label-0 spectral loss coefficients, one row per classifier: the
        basis integrals over the part of the domain where its loss is 1:
        right of the threshold, clipped to the domain, for orientation +1
        and left of it for -1."""
        def build():
            thresholds, orientations = _thresholds(hclass)
            lo, hi = self.grid.lower, self.grid.upper
            t, right = np.clip(thresholds, lo, hi), orientations == 1
            return basis_integrals(np.where(right, t, lo), np.where(right, hi, t), self.cutoff)

        return _cached(self._cache, ("matrix", hclass), build)

    def losses(self, hclass: HypothesisClass, label: int, z: np.ndarray) -> np.ndarray:
        """Regularized losses at the points z, one row per classifier."""
        matrix = self.class_matrix(hclass)
        if label == 1:
            matrix = self._ones - matrix
        return (matrix * self._inv_b) @ self.operator.basis(z, self.cutoff)


def _risks(hclass: HypothesisClass, backend, statistic: tuple[np.ndarray, float]) -> np.ndarray:
    """The label-0 class matrix against the signed statistic, plus the
    label-1 term every classifier shares."""
    signed, shared = statistic
    return backend.class_matrix(hclass) @ signed + shared


def expected_risks(hclass: HypothesisClass, scenario: Scenario, backend) -> np.ndarray:
    """Expected regularized risk of every classifier: ``empirical_risks``
    with the expectation of the backend's statistic."""
    return _risks(hclass, backend, backend.expected_features(hclass, scenario))


def empirical_risks(hclass: HypothesisClass, sample: NoisySample, backend) -> np.ndarray:
    """Regularized empirical risk of every classifier.

    Under the hard loss a classifier's label-1 loss is one minus its
    label-0 loss, so the risks are one product of the label-0 class matrix
    with the backend's statistic of the signed measure P_0 - P_1, plus the
    label-1 term that every classifier shares.
    """
    return _risks(hclass, backend, backend.features(hclass, sample))


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
