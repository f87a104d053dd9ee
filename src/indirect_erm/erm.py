"""Smoothed empirical risk minimization and smoothing-parameter selection.

The two backends are the pipeline's one risk engine for threshold classes.
Under the hard loss a classifier's label-1 loss is one minus its label-0
loss, so every regularized risk, empirical or expected, is one product: the
backend's cached label-0 class matrix against a statistic of the signed
measure P_0 - P_1, plus the statistic of P_1 against the loss 1, one
number that every classifier shares. ``empirical_risks`` pairs it with a
sample's statistic (``features``), ``expected_risks`` with its expectation
(``expected_features``), on the kernel backend by the deconvolution
identity: the raw loss against the base-smoothed density, read off the
scaled base kernel's cumulative sum at the run boundaries.

Each class matrix comes from the thresholds alone: every classifier
predicts 1 right of its threshold, where its label-0 loss is 1. The
kernel backend's holds the 0/1 predictions on runs of lattice nodes that
start right of a threshold, against the weighted plug-in density summed
per run: one windowed convolution between the first run's end and the
last run's start, and cached dot products for the outer runs and the
shared term. The spectral backend's holds the basis integrals from each
threshold to the domain's end, against the 1/b_k-weighted basis moments.
``relative_losses`` gives the label-0 losses of chosen classifiers at
given points, up to one term all of them share, which is all that a
difference of two losses needs: on the kernel backend a row is h times
the kernel's cumulative sum at the ends of every point's cell,
interpolated, one row at a time, with no table of the rows kept; it is
the kernel backend's one evaluation of losses at points, and the
per-classifier FFT tables of ``noisy_risk`` (``modified_loss_deconv``)
are the reference the tests compare it against. On the spectral backend
it and ``losses`` come from the class matrix and basis, the one spectral
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .hypotheses import HypothesisClass, LossSpec, Scenario, _cuts, _thresholds, window_mask
from .noisy_risk import (
    NoisySample,
    ObservationLattice,
    _cells,
    _domain_nodes,
    _log_clamped,
    bin_draws,
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
            # every classifier predicts 1 right of its threshold
            "classifier": {"kind": "threshold", "threshold": self.classifier.threshold,
                           "orientation": 1},
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
        binned = bin_draws(sample.groups, self.lattice)
        return self._statistic(hclass, binned[0] - binned[1], binned[1])

    def expected_features(self, hclass: HypothesisClass,
                          scenario: Scenario) -> tuple[np.ndarray, float]:
        """The expectation of ``features`` by the deconvolution identity (at
        a contaminated observation the corrected kernel has the expectation
        of the base kernel at the clean input): the statistic of the node
        measures p_y w S_y, with S_y(i) = sum_l B[i - l + P - 1] w_l f_y(l)
        the label-y density smoothed by the scaled base kernel B
        (``lattice.base_scaled``) and w the weights, zero outside the window
        in the outer sum only.

        Summed over the nodes a .. b - 1 of a run, clipped to the window's
        end nodes, B gives h (CB[b - l + P - 1] - CB[a - l + P - 1]) at the
        node l, CB the cumulative sum of B from 0, less h/2 B at each lattice
        end node the window holds (its trapezoid weight): the identity of
        ``_row_filler``. So every run boundary c gives one sum of CB[c - l +
        P - 1] against the signed node measure g = p_0 w f_0 - p_1 w f_1 over
        the domain's nodes l, off which the densities vanish; a run is the
        difference of its two ends', and the shared term, of p_1 w f_1, that
        of the window's. No transform is taken and no runs x P array formed.
        """
        lattice = self.lattice
        p, h = len(lattice.nodes), lattice.spacing
        base = lattice.base_scaled.values[0]
        cb = np.empty(len(base) + 1)
        cb[0] = 0.0
        np.cumsum(base, out=cb[1:])
        first, last = np.flatnonzero(self._weights)[[0, -1]]
        dom = _domain_nodes(scenario, lattice)
        (p0, p1), x, w = scenario.priors, lattice.nodes[dom], lattice.weights[dom]
        f0, f1 = (w * scenario.density(y, x) for y in (0, 1))
        # reversed, so node l meets CB[c - l + P - 1] in one forward slice
        signed, label1 = (p0 * f0 - p1 * f1)[::-1], (p1 * f1)[::-1]
        lo, hi = p - dom.stop, p - dom.start  # B[P - 1 - l] for l in dom, reversed

        def at(start, g):  # sum over l of g_l CB[c - l + P - 1] at c = start - lo
            return (cb[start: start + len(g)] * g).sum()

        bounds = np.clip(np.r_[self._runs(hclass)[1], p], first, last + 1) + lo
        stat = np.diff([at(c, signed) for c in bounds])
        stat *= h
        shared = h * (at(last + 1 + lo, label1) - at(first + lo, label1))
        if first == 0:
            stat[0] -= h / 2 * (base[lo: hi] * signed).sum()
            shared -= h / 2 * (base[lo: hi] * label1).sum()
        if last == p - 1:
            stat[-1] -= h / 2 * (base[lo + p - 1: hi + p - 1] * signed).sum()
            shared -= h / 2 * (base[lo + p - 1: hi + p - 1] * label1).sum()
        return stat, float(shared)

    def _density_statistic(self, hclass: HypothesisClass, scenario: Scenario,
                           density) -> tuple[np.ndarray, float]:
        """The statistic whose risks (``_risks``) integrate each label's raw
        loss against ``density(scenario, lattice, y)``: the signed node
        measure p_0 w f_0 - p_1 w f_1 summed per run (w the weights, zero
        outside the window), and the label-1 mass every classifier shares.
        The exact risks of ``diagnostics.empirical_bias_deconv`` read it
        with the zero-extended density."""
        (p0, p1), starts = scenario.priors, self._runs(hclass)[1]
        f0, f1 = (self._weights * density(scenario, self.lattice, y) for y in (0, 1))
        return np.add.reduceat(p0 * f0 - p1 * f1, starts), float(p1 * f1.sum())

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
            cuts = _cuts(hclass, self.lattice.nodes)
            change = np.zeros(len(self.lattice.nodes) + 1, dtype=bool)
            change[np.r_[0, cuts]] = True  # np.unique would add 1.4 MiB to a run's peak RSS
            starts = np.flatnonzero(change[:-1])
            return (starts >= cuts[:, None]) * 1.0, starts

        return _cached(self._cache, ("runs", hclass), build)

    def class_matrix(self, hclass: HypothesisClass) -> np.ndarray:
        """The 0/1 predictions merged over runs: one row per classifier."""
        return self._runs(hclass)[0]

    def _signed_runs(self, hclass: HypothesisClass):
        """The first node of each run; the kernel window over the interior
        runs (from the second run's start to the last run's); and q, whose
        rows are the kernel convolved with the weights over the first run,
        over the last run and over the whole lattice, filled one at a time.
        A class with one run has no interior and no last run apart from its first."""
        def build():
            starts = self._runs(hclass)[1]
            w, p = self._weights, len(self._weights)
            a, b = (int(starts[1]), int(starts[-1])) if len(starts) > 1 else (p, p)
            # the window over every node, built once per class and dropped
            # before the interior one: nothing else in a rate run reads it
            whole = self.lattice.kernel_window(0, p)
            q, part = np.empty((3, p)), np.empty(p)
            for row, (lo, hi) in zip(q, ((0, a), (b, p), (0, p))):  # head, tail, whole
                part.fill(0.0)
                part[lo:hi] = w[lo:hi]
                row[:] = whole.convolve(part)
            del whole, part
            return starts, self.lattice.kernel_window(a, b), q

        return _cached(self._cache, ("signed", hclass), build)

    def _loss_rows(self, hclass: HypothesisClass) -> tuple[np.ndarray, int, np.ndarray]:
        """The first node lo_j of each regularized loss row: the cut s_j for
        the loss 1{x > t_j}, then the window's first node for the loss 1,
        clipped to the window's end nodes first .. last + 1; the last end
        node; and CK, the kernel's cumulative sum from 0 (2P values)."""
        def build():
            kernel = self.lattice.kernel.values[0]
            first, last = np.flatnonzero(self._weights)[[0, -1]]
            lo = np.clip(np.r_[_cuts(hclass, self.lattice.nodes), first], first, last + 1)
            ck = np.empty(len(kernel) + 1)
            ck[0] = 0.0
            np.cumsum(kernel, out=ck[1:])
            return lo, int(last), ck

        return _cached(self._cache, ("rows", hclass), build)

    def _row_filler(self, hclass: HypothesisClass):
        """``fill(j, out)`` writes loss row j (``_loss_rows``; the loss 1's
        row is j = len(hclass)) at every lattice node into ``out`` and
        returns it. The loss 1 on nodes lo .. last gives h (CK[i - lo + P] -
        CK[i - last + P - 1]) at node i, less h/2 times the kernel at each
        lattice end node in lo .. last (its trapezoid weight), in that
        order: slices of CK and of the kernel, the terms every row shares
        taken once."""
        lo, last, ck = self._loss_rows(hclass)
        p, h = len(self._weights), self.lattice.spacing
        kernel = self.lattice.kernel.values[0]
        base = ck[p - 1 - last: 2 * p - 1 - last]
        head = kernel[p - 1:] * (h / 2) if lo.min() == 0 else None
        tail = kernel[:p] * (h / 2) if last == p - 1 else None

        def fill(j: int, out: np.ndarray) -> np.ndarray:
            np.subtract(ck[p - lo[j]: 2 * p - lo[j]], base, out=out)
            out *= h
            if lo[j] == 0:
                out -= head
            if tail is not None and lo[j] <= last:
                out -= tail
            return out

        return fill

    def relative_losses(self, hclass: HypothesisClass, rows, z: np.ndarray) -> np.ndarray:
        """Label-0 regularized losses of the classifiers ``rows`` at the
        points z, clamped to the lattice with a logged count, one row each,
        up to one term that all of them share; the label-1 losses differ by
        minus the same.

        A row is h CK[i - lo + P] (``_loss_rows``) at the two ends i of each
        point's cell (``_cells``), interpolated: the step between them is h
        times the kernel at the left end. The loss's other CK term,
        h CK[i - last + P - 1], and, when the window holds the lattice's
        last node, its tail term are shared by every row with a cut inside
        the window and are never formed. So a row whose cut lies past the
        window's last node, whose loss is 0, adds that tail term back, and
        one whose cut lies at node 0 subtracts its head term (``_row_filler``
        forms all of these terms on the nodes)."""
        z = np.asarray(z, dtype=float)
        nodes = self.lattice.nodes
        _log_clamped((z,), nodes[0], nodes[-1])
        z = np.clip(z, nodes[0], nodes[-1])
        cell = _cells(z, nodes, self.lattice.spacing)
        step = np.subtract(z, nodes[cell], out=z)  # no second copy kept beside the rows
        step /= nodes[cell + 1] - nodes[cell]  # the fraction of the cell left of z
        lo, last, ck = self._loss_rows(hclass)
        p, h = len(self._weights), self.lattice.spacing
        kernel = self.lattice.kernel.values[0]
        hck = ck * h
        buffer = np.empty(len(cell))

        def edge(start):  # h/2 times the kernel at offset index start + i, interpolated
            out = np.take(kernel[start + 1:], cell, mode="clip")
            out -= np.take(kernel[start:], cell, mode="clip", out=buffer)
            out *= step
            out += buffer
            out *= h / 2
            return out

        lo = lo[np.asarray(rows, dtype=int)]
        head = edge(p - 1) if (lo == 0).any() else None
        tail = edge(0) if last == p - 1 and (lo > last).any() else None
        step *= h  # the fracs, scaled for the kernel's step
        out = np.empty((len(lo), len(cell)))
        for start, row in zip(p - lo, out):
            np.take(hck[start:], cell, mode="clip", out=row)
            np.take(kernel[start:], cell, mode="clip", out=buffer)
            buffer *= step
            row += buffer
            if start == p:
                row -= head
            elif tail is not None and start < p - last:
                row += tail
        return out


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
    _inv_b: np.ndarray = field(init=False, compare=False, repr=False)
    # the loss coefficients of the loss 1: the basis integrals over the
    # domain (a classifier's label-0 plus label-1 row)
    _ones: np.ndarray = field(init=False, compare=False, repr=False)

    name = "svd"

    def __post_init__(self):
        if not 1 <= self.cutoff <= self.operator.k_max:
            raise ConfigurationError(
                f"cutoff {self.cutoff} outside [1, k_max={self.operator.k_max}]")
        object.__setattr__(self, "_inv_b", 1.0 / self.operator.singular_values[: self.cutoff + 1])
        object.__setattr__(self, "_ones", basis_integrals(self.grid.lower, self.grid.upper,
                                                          self.cutoff))

    @property
    def smoothing(self) -> int:
        return self.cutoff

    def features(self, hclass: HypothesisClass, sample: NoisySample) -> tuple[np.ndarray, float]:
        """The statistic ``empirical_risks`` pairs with the class matrix:
        the 1/b_k-weighted basis moments of the signed measure P_0 - P_1,
        and the label-1 term every classifier shares, those moments of P_1
        against the loss coefficients of the loss 1."""
        moments = np.stack([self.operator.basis(z, self.cutoff).sum(axis=1)
                            for z in sample.groups]) / sample.n * self._inv_b
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
        basis integrals over the part of the domain where its loss is 1,
        from the threshold, clipped to the domain, to the domain's end."""
        def build():
            lo, hi = self.grid.lower, self.grid.upper
            return basis_integrals(np.clip(_thresholds(hclass), lo, hi), hi, self.cutoff)

        return _cached(self._cache, ("matrix", hclass), build)

    def losses(self, hclass: HypothesisClass, label: int, z: np.ndarray) -> np.ndarray:
        """Regularized losses at the points z, one row per classifier."""
        matrix = self.class_matrix(hclass)
        if label == 1:
            matrix = self._ones - matrix
        return (matrix * self._inv_b) @ self.operator.basis(z, self.cutoff)

    def relative_losses(self, hclass: HypothesisClass, rows, z: np.ndarray) -> np.ndarray:
        """Label-0 regularized losses of the classifiers ``rows`` at the
        points z, one row each: ``DeconvolutionBackend.relative_losses``
        with no term left out."""
        matrix = self.class_matrix(hclass)[np.asarray(rows, dtype=int)]
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
