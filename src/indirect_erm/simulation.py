"""End-to-end Monte-Carlo experiments over growing sample sizes.

A plan fixes a scenario, a hypothesis class, a backend, and a rate
configuration; each trial draws a contaminated sample, fits the smoothed
empirical risk minimizer with the tuned smoothing parameter, and scores
the exact excess risk by quadrature. Means per sample size feed a weighted
log-log slope fit that is compared to the theoretical exponent.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import RATE_MODES, fit_rate_slope, hard_loss_exponent, rate_exponent
from .erm import (
    DeconvolutionBackend,
    RateConfig,
    SvdBackend,
    minimize,
    select_bandwidth,
    select_cutoff,
)
from .errors import ConfigurationError, SimulationError
from .hypotheses import HypothesisClass, LossSpec, Scenario, threshold_grid, true_risk
from .kernels import NoiseModel
from .noisy_risk import NoisySample, build_lattice
from .operators import (
    CoefficientVector,
    SpectralOperator,
    apply_operator,
    contaminate,
    sample_density,
)

__all__ = [
    "BACKENDS",
    "ExperimentPlan",
    "RateReport",
    "build_backend",
    "generate_sample",
    "rule_smoothing",
    "run_trial",
    "run_rate_experiment",
    "trial_seed_sequence",
]


def _sampling_density(scenario: Scenario, label: int) -> np.ndarray:
    """The tabulated density one label's draws come from, built once per scenario.

    For a spectral operator this is the image density of the label's cosine
    coefficients; for additive noise it is the clean conditional density,
    which ``contaminate`` then perturbs. The array is read-only and cached
    on the scenario under ``("sampling_density", label)``.
    """
    key = ("sampling_density", label)
    values = scenario._cache.get(key)
    if values is None:
        op = scenario.contamination
        if isinstance(op, SpectralOperator):
            coeffs = CoefficientVector(scenario.cosine_coefficients(label, op.k_max))
            values = apply_operator(coeffs, op, scenario.domain)
        else:
            values = scenario.density_values(label)
        values.setflags(write=False)
        scenario._cache[key] = values
    return values


def generate_sample(scenario: Scenario, n: int, rng) -> NoisySample:
    """Draw a contaminated labeled sample of size n from the scenario.

    Labels follow the priors. With a spectral operator, observations are
    drawn directly from the operator image densities; with additive noise,
    inputs are drawn from the conditional densities and contaminated. The
    tabulated densities do not depend on the sample, so they are built on a
    scenario's first draw and cached on it (``_sampling_density``).
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    y = (rng.random(n) < scenario.priors[1]).astype(int)
    z = np.empty(n)
    contamination = scenario.contamination
    for label in scenario.labels:
        mask = y == label
        count = int(mask.sum())
        if count == 0:
            continue
        draws = sample_density(_sampling_density(scenario, label), scenario.domain, count, rng)
        if not isinstance(contamination, SpectralOperator):  # additive noise
            draws = contaminate(draws, contamination, rng)
        z[mask] = draws
    return NoisySample(z=z, y=y)


BACKENDS = ("deconvolution", "restricted", "svd")


def _check_backend(kind: str, scenario: Scenario, window) -> None:
    """Reject a backend that the scenario or the window cannot feed."""
    if kind not in BACKENDS:
        raise ConfigurationError(f"unknown backend {kind!r}")
    if (kind == "restricted") != (window is not None) or window is not None and (
            len(window) != 2 or window[1] <= window[0]):
        raise ConfigurationError("the restricted backend needs a window [a, b] with a < b, "
                                 "and only it takes one")
    if kind == "svd" and not isinstance(scenario.contamination, SpectralOperator):
        raise ConfigurationError("svd backend needs a spectral-operator scenario")
    if kind != "svd" and not isinstance(scenario.contamination, NoiseModel):
        raise ConfigurationError("kernel backends need an additive-noise scenario")


def rule_smoothing(kind: str, scenario: Scenario, rate_config: RateConfig,
                   n: int) -> float | int:
    """The rule's bandwidth, or its cutoff capped at the operator's ``k_max``."""
    if kind != "svd":
        return select_bandwidth(rate_config, n)
    _check_backend(kind, scenario, None)  # a config error, not a missing k_max
    return min(select_cutoff(rate_config, n), scenario.contamination.k_max)


def build_backend(kind: str, scenario: Scenario, loss: LossSpec, smoothing: float | int,
                  base_kernel: str = "sinc", pad_factor: float = 4.0,
                  window: tuple[float, float] | None = None) -> DeconvolutionBackend | SvdBackend:
    """The risk backend at one smoothing value: a bandwidth, or a cutoff."""
    _check_backend(kind, scenario, window)
    if kind == "svd":
        return SvdBackend(operator=scenario.contamination, cutoff=int(smoothing),
                          grid=scenario.domain, loss=loss)
    lattice = build_lattice(scenario.domain, scenario.contamination, float(smoothing),
                            base_kind=base_kernel, pad_factor=pad_factor)
    return DeconvolutionBackend(lattice=lattice, loss=loss, window=window)


@dataclass(frozen=True)
class ExperimentPlan:
    """Definition of one rate experiment."""

    scenario: Scenario
    rate_config: RateConfig
    n_grid: tuple[int, ...]
    replications: int
    base_seed: int = 0
    backend: str = "deconvolution"
    n_thresholds: int = 101
    loss: LossSpec = field(default_factory=LossSpec)
    base_kernel: str = "sinc"
    pad_factor: float = 4.0
    window: tuple[float, float] | None = None
    theory_mode: str = "hard_loss"

    def __post_init__(self):
        ns = tuple(int(n) for n in self.n_grid)
        object.__setattr__(self, "n_grid", ns)
        if len(ns) < 2 or any(b <= a for a, b in zip(ns, ns[1:])):
            raise ConfigurationError("n_grid must be strictly increasing with >= 2 values")
        if self.replications < 1:
            raise ConfigurationError("need at least one replication")
        _check_backend(self.backend, self.scenario, self.window)
        if self.theory_mode not in RATE_MODES:
            raise ConfigurationError(f"unknown theory mode {self.theory_mode!r}")

    def backend_at(self, n: int) -> DeconvolutionBackend | SvdBackend:
        smoothing = rule_smoothing(self.backend, self.scenario, self.rate_config, n)
        return build_backend(self.backend, self.scenario, self.loss, smoothing,
                             base_kernel=self.base_kernel, pad_factor=self.pad_factor,
                             window=self.window)

    def hypothesis_class(self) -> HypothesisClass:
        return threshold_grid(self.n_thresholds, self.scenario.domain)

    def theory_exponent(self) -> float:
        if self.theory_mode == "hard_loss":
            return hard_loss_exponent(self.scenario.alpha, self.rate_config.gamma,
                                      self.rate_config.dim, self.rate_config.beta_bar)
        return rate_exponent(self.rate_config, self.theory_mode)


def trial_seed_sequence(base_seed: int, n: int, replicate: int) -> np.random.SeedSequence:
    """Deterministic per-trial seed; extending the n-grid keeps old trials."""
    return np.random.SeedSequence(entropy=base_seed, spawn_key=(n, replicate))


@dataclass(frozen=True)
class _PlanContext:
    """Shared per-plan state: class, oracle, per-n smoothing artifacts."""

    hclass: HypothesisClass
    risks: np.ndarray
    star_index: int


def _plan_context(plan: ExperimentPlan) -> _PlanContext:
    hclass = plan.hypothesis_class()
    risks = np.array([true_risk(c, plan.scenario, plan.loss, window=plan.window)
                      for c in hclass])
    star = int(np.argmin(risks))
    return _PlanContext(hclass=hclass, risks=risks, star_index=star)


def run_trial(plan: ExperimentPlan, n: int, seed, _context=None, _backend=None) -> float:
    """One replication: sample, fit, exact excess risk (nonnegative)."""
    ctx = _context or _plan_context(plan)
    backend = _backend or plan.backend_at(n)
    rng = np.random.default_rng(seed)
    sample = generate_sample(plan.scenario, n, rng)
    fit = minimize(ctx.hclass, sample, backend)
    return float(ctx.risks[fit.index] - ctx.risks[ctx.star_index])


@dataclass
class RateReport:
    """Per-n excess-risk summaries plus the fitted log-log slope."""

    rows: list                      # (n, mean, se, count)
    slope: float
    slope_half_width: float
    theory_exponent: float

    def to_json(self) -> dict:
        return {
            "rows": [[int(n), m, s, int(c)] for n, m, s, c in self.rows],
            "slope": self.slope,
            "slope_half_width": self.slope_half_width,
            "theory_exponent": self.theory_exponent,
        }

    def summary_json(self) -> dict:
        return {
            "slope": self.slope,
            "slope_half_width": self.slope_half_width,
            "theory_exponent": self.theory_exponent,
            "theory_slope": -self.theory_exponent,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "mean_excess", "standard_error", "replications"])
            for n, m, s, c in self.rows:
                writer.writerow([int(n), repr(float(m)), repr(float(s)), int(c)])


def _run_block(args):
    """All replications for one n (a pool worker entry, so kept picklable)."""
    plan, ctx, n = args
    backend = plan.backend_at(n)
    out = np.empty(plan.replications)
    for rep in range(plan.replications):
        seed = trial_seed_sequence(plan.base_seed, n, rep)
        out[rep] = run_trial(plan, n, seed, _context=ctx, _backend=backend)
    return n, out


def _iter_blocks(plan: ExperimentPlan, threads: int):
    """Yield (n, excess array) per sample size, in n order.

    The pool never gets more workers than n-blocks or cores: forked
    workers all start at once, and surplus ones would sit idle.
    """
    ctx = _plan_context(plan)
    args = [(plan, ctx, n) for n in plan.n_grid]
    workers = min(threads, len(plan.n_grid), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_run_block, args)
    else:
        yield from map(_run_block, args)


def run_rate_experiment(plan: ExperimentPlan, threads: int = 1,
                        progress=None) -> RateReport:
    """All trials of the plan; deterministic for a fixed plan and base seed.

    Trial seeds derive from (base seed, n, replicate), so results do not
    depend on scheduling and extending the n-grid preserves earlier points.
    ``progress``, when given, is called with each completed (n, mean, se,
    count) row in n order, so partial results can be persisted incrementally.
    A failed trial aborts the experiment with the completed rows attached.
    """
    rows = []
    try:
        for n, excesses in _iter_blocks(plan, threads):
            mean = float(excesses.mean())
            se = float(excesses.std(ddof=1) / np.sqrt(len(excesses))) \
                if len(excesses) > 1 else 0.0
            rows.append((n, mean, se, len(excesses)))
            if progress is not None:
                progress(rows[-1])
    except Exception as exc:  # partial-results contract
        if isinstance(exc, SimulationError):
            raise
        raise SimulationError(f"rate experiment aborted: {exc}", partial_rows=rows) from exc
    slope, half = fit_rate_slope([(n, m, s) for n, m, s, _ in rows])
    return RateReport(rows=rows, slope=slope, slope_half_width=half,
                      theory_exponent=plan.theory_exponent())
