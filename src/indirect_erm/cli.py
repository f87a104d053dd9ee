"""Configuration-driven command line entry point.

Commands: ``kernel`` (tabulate a kernel), ``fit`` (one smoothed-ERM fit),
``rates`` (Monte-Carlo rate experiment), ``diagnose`` (structural-scaling
sweeps), ``exponent`` (rate-exponent arithmetic). A run first reads its
whole JSON config: each key is read in one place, with its type, default
and allowed values, and a key the command does not read is rejected, so a
bad config fails before any work. The read returns the command's work,
which writes its artifacts plus a manifest, bitwise reproducible for a
fixed config and seed.

Exit codes: 0 success, 2 configuration/schema violation, 3 numerical or
model error, 4 I/O error.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .diagnostics import (
    RATE_MODES,
    DiagnosticsReport,
    bernstein_ratio,
    empirical_bias_deconv,
    empirical_bias_svd,
    empirical_lipschitz,
    fit_rate_slope,
    hard_loss_exponent,
    rate_exponent,
    sup_bound_deconv,
    sup_bound_svd,
    table_sup,
)
from .erm import BIAS_VARIANTS, RateConfig, minimize
from .errors import ConfigurationError, DataError, IndirectErmError, SimulationError
from .hypotheses import LOSS_KINDS, Scenario, bayes_in_class, threshold_grid, true_risks
from .kernels import BASE_KINDS, build_base_kernel, build_deconvolution_kernel
# not called here; kept as module attributes that the benchmark tracer wraps
from .noisy_risk import build_lattice, modified_loss_deconv  # noqa: F401
from .operators import SpectralOperator, check_density_coefficients
from .reader import ConfigReader
from .simulation import (
    BACKENDS,
    ExperimentPlan,
    _check_backend,
    build_backend,
    generate_sample,
    rule_smoothing,
    run_rate_experiment,
)


# ---------------------------------------------------------------------------
# config blocks that several commands read
# ---------------------------------------------------------------------------

def _scenario(top: ConfigReader) -> Scenario:
    """The ``scenario`` block. Under a spectral operator each label's
    cosine coefficients must pass the positivity guard that the first draw
    applies, so a scenario that could never draw fails here."""
    scenario = Scenario.from_json(top.get("scenario", dict))
    op = scenario.contamination
    if isinstance(op, SpectralOperator):
        for label in scenario.labels:
            check_density_coefficients(scenario.cosine_coefficients(label, op.k_max))
    return scenario


def _rate_config(top: ConfigReader) -> RateConfig:
    return RateConfig.from_json(top.get("rate_config", dict))


def _loss(top: ConfigReader) -> None:
    """Check the ``loss`` block: the hard loss is the only loss there is."""
    r = ConfigReader(top.get("loss", dict, {}), "loss")
    r.get("kind", str, "hard", LOSS_KINDS)
    r.get("clip", float, 1.0, (1.0,))  # below 1 it would only scale every risk
    r.done()


def _at_least(key: str, value: int, minimum: int = 1) -> int:
    """A count or sample size, which must be at least ``minimum``."""
    if value < minimum:
        raise ConfigurationError(f"config key {key!r} must be at least {minimum}, got {value}")
    return value


def _class_size(top: ConfigReader, default: int = 101, minimum: int = 1) -> int:
    """The threshold count of the ``hypotheses`` block."""
    r = ConfigReader(top.get("hypotheses", dict, {}), "hypotheses")
    r.get("kind", str, "thresholds", ("thresholds",))
    count = r.get("count", int, default)
    r.done()
    return _at_least("hypotheses.count", count, minimum)


def _check_smoothing(scenario: Scenario, key: str, values) -> None:
    """Reject a cutoff outside [1, k_max], or a bandwidth at or below the
    domain spacing, which the kernel inversion refuses as aliased."""
    op, h = scenario.contamination, scenario.domain.spacing
    for value in values:
        if isinstance(op, SpectralOperator) and not 1 <= value <= op.k_max:
            raise ConfigurationError(f"config key {key!r}: cutoff {value} outside "
                                     f"[1, k_max={op.k_max}]")
        if not isinstance(op, SpectralOperator) and not value > h:
            raise ConfigurationError(f"config key {key!r}: bandwidth {value} at or below "
                                     f"the domain spacing {h}")


def _base_kernel(top: ConfigReader) -> str:
    return top.get("base_kernel", str, "sinc", BASE_KINDS)


def _kernel_options(top: ConfigReader) -> dict:
    pad_factor = top.get("pad_factor", float, 4.0)
    if not 0.0 <= pad_factor < np.inf:  # NaN fails too
        raise ConfigurationError(
            f"config key 'pad_factor' must be finite and nonnegative, got {pad_factor}")
    return {"base_kernel": _base_kernel(top), "pad_factor": pad_factor}


def _backend(top: ConfigReader) -> tuple[str, dict]:
    """The backend kind and the options ``build_backend`` takes for it."""
    kind = top.get("backend", str, "deconvolution", BACKENDS)
    options = {} if kind == "svd" else _kernel_options(top)
    if kind == "restricted":
        options["window"] = tuple(top.get("window", [float]))
    return kind, options


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _manifest(out_dir: str, doc: dict, seed: int, artifacts: list[str]) -> None:
    manifest = {
        "config": doc,
        "config_sha256": hashlib.sha256(_json_bytes(doc)).hexdigest(),
        "seed": seed,
        "package_version": __version__,
        "artifacts": sorted(artifacts),
    }
    _write(os.path.join(out_dir, "manifest.json"), _json_bytes(manifest))


# ---------------------------------------------------------------------------
# commands: each reads its keys and returns its work(out_dir, seed, threads)
# ---------------------------------------------------------------------------

def _read_exponent(top: ConfigReader):
    mode = top.get("theory_mode", str, "deconv", RATE_MODES)
    alpha = top.get("alpha", float, None) if mode == "hard_loss" else None
    if alpha is None:
        value = rate_exponent(_rate_config(top), mode)
    else:  # the margin given directly: the rate_config block needs no kappa or rho
        r = ConfigReader(top.get("rate_config", dict, {}), "rate_config")
        value = hard_loss_exponent(alpha, r.get("gamma", float, 1.0),
                                   r.get("dim", int, RateConfig.dim),
                                   r.get("beta_bar", float, RateConfig.beta_bar))
        r.done()

    def work(out_dir, seed, threads):
        print(f"{value:.6f}")
        _write(os.path.join(out_dir, "exponent.json"),
               _json_bytes({"mode": mode, "exponent": value}))
        return ["exponent.json"]
    return work


def _read_kernel(top: ConfigReader):
    scenario = _scenario(top)
    if isinstance(scenario.contamination, SpectralOperator):
        raise ConfigurationError("kernel command needs an additive-noise scenario")
    base_kind, bandwidth = _base_kernel(top), top.get("bandwidth", float, 0.2)
    _check_smoothing(scenario, "bandwidth", [bandwidth])

    def work(out_dir, seed, threads):
        base = build_base_kernel(base_kind, scenario.domain)
        kernel = build_deconvolution_kernel(base, scenario.contamination, bandwidth)
        kernel.to_csv(os.path.join(out_dir, "kernel.csv"))
        return ["kernel.csv"]
    return work


def _read_fit(top: ConfigReader):
    scenario, _, cfg = _scenario(top), _loss(top), _rate_config(top)
    n, count = _at_least("n", top.get("n", int, 1024)), _class_size(top)
    kind, options = _backend(top)
    _check_backend(kind, scenario, options.get("window"))
    key = "cutoff" if kind == "svd" else "bandwidth"
    smoothing = top.get(key, int if kind == "svd" else float, None)
    if smoothing is None:
        smoothing = rule_smoothing(kind, scenario, cfg, n)
    _check_smoothing(scenario, key, [smoothing])

    def work(out_dir, seed, threads):
        hclass = threshold_grid(count, scenario.domain)
        backend = build_backend(kind, scenario, smoothing, **options)
        sample = generate_sample(scenario, n, np.random.default_rng(seed))
        fit = minimize(hclass, sample, backend)
        payload = fit.to_json()
        payload["true_risk"] = float(true_risks(hclass, scenario)[fit.index])
        _write(os.path.join(out_dir, "fit.json"), _json_bytes(payload))
        return ["fit.json"]
    return work


def _read_plan(top: ConfigReader) -> ExperimentPlan:
    """The rate experiment of a ``rates`` config, at base seed 0 (the run
    sets it), with the rule's smoothing checked at every n."""
    kind, options = _backend(top)
    _loss(top)
    plan = ExperimentPlan(
        scenario=_scenario(top),
        rate_config=_rate_config(top),
        n_grid=tuple(top.get("n_grid", [int], [256, 512, 1024])),
        replications=top.get("replications", int, 50),
        backend=kind,
        # a one-threshold class has zero excess at every n: no slope to fit
        n_thresholds=_class_size(top, minimum=2),
        theory_mode=top.get("theory_mode", str, "hard_loss", RATE_MODES),
        **options,
    )
    _check_smoothing(plan.scenario, "rate_config", [
        rule_smoothing(kind, plan.scenario, plan.rate_config, n) for n in plan.n_grid])
    scenario = plan.scenario
    if scenario.densities == "uniform" and scenario.priors[0] == scenario.priors[1]:
        # both labels uniform at equal priors: every exact risk is 1/2, so
        # every excess is 0 and no slope can be fitted. At unequal priors
        # the risks differ and only the draws decide the excess
        raise ConfigurationError("a rates config with uniform densities needs unequal "
                                 f"priors, got {scenario.priors}")
    if 0.0 in scenario.priors:
        # one label only: the oracle is the class's end on that label's
        # side, the trials' minimizers land there too, so every mean excess
        # is 0 and no slope can be fitted
        raise ConfigurationError(f"a rates config needs two positive priors, got {scenario.priors}")
    return plan


def _read_rates(top: ConfigReader):
    plan = _read_plan(top)

    def work(out_dir, seed, threads):
        with open(os.path.join(out_dir, "rates.csv"), "w", newline="") as fh:
            fh.write("n,mean_excess,standard_error,replications\n")
            fh.flush()

            def progress(row):
                n, m, s, c = row
                fh.write(f"{int(n)},{float(m)!r},{float(s)!r},{int(c)}\n")
                fh.flush()

            try:
                report = run_rate_experiment(replace(plan, base_seed=seed), threads=threads,
                                             progress=progress)
            except SimulationError as exc:
                _write(os.path.join(out_dir, "error.json"),
                       _json_bytes({"error": str(exc),
                                    "partial_rows": [list(r) for r in exc.partial_rows]}))
                raise
        _write(os.path.join(out_dir, "summary.json"), _json_bytes(report.summary_json()))
        return ["rates.csv", "summary.json"]
    return work


def _read_diagnose(top: ConfigReader):
    # the Lipschitz ratios need a pair of classifiers
    scenario, _, count = _scenario(top), _loss(top), _class_size(top, 33, minimum=2)
    kind = "svd" if isinstance(scenario.contamination, SpectralOperator) else "deconvolution"
    options = {} if kind == "svd" else _kernel_options(top)
    r = ConfigReader(top.get("diagnose", dict, {}), "diagnose")
    key, typ, default = (("cutoffs", [int], [4, 8, 16, 32]) if kind == "svd"
                         else ("bandwidths", [float], [0.1, 0.15, 0.22, 0.33, 0.5]))
    smoothings = r.get(key, typ, default)
    if not smoothings or len(set(smoothings)) < len(smoothings):
        raise ConfigurationError(f"config key 'diagnose.{key}' must be a nonempty list "
                                 f"of distinct values, got {smoothings}")
    _check_smoothing(scenario, f"diagnose.{key}", smoothings)
    bias_variant = r.get("bias_variant", str, "squared_loss", BIAS_VARIANTS)
    mc_n = _at_least("diagnose.mc_n", r.get("mc_n", int, 20000))
    pair_count = _at_least("diagnose.pair_count", r.get("pair_count", int, 40))
    r.done()

    def work(out_dir, seed, threads):
        report = DiagnosticsReport()
        hclass = threshold_grid(count, scenario.domain)
        star_index, _, _ = bayes_in_class(hclass, scenario)
        pairs = _diagnostic_pairs(hclass, pair_count)
        mc_sample = generate_sample(scenario, mc_n, np.random.default_rng(seed))
        for smoothing in smoothings:
            backend = build_backend(kind, scenario, smoothing, **options)
            ratios = empirical_lipschitz(scenario, backend, hclass, pairs, mc_sample)
            if kind == "svd":
                cert = sup_bound_svd(backend, hclass)
                bias = empirical_bias_svd(scenario, backend, hclass, star_index, bias_variant)
            else:
                cert = sup_bound_deconv(backend, hclass)
                bias = empirical_bias_deconv(scenario, backend, hclass, star_index, bias_variant)
            report.lipschitz.append((smoothing, float(ratios.max())))
            report.sup_bounds.append((smoothing, cert, table_sup(backend, hclass)))
            report.bias.append((smoothing, bias))
            del backend  # the next bandwidth is built without this one's lattice and caches
        report.slopes = _scaling_slopes([float(s) for s in smoothings], report)
        report.bernstein_max = bernstein_ratio(scenario, hclass, star_index)
        _write(os.path.join(out_dir, "diagnostics.json"), _json_bytes(report.to_json()))
        report.raw_csv(os.path.join(out_dir, "diagnostics.csv"))
        return ["diagnostics.json", "diagnostics.csv"]
    return work


_COMMANDS = {"kernel": _read_kernel, "fit": _read_fit, "rates": _read_rates,
             "diagnose": _read_diagnose, "exponent": _read_exponent}


def _nonnegative_seed(seed: int) -> int:
    """The seed, which ``SeedSequence`` takes only when nonnegative."""
    if seed < 0:
        raise ConfigurationError(f"seed must be nonnegative, got {seed}")
    return seed


def _parse(doc) -> tuple:
    """Read the whole config: (the command's work, the seed, the output directory)."""
    top = ConfigReader(doc)
    top.get("version", int, allowed=(1,))
    command = top.get("command", str, allowed=tuple(_COMMANDS))
    seed, out = _nonnegative_seed(top.get("seed", int, 0)), top.get("out", str, "artifacts")
    work = _COMMANDS[command](top)
    top.done()
    return work, seed, out


def validate_config(doc: dict) -> None:
    """Read the config as a run would, doing none of its work: a missing
    key, a wrong type or value, or a key the command does not read raises
    ``ConfigurationError``."""
    _parse(doc)


def _diagnostic_pairs(hclass, count):
    """Index pairs of neighbors at geometric spacings plus far pairs, deterministic."""
    m = len(hclass)
    pairs = []
    step = 1
    while step < m and len(pairs) < count:
        for i in range(0, m - step, max(1, (m - step) // 6)):
            pairs.append((i, i + step))
            if len(pairs) >= count:
                break
        step *= 2
    return pairs


def _scaling_slopes(xs, report) -> dict:
    def slope(values):  # ``fit_rate_slope`` logs the points it drops
        try:
            return fit_rate_slope([(x, v, 0.0) for x, v in zip(xs, values)])[0]
        except DataError:
            return float("nan")

    return {
        "lipschitz": slope([v for _, v in report.lipschitz]),
        "sup_bound": slope([c for _, c, _ in report.sup_bounds]),
        "table_sup": slope([r for _, _, r in report.sup_bounds]),
        "bias": slope([v for _, v in report.bias]),
    }


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

# glibc's mallopt parameters. Its mmap threshold starts at 128 KiB and rises
# only when a block above it is freed, so a process that has made no large
# free maps and unmaps every FFT work array of every trial afresh, one page
# fault per page. Fixed thresholds keep arrays up to 32 MiB on the heap,
# where the next trial reuses them.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def set_allocator_thresholds() -> bool:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB,
    once per process (forked pool workers inherit both). Returns False
    where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all([mallopt(_M_MMAP_THRESHOLD, 32 << 20), mallopt(_M_TRIM_THRESHOLD, 64 << 20)])


def run(config_path: str, out_dir: str | None = None, threads: int | None = None,
        seed: int | None = None) -> int:
    """Execute one config file; returns the process exit code."""
    try:
        with open(config_path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"I/O error reading config: {exc}", file=sys.stderr)
        return 4
    except json.JSONDecodeError as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return 2

    try:
        work, doc_seed, doc_out = _parse(doc)
        effective_seed = _nonnegative_seed(int(seed if seed is not None else doc_seed))
    except IndirectErmError as exc:  # also an invalid model the config names
        print(f"config rejected: {exc}", file=sys.stderr)
        return 2

    effective_out = out_dir or doc_out
    effective_threads = int(threads if threads is not None else (os.cpu_count() or 1))

    try:
        os.makedirs(effective_out, exist_ok=True)
    except OSError as exc:
        print(f"I/O error creating output dir: {exc}", file=sys.stderr)
        return 4

    set_allocator_thresholds()
    try:
        artifacts = work(effective_out, effective_seed, effective_threads)
    except ConfigurationError as exc:
        print(f"config rejected: {exc}", file=sys.stderr)
        return 2
    except IndirectErmError as exc:
        _write(os.path.join(effective_out, "error.json"),
               _json_bytes({"error": str(exc), "kind": type(exc).__name__}))
        print(f"numerical/model error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4

    try:
        _manifest(effective_out, doc, effective_seed, artifacts)
    except OSError as exc:
        print(f"I/O error writing manifest: {exc}", file=sys.stderr)
        return 4
    return 0


def main(argv=None) -> int:
    import argparse  # only the console script parses arguments; ``run`` never does

    parser = argparse.ArgumentParser(
        prog="indirect-erm",
        description="Smoothed ERM for classification from indirect observations",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker processes for rate experiments (default: cores)")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)
    return run(args.config, out_dir=args.out, threads=args.threads, seed=args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
