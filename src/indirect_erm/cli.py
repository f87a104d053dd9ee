"""Configuration-driven command line entry point.

Commands: ``kernel`` (tabulate a kernel), ``fit`` (one smoothed-ERM fit),
``rates`` (Monte-Carlo rate experiment), ``diagnose`` (structural-scaling
sweeps), ``exponent`` (rate-exponent arithmetic). Every run validates its
JSON config against a strict schema, writes command artifacts plus a
manifest, and is bitwise reproducible for a fixed config and seed.

Exit codes: 0 success, 2 configuration/schema violation, 3 numerical or
model error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

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
from .errors import ConfigurationError, IndirectErmError, SimulationError
from .hypotheses import (
    LOSS_KINDS,
    LossSpec,
    Scenario,
    bayes_in_class,
    contamination_from_json,
    grid_from_json,
    make_margin_scenario,
    threshold_grid,
    true_risk,
)
from .kernels import BASE_KINDS, build_base_kernel, build_deconvolution_kernel
# not called here; kept as module attributes that the benchmark tracer wraps
from .noisy_risk import build_lattice, modified_loss_deconv  # noqa: F401
from .operators import SpectralOperator
from .simulation import (
    BACKENDS,
    ExperimentPlan,
    build_backend,
    generate_sample,
    rule_smoothing,
    run_rate_experiment,
)

COMMANDS = ("kernel", "fit", "rates", "diagnose", "exponent")

_SCHEMA: dict = {
    "version": (int, True),
    "command": (str, True),
    "seed": (int, False),
    "out": (str, False),
    "scenario": (dict, False),
    "rate_config": (dict, False),
    "n_grid": (list, False),
    "replications": (int, False),
    "n": (int, False),
    "backend": (str, False),
    "hypotheses": (dict, False),
    "loss": (dict, False),
    "base_kernel": (str, False),
    "pad_factor": (float, False),
    "bandwidth": (float, False),
    "cutoff": (int, False),
    "window": (list, False),
    "theory_mode": (str, False),
    "alpha": (float, False),
    "diagnose": (dict, False),
}

_SCENARIO_KEYS = {"priors", "densities", "contamination", "alpha", "gamma", "grid",
                  "family", "x_star", "sharpness", "density_params"}
_HYPOTHESES_KEYS = {"kind", "count"}
_LOSS_KEYS = {"kind", "clip"}
_RATE_KEYS = {"kappa", "rho", "gamma", "beta_bar", "dim", "bias_variant"}
_DIAGNOSE_KEYS = {"bandwidths", "cutoffs", "mc_n", "pair_count", "bias_variant"}

# (block or None for the top level, key, allowed values)
_CHOICES = (
    (None, "backend", BACKENDS),
    ("hypotheses", "kind", ("thresholds",)),
    ("loss", "kind", LOSS_KINDS),
    (None, "base_kernel", BASE_KINDS),
    (None, "theory_mode", RATE_MODES),
    ("rate_config", "bias_variant", BIAS_VARIANTS),
    ("diagnose", "bias_variant", BIAS_VARIANTS),
)


def _type_ok(value, expected) -> bool:
    if expected is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, expected)


def validate_config(doc: dict) -> None:
    """Strict schema check: required keys, types, allowed values, no unknown keys."""
    if not isinstance(doc, dict):
        raise ConfigurationError("config root must be a JSON object")
    unknown = set(doc) - set(_SCHEMA)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    for key, (typ, required) in _SCHEMA.items():
        if key not in doc:
            if required:
                raise ConfigurationError(f"missing required config key {key!r}")
            continue
        if not _type_ok(doc[key], typ):
            raise ConfigurationError(f"config key {key!r} has wrong type")
    if doc.get("version") != 1:
        raise ConfigurationError(f"unsupported config version {doc.get('version')!r}")
    if doc["command"] not in COMMANDS:
        raise ConfigurationError(f"unknown command {doc['command']!r}")
    for key, allowed in (("scenario", _SCENARIO_KEYS), ("hypotheses", _HYPOTHESES_KEYS),
                         ("loss", _LOSS_KEYS), ("rate_config", _RATE_KEYS),
                         ("diagnose", _DIAGNOSE_KEYS)):
        if key in doc:
            bad = set(doc[key]) - allowed
            if bad:
                raise ConfigurationError(f"unknown keys in {key!r}: {sorted(bad)}")
    for block, key, allowed in _CHOICES:
        section = doc if block is None else doc.get(block, {})
        if key in section and section[key] not in allowed:
            name = key if block is None else f"{block}.{key}"
            raise ConfigurationError(
                f"config key {name!r} is {section[key]!r}, not one of {list(allowed)}")
    for key in _unread_keys(doc):
        if key in doc:
            raise ConfigurationError(
                f"config key {key!r} is not read by this {doc['command']!r} run")
    for key, typ in (("bandwidths", float), ("cutoffs", int)):
        values = doc.get("diagnose", {}).get(key, [])
        if not isinstance(values, list) or not all(_type_ok(v, typ) for v in values):
            raise ConfigurationError(
                f"config key 'diagnose.{key}' must be a list of {typ.__name__}s, got {values!r}")


def _unread_keys(doc: dict) -> tuple[str, ...]:
    """Top-level keys the command would ignore: giving one is an error."""
    command = doc["command"]
    if command == "fit":
        return ("bandwidth",) if doc.get("backend") == "svd" else ("cutoff",)
    if command == "rates":
        return ("bandwidth", "cutoff")
    if command == "diagnose":  # smoothing values and backend come from the diagnose block
        return ("backend", "window", "bandwidth", "cutoff")
    return ()


def _load_scenario(doc: dict) -> Scenario:
    sdoc = dict(doc.get("scenario") or {})
    if "family" in sdoc:  # margin-scenario shorthand
        return make_margin_scenario(
            alpha=float(sdoc.get("alpha", 1.0)),
            contamination=contamination_from_json(sdoc["contamination"]),
            x_star=float(sdoc.get("x_star", 0.5)),
            family=sdoc["family"],
            gamma=sdoc.get("gamma"),
            grid=grid_from_json(sdoc.get("grid", {})),
            sharpness=float(sdoc.get("sharpness", 1.0)),
        )
    return Scenario.from_json(sdoc)


def _loss(doc: dict) -> LossSpec:
    ldoc = doc.get("loss") or {}
    return LossSpec(kind=ldoc.get("kind", "hard"), clip=float(ldoc.get("clip", 1.0)))


def _rate_config(doc: dict) -> RateConfig:
    if "rate_config" not in doc:
        raise ConfigurationError("this command requires a rate_config block")
    return RateConfig.from_json(doc["rate_config"])


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
# command implementations
# ---------------------------------------------------------------------------

def _cmd_exponent(doc, out_dir, seed):
    mode = doc.get("theory_mode", "deconv")
    if mode == "hard_loss" and "alpha" in doc:
        rc = doc.get("rate_config", {})
        value = hard_loss_exponent(float(doc["alpha"]), float(rc.get("gamma", 1.0)),
                                   int(rc.get("dim", 1)), float(rc.get("beta_bar", 0.0)))
    else:
        value = rate_exponent(_rate_config(doc), mode)
    print(f"{value:.6f}")
    _write(os.path.join(out_dir, "exponent.json"),
           _json_bytes({"mode": mode, "exponent": value}))
    return ["exponent.json"]


def _cmd_kernel(doc, out_dir, seed):
    scenario = _load_scenario(doc)
    grid = scenario.domain
    base = build_base_kernel(doc.get("base_kernel", "sinc"), grid)
    if isinstance(scenario.contamination, SpectralOperator):
        raise ConfigurationError("kernel command needs an additive-noise scenario")
    bandwidth = float(doc.get("bandwidth", 0.2))
    kernel = build_deconvolution_kernel(base, scenario.contamination, bandwidth)
    kernel.to_csv(os.path.join(out_dir, "kernel.csv"))
    return ["kernel.csv"]


def _cmd_fit(doc, out_dir, seed):
    scenario = _load_scenario(doc)
    loss = _loss(doc)
    cfg = _rate_config(doc)
    n = int(doc.get("n", 1024))
    hclass = threshold_grid(int((doc.get("hypotheses") or {}).get("count", 101)),
                            scenario.domain)
    kind = doc.get("backend", "deconvolution")
    smoothing = doc.get("cutoff" if kind == "svd" else "bandwidth")
    if smoothing is None:
        smoothing = rule_smoothing(kind, scenario, cfg, n)
    backend = build_backend(kind, scenario, loss, smoothing,
                            base_kernel=doc.get("base_kernel", "sinc"),
                            pad_factor=float(doc.get("pad_factor", 4.0)),
                            window=tuple(doc["window"]) if "window" in doc else None)
    sample = generate_sample(scenario, n, np.random.default_rng(seed))
    fit = minimize(hclass, sample, backend)
    payload = fit.to_json()
    payload["true_risk"] = true_risk(fit.classifier, scenario, loss)
    _write(os.path.join(out_dir, "fit.json"), _json_bytes(payload))
    return ["fit.json"]


def _plan_from_config(doc, seed) -> ExperimentPlan:
    scenario = _load_scenario(doc)
    return ExperimentPlan(
        scenario=scenario,
        rate_config=_rate_config(doc),
        n_grid=tuple(int(n) for n in doc.get("n_grid", (256, 512, 1024))),
        replications=int(doc.get("replications", 50)),
        base_seed=seed,
        backend=doc.get("backend", "deconvolution"),
        n_thresholds=int((doc.get("hypotheses") or {}).get("count", 101)),
        loss=_loss(doc),
        base_kernel=doc.get("base_kernel", "sinc"),
        pad_factor=float(doc.get("pad_factor", 4.0)),
        window=tuple(doc["window"]) if "window" in doc else None,
        theory_mode=doc.get("theory_mode", "hard_loss"),
    )


def _cmd_rates(doc, out_dir, seed, threads):
    plan = _plan_from_config(doc, seed)
    csv_path = os.path.join(out_dir, "rates.csv")
    rows_written = []

    with open(csv_path, "w", newline="") as fh:
        fh.write("n,mean_excess,standard_error,replications\n")
        fh.flush()

        def progress(row):
            n, m, s, c = row
            fh.write(f"{int(n)},{float(m)!r},{float(s)!r},{int(c)}\n")
            fh.flush()
            rows_written.append(row)

        try:
            report = run_rate_experiment(plan, threads=threads, progress=progress)
        except SimulationError as exc:
            _write(os.path.join(out_dir, "error.json"),
                   _json_bytes({"error": str(exc),
                                "partial_rows": [list(r) for r in exc.partial_rows]}))
            raise
    _write(os.path.join(out_dir, "summary.json"), _json_bytes(report.summary_json()))
    return ["rates.csv", "summary.json"]


def _cmd_diagnose(doc, out_dir, seed):
    scenario = _load_scenario(doc)
    loss = _loss(doc)
    ddoc = doc.get("diagnose") or {}
    report = DiagnosticsReport()
    grid = scenario.domain
    hclass = threshold_grid(int((doc.get("hypotheses") or {}).get("count", 33)), grid)
    star_index, _, _ = bayes_in_class(hclass, scenario, loss)
    bias_variant = ddoc.get("bias_variant", "squared_loss")
    mc_n = int(ddoc.get("mc_n", 20000))
    pairs = _diagnostic_pairs(hclass, int(ddoc.get("pair_count", 40)))
    op = scenario.contamination
    kind = "svd" if isinstance(op, SpectralOperator) else "deconvolution"
    if kind == "svd":
        smoothings = list(ddoc.get("cutoffs", (4, 8, 16, 32)))
    else:
        smoothings = [float(b) for b in ddoc.get("bandwidths", (0.1, 0.15, 0.22, 0.33, 0.5))]
    for smoothing in smoothings:
        backend = build_backend(kind, scenario, loss, smoothing,
                                base_kernel=doc.get("base_kernel", "sinc"),
                                pad_factor=float(doc.get("pad_factor", 4.0)))
        ratios = empirical_lipschitz(scenario, backend, hclass, pairs, mc_n, seed)
        if kind == "svd":
            cert = sup_bound_svd(op, smoothing, hclass, loss, grid)
            bias = empirical_bias_svd(scenario, op, smoothing, hclass, star_index, loss,
                                      bias_variant=bias_variant)
        else:
            cert = sup_bound_deconv(backend.lattice, hclass, loss, grid)
            bias = empirical_bias_deconv(scenario, backend.lattice, hclass, star_index, loss,
                                         bias_variant=bias_variant)
        report.lipschitz.append((smoothing, float(ratios.max())))
        report.sup_bounds.append((smoothing, cert, table_sup(backend, hclass)))
        report.bias.append((smoothing, bias))
    report.slopes = _scaling_slopes([float(s) for s in smoothings], report)
    report.bernstein_max = bernstein_ratio(scenario, hclass, star_index, loss)
    _write(os.path.join(out_dir, "diagnostics.json"), _json_bytes(report.to_json()))
    report.raw_csv(os.path.join(out_dir, "diagnostics.csv"))
    return ["diagnostics.json", "diagnostics.csv"]


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
    def slope(values):
        pts = [(x, v, 0.0) for x, v in zip(xs, values) if v > 0]
        if len(pts) < 2:
            return float("nan")
        return fit_rate_slope(pts)[0]

    return {
        "lipschitz": slope([v for _, v in report.lipschitz]),
        "sup_bound": slope([c for _, c, _ in report.sup_bounds]),
        "table_sup": slope([r for _, _, r in report.sup_bounds]),
        "bias": slope([v for _, v in report.bias]),
    }


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

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
        validate_config(doc)
    except ConfigurationError as exc:
        print(f"config rejected: {exc}", file=sys.stderr)
        return 2

    effective_seed = int(seed if seed is not None else doc.get("seed", 0))
    effective_out = out_dir or doc.get("out") or "artifacts"
    effective_threads = int(threads if threads is not None else (os.cpu_count() or 1))

    try:
        os.makedirs(effective_out, exist_ok=True)
    except OSError as exc:
        print(f"I/O error creating output dir: {exc}", file=sys.stderr)
        return 4

    command = doc["command"]
    try:
        if command == "exponent":
            artifacts = _cmd_exponent(doc, effective_out, effective_seed)
        elif command == "kernel":
            artifacts = _cmd_kernel(doc, effective_out, effective_seed)
        elif command == "fit":
            artifacts = _cmd_fit(doc, effective_out, effective_seed)
        elif command == "rates":
            artifacts = _cmd_rates(doc, effective_out, effective_seed, effective_threads)
        else:
            artifacts = _cmd_diagnose(doc, effective_out, effective_seed)
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
