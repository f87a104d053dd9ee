"""One measured program run in a fresh interpreter.

Started by ``run.py`` as ``python3 child.py <request.json>``. The child
imports the package from the checkout's ``src``, validates the config, and
prints ``ready`` so the parent can time set-up. It then does what the
request's ``mode`` says:

- ``run``: one untraced ``indirect_erm.cli.run`` call, timed, with the CPU
  time and peak memory of its process tree;
- ``setup``: nothing more;
- ``trace``: the same work with an in-memory span around each call into a
  layer, written to ``spans.json`` at the end.

The last stdout line is one JSON object with the measurements.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from contextlib import contextmanager

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import indirect_erm  # noqa: E402
from indirect_erm import cli  # noqa: E402


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Largest peak resident set of this process or any reaped child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory spans: name, start, end, parent and optional attributes."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter() - self.origin, "end": None, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._stack.pop()

    def event(self, name: str, **attrs) -> None:
        now = time.perf_counter() - self.origin
        self.spans.append({"id": len(self.spans), "name": name, "parent": None,
                           "start": now, "end": now, **attrs})

    def wrap(self, module, attr: str, name: str, annotate=None) -> None:
        """Put a span around every call the program makes to module.attr.

        ``annotate(record, result, *args, **kwargs)`` may add counts to the
        span after the call returns.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if annotate is not None:
                    annotate(record, result, *args, **kwargs)
                return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def _wrap_inner_calls(tracer: Tracer) -> None:
    """Spans around calls the program makes from inside one layer to another."""
    from indirect_erm import erm, noisy_risk, simulation

    def offsets(record, kernel, base, noise, bandwidth):
        record["offsets"] = int(len(kernel.offsets[0]))

    def clamped(record, density, z_draws, lattice):
        lo, hi = lattice.nodes[0], lattice.nodes[-1]
        record["clamped"] = int(((z_draws < lo) | (z_draws > hi)).sum())

    tracer.wrap(noisy_risk, "build_deconvolution_kernel", "kernels.invert", offsets)
    tracer.wrap(erm, "plug_in_density", "noisy_risk.plugin", clamped)
    tracer.wrap(simulation, "apply_operator", "operators.image")
    tracer.wrap(simulation, "sample_density", "operators.draw")
    tracer.wrap(simulation, "contaminate", "operators.draw")


# ---------------------------------------------------------------------------
# config -> model objects, through the public API
# ---------------------------------------------------------------------------

def _scenario(doc: dict):
    from indirect_erm import Grid, Scenario, make_margin_scenario

    sdoc = doc["scenario"]
    if "family" not in sdoc:
        return Scenario.from_json(sdoc)
    gdoc = sdoc.get("grid", {})
    grid = Grid(lower=tuple(gdoc.get("lower", (0.0,))), upper=tuple(gdoc.get("upper", (1.0,))),
                points_per_dim=int(gdoc.get("points", 1024)))
    contamination = Scenario.from_json({"priors": [0.5, 0.5], "densities": "linear",
                                        "contamination": sdoc["contamination"],
                                        "grid": gdoc}).contamination
    return make_margin_scenario(alpha=float(sdoc.get("alpha", 1.0)), contamination=contamination,
                                x_star=float(sdoc.get("x_star", 0.5)), family=sdoc["family"],
                                gamma=sdoc.get("gamma"), grid=grid,
                                sharpness=float(sdoc.get("sharpness", 1.0)))


def _plan(doc: dict, seed: int):
    from indirect_erm import ExperimentPlan, LossSpec, RateConfig

    return ExperimentPlan(
        scenario=_scenario(doc),
        rate_config=RateConfig.from_json(doc["rate_config"]),
        n_grid=tuple(doc["n_grid"]),
        replications=int(doc["replications"]),
        base_seed=seed,
        backend=doc.get("backend", "deconvolution"),
        n_thresholds=int(doc["hypotheses"]["count"]),
        loss=LossSpec(kind=doc["loss"]["kind"]),
        base_kernel=doc.get("base_kernel", "sinc"),
        theory_mode=doc.get("theory_mode", "hard_loss"),
    )


# ---------------------------------------------------------------------------
# traced work
# ---------------------------------------------------------------------------

def _replay_rates(tracer: Tracer, doc: dict, seed: int) -> list:
    """The rate experiment's trial loop, one public call per span."""
    import numpy as np

    from indirect_erm import (DeconvolutionBackend, SvdBackend, build_lattice, fit_rate_slope,
                              generate_sample, minimize, select_bandwidth, select_cutoff,
                              threshold_grid, true_risk)
    from indirect_erm.simulation import trial_seed_sequence

    plan = _plan(doc, seed)
    scenario, loss = plan.scenario, plan.loss
    # this program version selects the scan order through the plan
    scan_options = {"strategy": plan.strategy} if hasattr(plan, "strategy") else {}
    with tracer.span("hypotheses.context"):
        hclass = threshold_grid(plan.n_thresholds, scenario.domain)
        risks = np.array([true_risk(c, scenario, loss) for c in hclass])
        star = int(np.argmin(risks))
    rows = []
    for n in plan.n_grid:
        with tracer.span("simulation.block", n=n):
            if plan.backend == "svd":
                op = scenario.contamination
                backend = SvdBackend(operator=op, cutoff=min(select_cutoff(plan.rate_config, n),
                                                             op.k_max),
                                     grid=scenario.domain, loss=loss)
            else:
                with tracer.span("noisy_risk.lattice", n=n) as record:
                    lattice = build_lattice(scenario.domain, scenario.contamination,
                                            select_bandwidth(plan.rate_config, n),
                                            base_kind=plan.base_kernel, pad_factor=plan.pad_factor)
                    record["nodes"] = int(len(lattice.nodes))
                backend = DeconvolutionBackend(lattice=lattice, loss=loss)
            excess = np.empty(plan.replications)
            for rep in range(plan.replications):
                with tracer.span("simulation.trial", n=n):
                    rng = np.random.default_rng(trial_seed_sequence(seed, n, rep))
                    with tracer.span("simulation.sample", n=n):
                        sample = generate_sample(scenario, n, rng)
                    with tracer.span("erm.scan", n=n):
                        fit = minimize(hclass, sample, backend, **scan_options)
                    excess[rep] = float(risks[fit.index] - risks[star])
        se = float(excess.std(ddof=1) / np.sqrt(len(excess))) if len(excess) > 1 else 0.0
        rows.append([n, float(excess.mean()), se, len(excess)])
        tracer.event("simulation.block_done", n=n)
    with tracer.span("diagnostics.slope"):
        fit_rate_slope([(n, m, s) for n, m, s, _ in rows])
    return rows


def _pool_rates(tracer: Tracer, doc: dict, seed: int, threads: int) -> list:
    """The program's own rate experiment; spans come from its progress callback."""
    from indirect_erm import run_rate_experiment

    plan = _plan(doc, seed)
    rows = []

    def progress(row):
        tracer.event("simulation.block_done", n=int(row[0]))
        rows.append([int(row[0]), float(row[1]), float(row[2]), int(row[3])])

    with tracer.span("simulation.rate_experiment", workers=min(threads, len(plan.n_grid))):
        run_rate_experiment(plan, threads=threads, progress=progress)
    return rows


def _traced_diagnose(tracer: Tracer, config_path: str, out_dir: str, seed: int) -> None:
    """The program's own diagnose command with spans around each layer call."""
    from indirect_erm import simulation

    def nodes(record, lattice, *args, **kwargs):
        record["nodes"] = int(len(lattice.nodes))

    tracer.wrap(cli, "bayes_in_class", "hypotheses.context")
    tracer.wrap(cli, "build_lattice", "noisy_risk.lattice", nodes)
    tracer.wrap(cli, "modified_loss_deconv", "noisy_risk.tables")
    tracer.wrap(cli, "empirical_lipschitz", "diagnostics.lipschitz")
    tracer.wrap(cli, "sup_bound_deconv", "diagnostics.sup_bound")
    tracer.wrap(cli, "empirical_bias_deconv", "diagnostics.bias")
    tracer.wrap(cli, "bernstein_ratio", "diagnostics.bernstein")
    tracer.wrap(simulation, "generate_sample", "simulation.sample")
    rc = cli.run(config_path, out_dir=out_dir, threads=1, seed=seed)
    if rc != 0:
        raise RuntimeError(f"traced diagnose exited with code {rc}")


def main(request_path: str) -> int:
    with open(request_path) as fh:
        req = json.load(fh)
    with open(req["config"]) as fh:
        doc = json.load(fh)
    started = time.perf_counter()
    cli.validate_config(doc)
    validate_ms = (time.perf_counter() - started) * 1e3
    if not os.path.realpath(indirect_erm.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"indirect_erm imported from {indirect_erm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if req["mode"] == "setup":
        print(json.dumps({"rc": 0}), flush=True)
        return 0

    result = {"validate_ms": validate_ms, "env": _environment()}
    cpu0, wall0 = _cpu_seconds(), time.perf_counter()
    if req["mode"] == "run":
        result["rc"] = cli.run(req["config"], out_dir=req["out"], threads=req["threads"],
                               seed=req["seed"])
    else:
        tracer = Tracer()
        try:
            if req["threads"] > 1:  # spans recorded in pool workers would be lost
                result["rows"] = _pool_rates(tracer, doc, req["seed"], req["threads"])
            elif doc["command"] == "diagnose":
                _wrap_inner_calls(tracer)
                _traced_diagnose(tracer, req["config"], req["out"], req["seed"])
            else:
                _wrap_inner_calls(tracer)
                result["rows"] = _replay_rates(tracer, doc, req["seed"])
        finally:
            tracer.unwrap_all()
        result["rc"] = 0
    result["wall_s"] = time.perf_counter() - wall0
    result["cpu_s"] = _cpu_seconds() - cpu0
    result["peak_rss_mb"] = _peak_rss_mb()
    if req["mode"] == "trace":
        with open(os.path.join(req["out"], "spans.json"), "w") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
