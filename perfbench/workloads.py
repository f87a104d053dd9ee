"""Workload definitions and the metric names and units the benchmark reports.

Nothing here imports the program: the parent process only writes configs,
starts child interpreters and checks the artifacts they leave behind.
"""

from __future__ import annotations

import json
import os

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 11  # the seed every shipped preset uses

# name -> how the config is made and run. ``reference`` names the stored
# reference file; the 2-process workload shares the 1-process outputs
# because trial seeds make the artifacts independent of scheduling.
WORKLOADS = {
    "laplace-rates": {
        "kind": "rates", "source": "presets/laplace-linear.json",
        "threads": 1, "replications": 40, "reference": "laplace-rates",
    },
    "laplace-rates-2proc": {
        "kind": "rates", "source": "presets/laplace-linear.json",
        "threads": 2, "replications": 40, "reference": "laplace-rates",
    },
    "svd-rates": {
        "kind": "rates", "source": "presets/svd-linear.json",
        "threads": 1, "replications": 100, "reference": "svd-rates",
    },
    "laplace-diagnose": {
        "kind": "diagnose", "source": "perfbench/configs/laplace-diagnose.json",
        "threads": 1, "reference": "laplace-diagnose",
    },
}

# smoke mode keeps the two n-blocks the per-trial metrics are named after
SMOKE_RATES = {"n_grid": [256, 16384], "replications": 3}
SMOKE_DIAGNOSE = {"bandwidths": [0.22, 0.5], "mc_n": 2000, "pair_count": 8}

TRIAL_NS = (256, 16384)
BLOCK_NS = (256, 512, 1024, 2048, 4096, 8192, 16384)
MODULES = ("hypotheses", "kernels", "noisy_risk", "operators",
           "simulation", "erm", "diagnostics")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}


def _per_layer() -> dict:
    units = {
        "cli.validate_ms": "ms",
        "hypotheses.context_s": "s",
        "kernels.invert_s": "s",
        "kernels.offsets": "count",
        "noisy_risk.lattice_s": "s",
        "noisy_risk.lattice_nodes": "count",
        "noisy_risk.tables_s": "s",
        "noisy_risk.tables_built": "count",
        "operators.image_ms": "ms",
        "operators.image_calls": "count",
        "operators.draw_ms": "ms",
        "erm.scan_calls": "count",
        "diagnostics.lipschitz_s": "s",
        "diagnostics.sup_bound_s": "s",
        "diagnostics.bias_s": "s",
        "diagnostics.slope_s": "s",
        "simulation.cpu_util": "ratio",
        "simulation.first_row_s": "s",
        "trace.coverage": "ratio",
        "trace.overhead": "ratio",
    }
    for n in TRIAL_NS:
        for stat in ("p50", "p95"):
            for name in ("noisy_risk.plugin_ms", "simulation.sample_ms",
                         "simulation.trial_ms", "erm.scan_ms"):
                units[f"{name}.{stat}.n{n}"] = "ms"
    for n in BLOCK_NS:
        units[f"noisy_risk.clamped.n{n}"] = "count"
        units[f"simulation.block_done_s.n{n}"] = "s"
    for module in MODULES:
        units[f"self_s.{module}"] = "s"
    return units


PER_LAYER = _per_layer()


def workload_config(name: str, seed: int, smoke: bool) -> dict:
    """The config the program receives: the source config at the stated size."""
    spec = WORKLOADS[name]
    with open(os.path.join(ROOT, spec["source"])) as fh:
        doc = json.load(fh)
    doc["seed"] = seed
    doc.pop("out", None)
    if spec["kind"] == "rates":
        doc["replications"] = spec["replications"]
        if smoke:
            doc.update(SMOKE_RATES)
    elif smoke:
        doc["diagnose"].update(SMOKE_DIAGNOSE)
    return doc


def artifacts(kind: str) -> tuple[str, ...]:
    return ("rates.csv", "summary.json") if kind == "rates" else ("diagnostics.json",)
