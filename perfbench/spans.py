"""Per-layer metrics from the spans of traced runs.

A span is a dict with ``id``, ``name``, ``parent``, ``start`` and ``end``
(seconds from the start of the traced work) plus optional counts. Spans
whose start equals their end and that have no parent are events, such as
``simulation.block_done``.
"""

from __future__ import annotations

import statistics

from workloads import BLOCK_NS, MODULES, PER_LAYER, TRIAL_NS


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Duration of each span minus the time its child spans cover."""
    covered = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += _duration(s)
    return {s["id"]: _duration(s) - covered[s["id"]] for s in spans}


def _block_n(span: dict, by_id: dict) -> int | None:
    """The sample size of the n-block a span ran in, from its ancestors."""
    while span is not None:
        if "n" in span:
            return span["n"]
        span = by_id.get(span["parent"])
    return None


def _one_run(spans: list[dict], wall: float, cpu: float) -> tuple[dict, dict]:
    """Totals for one traced run, and the per-call durations by (name, n)."""
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)
    totals: dict = {}
    calls: dict = {}
    workers = 1
    for s in spans:
        name = s["name"]
        if name == "simulation.block_done":
            totals[f"simulation.block_done_s.n{s['n']}"] = s["end"]
            continue
        workers = s.get("workers", workers)
        totals[name] = totals.get(name, 0.0) + _duration(s)
        totals[f"count:{name}"] = totals.get(f"count:{name}", 0) + 1
        for key in (f"self_s.{name.split('.')[0]}", f"self:{name}"):
            totals[key] = totals.get(key, 0.0) + own[s["id"]]
        for attr in ("offsets", "nodes"):
            if attr in s:
                totals[attr] = max(totals.get(attr, 0), s[attr])
        n = _block_n(s, by_id)
        calls.setdefault((name, n), []).append(_duration(s) * 1e3)
        if "clamped" in s:
            key = f"noisy_risk.clamped.n{n}"
            totals[key] = totals.get(key, 0) + s["clamped"]
    top = sum(_duration(s) for s in spans if s["parent"] is None)
    totals["trace.coverage"] = top / wall
    totals["simulation.cpu_util"] = cpu / (wall * workers)
    done = [v for k, v in totals.items() if k.startswith("simulation.block_done_s.")]
    if done:
        totals["simulation.first_row_s"] = min(done)
    return totals, calls


# metric -> the per-run total whose median it reports
_TOTALS = {
    "hypotheses.context_s": "hypotheses.context",
    "kernels.invert_s": "kernels.invert",
    "kernels.offsets": "offsets",
    "noisy_risk.lattice_s": "noisy_risk.lattice",
    "noisy_risk.lattice_nodes": "nodes",
    "noisy_risk.tables_s": "noisy_risk.tables",
    "noisy_risk.tables_built": "count:noisy_risk.tables",
    "operators.image_calls": "count:operators.image",
    "erm.scan_calls": "count:erm.scan",
    "diagnostics.lipschitz_s": "diagnostics.lipschitz",
    "diagnostics.sup_bound_s": "diagnostics.sup_bound",
    "diagnostics.bias_s": "diagnostics.bias",
    "diagnostics.slope_s": "diagnostics.slope",
    "simulation.cpu_util": "simulation.cpu_util",
    "simulation.first_row_s": "simulation.first_row_s",
    "trace.coverage": "trace.coverage",
}
_TOTALS.update({f"simulation.block_done_s.n{n}": f"simulation.block_done_s.n{n}"
                for n in BLOCK_NS})
_TOTALS.update({f"noisy_risk.clamped.n{n}": f"noisy_risk.clamped.n{n}" for n in BLOCK_NS})
_TOTALS.update({f"self_s.{m}": f"self_s.{m}" for m in MODULES})

_PER_CALL = {
    "noisy_risk.plugin_ms": "noisy_risk.plugin",
    "simulation.sample_ms": "simulation.sample",
    "simulation.trial_ms": "simulation.trial",
    "erm.scan_ms": "erm.scan",
}


def layer_metrics(runs: list[dict], untraced_walls: list[float],
                  validate_ms: list[float]) -> tuple[dict, dict, dict]:
    """Every per-layer metric, why each one that reads 0 is absent, and the
    self time of each span name.

    ``runs`` holds one dict per traced run with its ``spans``, ``wall_s`` and
    ``cpu_s``. Totals are medians over runs; per-call percentiles pool the
    calls of all runs.
    """
    per_run = [_one_run(r["spans"], r["wall_s"], r["cpu_s"]) for r in runs]
    calls: dict = {}
    for _, run_calls in per_run:
        for key, values in run_calls.items():
            calls.setdefault(key, []).extend(values)
    values: dict = {}
    absent: dict = {}
    for metric, source in _TOTALS.items():
        found = [totals[source] for totals, _ in per_run if source in totals]
        values[metric] = statistics.median(found) if found else 0
        if not found:
            absent[metric] = f"no {source} measured on this workload"
    for n in TRIAL_NS:
        for prefix, span in _PER_CALL.items():
            durations = calls.get((span, n), [])
            for stat, q in (("p50", 50), ("p95", 95)):
                metric = f"{prefix}.{stat}.n{n}"
                values[metric] = percentile(durations, q) if durations else 0.0
                if not durations:
                    absent[metric] = f"no {span} span in an n={n} block"
    for metric, span in (("operators.image_ms", "operators.image"),
                         ("operators.draw_ms", "operators.draw")):
        durations = [d for (name, _), ds in calls.items() if name == span for d in ds]
        values[metric] = statistics.median(durations) if durations else 0.0
        if not durations:
            absent[metric] = f"no {span} span on this workload"
    values["cli.validate_ms"] = statistics.median(validate_ms)
    values["trace.overhead"] = (statistics.median(r["wall_s"] for r in runs)
                                / statistics.median(untraced_walls))
    if set(values) != set(PER_LAYER):
        raise RuntimeError(f"per-layer metrics out of step: {set(values) ^ set(PER_LAYER)}")
    names = {k for totals, _ in per_run for k in totals if k.startswith("self:")}
    self_s = {k[5:]: statistics.median(t.get(k, 0.0) for t, _ in per_run) for k in sorted(names)}
    return values, absent, self_s
