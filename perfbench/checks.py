"""Output checks: each artifact is split into operations and compared.

An operation is one n-row of ``rates.csv``, the whole of ``summary.json``,
or one bandwidth point of ``diagnostics.json`` plus its summary. It fails
when it is missing, not finite, different from the stored reference by
more than ``TOLERANCE``, or different from the first repetition of the
same run (artifacts must be deterministic).
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from workloads import BENCH_DIR

# |a - b| <= TOLERANCE * max(1, |b|). Reference files record the smallest
# change of a mean that one flipped argmin can cause; loading a reference
# refuses it unless that change is far above this tolerance.
TOLERANCE = 1e-12


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def config_sha256(doc: dict) -> str:
    """Hash of a workload config, seed left out: one reference file covers all seeds."""
    rest = {k: v for k, v in doc.items() if k != "seed"}
    return hashlib.sha256(json.dumps(rest, sort_keys=True).encode()).hexdigest()


def _rates_ops(out_dir: str) -> dict:
    ops = {}
    path = os.path.join(out_dir, "rates.csv")
    if os.path.exists(path):
        with open(path) as fh:
            lines = fh.read().splitlines()
        if lines[:1] == ["n,mean_excess,standard_error,replications"]:
            for line in lines[1:]:
                n, mean, se, count = line.split(",")
                ops[f"n={int(n)}"] = [float(mean), float(se), int(count)]
    path = os.path.join(out_dir, "summary.json")
    if os.path.exists(path):
        with open(path) as fh:
            summary = json.load(fh)
        ops["summary"] = [summary[k] for k in sorted(summary)]
    return ops


def _diagnose_ops(out_dir: str) -> dict:
    path = os.path.join(out_dir, "diagnostics.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        doc = json.load(fh)
    ops: dict = {}
    for series in ("lipschitz", "sup_bounds", "bias"):
        for entry in doc.get(series, []):
            ops.setdefault(f"bandwidth={entry[0][0]!r}", []).extend(entry[1:])
    ops["summary"] = [doc["bernstein_max"]] + [doc["slopes"][k] for k in sorted(doc["slopes"])]
    return ops


def read_ops(kind: str, out_dir: str) -> dict:
    return _rates_ops(out_dir) if kind == "rates" else _diagnose_ops(out_dir)


def expected_ops(kind: str, doc: dict) -> list[str]:
    if kind == "rates":
        return [f"n={int(n)}" for n in doc["n_grid"]] + ["summary"]
    return [f"bandwidth={float(b)!r}" for b in doc["diagnose"]["bandwidths"]] + ["summary"]


def _close(a, b) -> bool:
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return abs(a - b) <= TOLERANCE * max(1.0, abs(b))


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def compare_ops(ops: dict, expected: list[str], reference: dict | None,
                first: dict | None) -> list[str]:
    """Why each failed operation failed; one entry per failure."""
    failures = []
    for key in expected:
        got = ops.get(key)
        if got is None:
            failures.append(f"{key}: missing")
        elif key != "summary" and not _finite(got):
            failures.append(f"{key}: not finite {got}")
        elif reference is not None and (len(got) != len(reference[key])
                                        or not all(map(_close, got, reference[key]))):
            failures.append(f"{key}: {got} differs from reference {reference[key]}")
        elif first is not None and json.dumps(got) != json.dumps(first.get(key)):
            failures.append(f"{key}: {got} differs from the first repetition")
    return failures


def load_reference(name: str, seed: int, doc: dict) -> tuple[dict | None, str]:
    """Stored operations for this seed, or None with the reason it is unchecked."""
    path = os.path.join(BENCH_DIR, "refs", f"{name}.json")
    if not os.path.exists(path):
        return None, f"no reference file {os.path.relpath(path, BENCH_DIR)}"
    with open(path) as fh:
        stored = json.load(fh)
    if stored["config_sha256"] != config_sha256(doc):
        return None, "reference was made for another config"
    floor = stored.get("smallest_flip_change")
    if floor is not None and floor <= 100 * TOLERANCE:
        raise ValueError(f"{path}: tolerance {TOLERANCE} cannot see a flip of size {floor}")
    entry = stored["seeds"].get(str(seed))
    if entry is None:
        return None, f"no reference for seed {seed}"
    return entry, "checked"
