"""Regenerate the stored reference outputs of every workload.

    python3 perfbench/refresh_refs.py                 # seeds 0-63 and 11
    python3 perfbench/refresh_refs.py --seeds 11 12   # only these seeds

Run it only after an intended change of the program's outputs, and say in
the change why the outputs moved. Each seed runs the workload's config once
through ``indirect_erm.cli.run`` (one process, so the 2-process workload
shares the 1-process reference) and stores its operations and the SHA-256
of each artifact in ``perfbench/refs/<reference>.json``. Seeds not named
keep their stored entries unless the config changed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from workloads import BENCH_DIR, DEFAULT_SEED, SRC, WORKLOADS, artifacts, workload_config  # noqa: E402

sys.path.insert(0, SRC)


def smallest_flip_change(doc: dict) -> float:
    """Smallest change of an n-row mean that one flipped argmin can cause.

    Pairs of classifiers whose exact risks agree to 1e-12 are ties: a flip
    between them changes no artifact beyond rounding, so they are left out.
    """
    import numpy as np

    from child import _scenario
    from indirect_erm import LossSpec, threshold_grid, true_risk

    scenario = _scenario(doc)
    hclass = threshold_grid(int(doc["hypotheses"]["count"]), scenario.domain)
    risks = np.array([true_risk(c, scenario, LossSpec(doc["loss"]["kind"])) for c in hclass])
    gaps = np.abs(risks[:, None] - risks[None, :])
    return float(gaps[gaps > 1e-12].min() / doc["replications"])


def refresh(name: str, seeds: list[int]) -> None:
    from indirect_erm import cli

    spec = WORKLOADS[name]
    path = os.path.join(BENCH_DIR, "refs", f"{spec['reference']}.json")
    doc = workload_config(name, DEFAULT_SEED, smoke=False)
    config_sha = checks.config_sha256(doc)
    stored = {"seeds": {}}
    if os.path.exists(path):
        with open(path) as fh:
            stored = json.load(fh)
        if stored.get("config_sha256") != config_sha:
            stored = {"seeds": {}}
    stored["workload_config"] = {k: v for k, v in doc.items() if k != "seed"}
    stored["config_sha256"] = config_sha
    if spec["kind"] == "rates":
        stored["smallest_flip_change"] = smallest_flip_change(doc)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            doc["seed"] = seed
            config_path = os.path.join(tmp, "config.json")
            with open(config_path, "w") as fh:
                json.dump(doc, fh)
            out = os.path.join(tmp, str(seed))
            rc = cli.run(config_path, out_dir=out, threads=1, seed=seed)
            if rc != 0:
                raise SystemExit(f"{name} seed {seed}: cli.run returned {rc}")
            stored["seeds"][str(seed)] = {
                "ops": checks.read_ops(spec["kind"], out),
                "sha256": {a: checks.sha256(os.path.join(out, a)) for a in artifacts(spec["kind"])},
            }
            print(f"{name}: seed {seed} stored", flush=True)
    seeds = sorted(stored.pop("seeds").items(), key=lambda kv: int(kv[0]))
    with open(path, "w") as fh:  # one line per seed keeps diffs readable
        fh.write(json.dumps(stored, indent=1)[:-2] + ',\n "seeds": {\n')
        fh.write(",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in seeds))
        fh.write("\n }\n}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=list(range(64)))
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="default: every workload that owns a reference file")
    args = parser.parse_args(argv)
    names = args.workloads or [n for n, spec in WORKLOADS.items() if spec["reference"] == n]
    for name in names:
        refresh(name, sorted(set(args.seeds) | {DEFAULT_SEED}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
