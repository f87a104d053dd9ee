"""Benchmark of the indirect-erm command line program.

    python3 perfbench/run.py --workload laplace-rates --seed 11 --seconds 20 --trace 0

Runs the workload's config through ``indirect_erm.cli.run`` in fresh
interpreters, again and again until ``--seconds`` have passed, checks every
artifact against the stored reference for the seed, and prints as the last
stdout line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced runs with traced ones and reports the per-layer
metrics. ``--smoke`` shrinks every workload to a few seconds. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import (BENCH_DIR, DEFAULT_SEED, END_TO_END, PER_LAYER, ROOT,  # noqa: E402
                       SRC, WORKLOADS, artifacts, workload_config)

MIN_REPS = 3          # untraced repetitions per end-to-end run, at least
MIN_SETUP = 5         # set-up samples per end-to-end run, at least
CHILD_TIMEOUT = 150   # seconds; a run must end within 180
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(Exception):
    pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """The machine and the inherited thread settings; none are changed here."""
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_child(request: dict, work: str, tag: str) -> dict:
    """Start child.py, time it to its ``ready`` line, return its result."""
    request_path = os.path.join(work, f"{tag}.request.json")
    with open(request_path, "w") as fh:
        json.dump(request, fh)
    os.makedirs(request["out"], exist_ok=True)
    log_path = os.path.join(work, f"{tag}.stderr")
    with open(log_path, "w") as log:
        start = time.perf_counter()
        # own session, so a timeout also kills the child's pool workers
        proc = subprocess.Popen([sys.executable, os.path.join(BENCH_DIR, "child.py"), request_path],
                                stdout=subprocess.PIPE, stderr=log, text=True, cwd=ROOT,
                                start_new_session=True)
        watchdog = threading.Timer(CHILD_TIMEOUT, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            out = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:  # interrupted: leave no process behind
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        with open(log_path) as fh:
            tail = fh.read()[-2000:]
        raise ChildFailed(f"{tag}: exit code {proc.returncode}\n{tail}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup
    if result["rc"] != 0:
        raise ChildFailed(f"{tag}: cli.run returned {result['rc']}")
    return result


class Checker:
    """Counts operations attempted and failed over every repetition."""

    def __init__(self, kind: str, doc: dict, reference: dict | None):
        self.kind = kind
        self.expected = checks.expected_ops(kind, doc)
        self.reference = reference or {}
        self.first: dict | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.sha256: dict = {}

    def check(self, out_dir: str, tag: str, against: dict | None = None) -> None:
        """Check one output directory; ``against`` replaces the first repetition."""
        ops = checks.read_ops(self.kind, out_dir)
        first = against if against is not None else self.first
        why = checks.compare_ops(ops, self.expected, self.reference.get("ops"), first)
        self.attempted += len(self.expected)
        self.failures += [f"{tag}: {w}" for w in why]
        if self.first is None:
            self.first = ops
            for name in artifacts(self.kind):
                path = os.path.join(out_dir, name)
                digest = checks.sha256(path) if os.path.exists(path) else None
                want = self.reference.get("sha256", {}).get(name)
                self.sha256[name] = {"sha256": digest,
                                     "identical": None if want is None else digest == want}

    def check_rows(self, rows: list, tag: str) -> None:
        """Rows the traced replay computed must equal the untraced rates.csv."""
        self.attempted += len(rows)
        for n, mean, se, count in rows:
            want = self.first.get(f"n={n}")
            if want != [mean, se, count]:
                self.failures.append(f"{tag}: replay row n={n} {[mean, se, count]} != {want}")


def measure(args) -> dict:
    spec = WORKLOADS[args.workload]
    kind = spec["kind"]
    work = os.path.join(BENCH_DIR, ".out", f"{args.workload}-seed{args.seed}-trace{args.trace}"
                        + ("-smoke" if args.smoke else ""))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    doc = workload_config(args.workload, args.seed, args.smoke)
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w") as fh:
        json.dump(doc, fh, indent=2)
    reference, reference_status = checks.load_reference(spec["reference"], args.seed, doc)
    checker = Checker(kind, doc, reference)

    def request(mode: str, k: int) -> dict:
        return {"mode": mode, "config": config_path, "out": os.path.join(work, f"{mode}{k}"),
                "threads": spec["threads"], "seed": args.seed}

    runs, traced = [], []
    started = time.perf_counter()
    while (len(runs) < (1 if args.trace else MIN_REPS)
           or time.perf_counter() - started < args.seconds):
        k = len(runs)
        runs.append(run_child(request("run", k), work, f"run{k}"))
        checker.check(os.path.join(work, f"run{k}"), f"run{k}")
        if args.trace:
            req = request("trace", k)
            result = run_child(req, work, f"trace{k}")
            with open(os.path.join(req["out"], "spans.json")) as fh:
                result["spans"] = json.load(fh)
            if kind == "rates":
                checker.check_rows(result["rows"], f"trace{k}")
            else:
                checker.check(req["out"], f"trace{k}", against=checker.first)
            traced.append(result)
    setups = [r["setup_s"] for r in runs + traced]
    if not args.trace:
        while len(setups) < MIN_SETUP:
            setups.append(run_child(request("setup", len(setups)), work,
                                    f"setup{len(setups)}")["setup_s"])

    if args.trace:
        values, absent, self_s = spans.layer_metrics(
            traced, [r["wall_s"] for r in runs], [r["validate_ms"] for r in runs + traced])
        units = PER_LAYER
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(r["wall_s"] for r in runs),
                  "cpu_s": statistics.median(r["cpu_s"] for r in runs),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs)}
        absent, self_s = {}, {}
        units = END_TO_END
    return {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "config": doc,
        "reference": reference_status,
        "artifacts": checker.sha256,
        "failures": checker.failures,
        "attempted": checker.attempted,
        "samples": {"wall_s": [r["wall_s"] for r in runs], "setup_s": setups,
                    "traced_wall_s": [r["wall_s"] for r in traced]},
        "environment": {**environment(), **runs[0]["env"]},
        "absent": absent,
        "span_self_s": self_s,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny n-grid and few replications, for self-tests")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup in run_child
    source = os.path.join(ROOT, WORKLOADS[args.workload]["source"])
    for path in (os.path.join(SRC, "indirect_erm", "__init__.py"), source):
        if not os.path.exists(path):
            print(f"cannot benchmark: {path} is missing", file=sys.stderr)
            return 2
    try:
        report = measure(args)
    except ChildFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({k: v for k, v in report.items() if k != "metrics"}))
    for name, metric in report["metrics"].items():
        note = f"  ({report['absent'][name]})" if name in report["absent"] else ""
        print(f"{name} = {metric['value']!r} {metric['unit']}{note}")
    print(json.dumps({"correct": not report["failures"], "attempted": report["attempted"],
                      "failed": len(report["failures"]), "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
