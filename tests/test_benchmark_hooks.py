"""The benchmark's tracer (``perfbench/child.py``) reaches into the package
by name: it imports public names and wraps module attributes, and the ref
refresher (``perfbench/refresh_refs.py``) imports public names too. A
rename in ``src`` would break ``--trace 1``, leave its spans empty or break
the refresher without any test of the package noticing, so these tests
read both sources and check that every name they use exists and that the
``cli`` hooks of a diagnose run are still called. The tracer's rate replay also scores each trial with
the one-classifier ``true_risk`` and requires its rows to equal the
untraced run's, so that risk must equal the plan's risk vector exactly.
Two tests import the tracer itself and run its rate replay and its traced
diagnose at a small size."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import pkgutil
from dataclasses import replace
from pathlib import Path

import pytest

import indirect_erm
from indirect_erm import cli, run_rate_experiment, true_risk
from indirect_erm.hypotheses import true_risks
from indirect_erm.reader import ConfigReader

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "perfbench" / "child.py"
REFRESH = ROOT / "perfbench" / "refresh_refs.py"

# the cli attributes a traced diagnose run wraps and expects to be called
DIAGNOSE_HOOKS = ("bayes_in_class", "empirical_lipschitz", "sup_bound_deconv",
                  "empirical_bias_deconv", "bernstein_ratio")


def _tracer_names():
    """(module, attribute) for every package name the tracer or the ref
    refresher imports, and every one the tracer wraps."""
    tree = ast.parse(CHILD.read_text())
    modules = {}  # local name -> dotted module path
    names = []
    for source in (tree, ast.parse(REFRESH.read_text())):
        for node in ast.walk(source):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("indirect_erm"):
                for alias in node.names:
                    names.append((node.module, alias.name))
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap" and isinstance(node.args[0], ast.Name)):
            attr = node.args[1]
            assert isinstance(attr, ast.Constant), ast.dump(node)
            names.append((modules[node.args[0].id], attr.value))
    return names


def test_tracer_names_exist():
    names = _tracer_names()
    wrapped = [attr for _, attr in names if attr in DIAGNOSE_HOOKS]
    assert sorted(wrapped) == sorted(DIAGNOSE_HOOKS)
    refreshed = {("indirect_erm", name) for name in ("LossSpec", "threshold_grid", "true_risk",
                                                      "cli")}
    assert refreshed <= set(names)
    missing = [f"{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing


def test_diagnose_calls_every_traced_cli_hook(tmp_path, monkeypatch):
    calls = dict.fromkeys(DIAGNOSE_HOOKS, 0)
    for name in DIAGNOSE_HOOKS:
        original = getattr(cli, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    doc = {
        "version": 1, "command": "diagnose", "seed": 5,
        "scenario": {"family": "smooth", "alpha": 1, "gamma": 2.0, "sharpness": 1.3,
                     "contamination": {"kind": "laplace", "beta": 2},
                     "grid": {"points": 128}},
        "hypotheses": {"kind": "thresholds", "count": 5},
        "diagnose": {"bandwidths": [0.2, 0.4], "mc_n": 200, "pair_count": 4},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert cli.run(str(config), out_dir=str(tmp_path / "out"), threads=1) == 0
    assert all(calls[name] >= 1 for name in DIAGNOSE_HOOKS), calls


@pytest.mark.parametrize("preset, window", [("laplace-linear", None), ("dirac-linear", None),
                                            ("svd-linear", None), ("laplace-linear", (0.2, 0.7))])
def test_one_classifier_risk_equals_plan_risks_exactly(preset, window):
    plan = cli._read_plan(ConfigReader(json.loads((ROOT / "presets" / f"{preset}.json")
                                                  .read_text())))
    if window is not None:
        plan = replace(plan, backend="restricted", window=window)
    hclass = plan.hypothesis_class()
    assert [true_risk(c, plan.scenario, plan.loss, plan.window)
            for c in hclass] == true_risks(hclass, plan.scenario, window=plan.window).tolist()


def test_only_the_tracer_names_take_a_loss():
    # the hard loss is fixed in ``hypotheses``; a ``loss`` parameter, which
    # nothing reads, stays only where the tracer passes one
    takes_loss = set()
    for info in pkgutil.iter_modules(indirect_erm.__path__):
        module = importlib.import_module(f"indirect_erm.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if ((inspect.isfunction(obj) or dataclasses.is_dataclass(obj))
                    and "loss" in inspect.signature(obj).parameters):
                takes_loss.add(name)
    assert takes_loss == {"true_risk", "ExperimentPlan", "DeconvolutionBackend", "SvdBackend"}


def _child():
    """``perfbench/child.py`` as a module, imported from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_rate_replay_matches_the_untraced_run():
    child = _child()
    doc = json.loads((ROOT / "presets" / "laplace-linear.json").read_text())
    doc.update(n_grid=[256, 512], replications=2)
    tracer = child.Tracer()
    try:
        child._wrap_inner_calls(tracer)
        rows = child._replay_rates(tracer, doc, 11)
    finally:
        tracer.unwrap_all()
    want = [list(row) for row in run_rate_experiment(child._plan(doc, 11), threads=1).rows]
    assert rows == want
    inversions = [span for span in tracer.spans if span["name"] == "kernels.invert"]
    assert len(inversions) == 2 and all("offsets" in span for span in inversions)


def test_tracer_diagnose_runs(tmp_path):
    child = _child()
    doc = {
        "version": 1, "command": "diagnose", "seed": 5,
        "scenario": {"family": "smooth", "alpha": 1, "gamma": 2.0, "sharpness": 1.3,
                     "contamination": {"kind": "laplace", "beta": 2},
                     "grid": {"points": 128}},
        "hypotheses": {"kind": "thresholds", "count": 5},
        "diagnose": {"bandwidths": [0.2, 0.4], "mc_n": 200, "pair_count": 4},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    tracer = child.Tracer()
    try:
        child._wrap_inner_calls(tracer)
        child._traced_diagnose(tracer, str(config), str(tmp_path / "out"), 5)
    finally:
        tracer.unwrap_all()
    assert {"hypotheses.context", "diagnostics.lipschitz", "diagnostics.sup_bound",
            "diagnostics.bias", "diagnostics.bernstein"} <= {span["name"] for span in tracer.spans}
