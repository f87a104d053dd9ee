"""The benchmark's tracer (``perfbench/child.py``) reaches into the package
by name: it imports public names and wraps module attributes. A rename in
``src`` would break ``--trace 1`` or leave its spans empty without any test
of the package noticing, so these tests read the tracer's source and check
that every name it uses exists and that the ``cli`` hooks of a diagnose run
are still called."""

import ast
import importlib
import json
from pathlib import Path

from indirect_erm import cli

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"

# the cli attributes a traced diagnose run wraps and expects to be called
DIAGNOSE_HOOKS = ("bayes_in_class", "empirical_lipschitz", "sup_bound_deconv",
                  "empirical_bias_deconv", "bernstein_ratio")


def _tracer_names():
    """(module, attribute) for every package name the tracer imports or wraps."""
    tree = ast.parse(CHILD.read_text())
    modules = {}  # local name -> dotted module path
    names = []
    for node in ast.walk(tree):
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

