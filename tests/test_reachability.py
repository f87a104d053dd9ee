"""Every function in ``src/`` is reached by a command, or named here with
the reason it stays.

The ``test_cli`` config functions, plus full-form ``uniform`` and
``tent_pair`` configs, run through ``cli.run`` in this process under a
profile hook that records each code object entered. Functions are keyed by
file, first line and name (``co_qualname`` is 3.11+), found by walking the
code objects compiled from each module's source.
"""

import inspect
import json
import os
import sys
import types
from pathlib import Path

import indirect_erm
from indirect_erm import cli

from test_cli import (
    diagnose_config,
    exponent_config,
    fit_bandwidth_config,
    fit_config,
    full_form_fit_config,
    full_form_rates_config,
    kernel_config,
    rates_config,
    restricted_fit_config,
    restricted_rates_config,
    svd_diagnose_config,
    svd_fit_config,
    svd_rates_config,
)

SRC = Path(indirect_erm.__file__).resolve().parent

# never called by a command, each with the reason it stays
UNREACHED = {
    # entry points and error paths
    "cli.main": "the console script; tests call cli.run",
    "cli.validate_config": "public schema check; the benchmark tracer and tests call it",
    "errors.SimulationError.__init__": "raised when a rate experiment aborts",
    "reader.ConfigReader._path": "names a key in a rejected config's message",
    "hypotheses._piecewise_cosine_coefficients":
        "tent_pair under the spectral operator: such a config fails the positivity guard "
        "when it is read, after computing them; the structural demo's spectral bias reads them",
    # tracer-only names, deleted or moved into the tests with ROADMAP items 1 and 6
    "hypotheses.true_risk": "the tracer and refresh_refs.py call it (item 1)",
    "hypotheses.loss_values": "modified_loss_deconv and tests evaluate it (items 6 and 11)",
    "hypotheses.ThresholdClassifier.predict": "loss_values calls it (items 6 and 11)",
    "noisy_risk.modified_loss_deconv": "the tracer wraps it in cli (items 1 and 6)",
    "noisy_risk.ModifiedLossTable.evaluate": "modified_loss_deconv's tables (item 6)",
    "noisy_risk.plug_in_density": "the tracer wraps it in erm (items 1 and 6)",
    "noisy_risk.ObservationLattice.convolve": "modified_loss_deconv and plug_in_density (item 6)",
    # references that only tests call
    "erm.DeconvolutionBackend.relative_losses.edge":
        "the head or tail term of a cut at node 0 or past the window's last node: "
        "no command's class has one; the Lipschitz tests do",
    # given readers by ROADMAP items 8, 15 and 18
    "kernels.NoiseModel.density": "exact second moments and clamped mass (items 15, 18)",
    "kernels._laplace_fold_density": "NoiseModel.density's Laplace case (items 15, 18)",
    "kernels.TabulatedKernel.integral": "truncated kernel tail mass in run telemetry (item 8)",
    "kernels.kernel_fourier_sup": "kernel conditioning in run telemetry (item 8)",
    # demos
    "kernels.TabulatedKernel.evaluate": "the build_kernels demo and tests",
}
# Not listed: no command reads a base kernel's table (``build_lattice`` and
# the ``kernel`` command read only its kind and offsets), so a base table
# is inverted only when tests or the build_kernels demo read ``values``.
# That lazy inversion is ``TabulatedKernel.values``, the one every
# noise-corrected kernel's build reaches, so it has no entry of its own.


def uniform_fit_config(out):
    doc = full_form_fit_config(out)
    doc["scenario"]["densities"] = "uniform"
    return doc


def uniform_svd_fit_config(out):
    doc = svd_fit_config(out)
    doc["scenario"] = {"priors": [0.5, 0.5], "densities": "uniform",
                       "contamination": doc["scenario"]["contamination"],
                       "grid": {"points": 256}}
    return doc


def tent_pair_diagnose_config(out):
    doc = diagnose_config(out)
    doc["scenario"]["densities"] = "tent_pair"
    return doc


CONFIGS = (exponent_config, kernel_config, fit_config, fit_bandwidth_config, svd_fit_config,
           restricted_fit_config, full_form_fit_config, uniform_fit_config,
           uniform_svd_fit_config, rates_config, restricted_rates_config, svd_rates_config,
           full_form_rates_config, diagnose_config, svd_diagnose_config,
           tent_pair_diagnose_config)


def _functions() -> dict:
    """(file, first line, name) -> dotted name of every function in ``src/``;
    comprehensions and class bodies are left out."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [(compile(path.read_text(), str(path), "exec"), path.stem)]
        while stack:
            parent, prefix = stack.pop()
            for code in parent.co_consts:
                if isinstance(code, types.CodeType):
                    name = f"{prefix}.{code.co_name}"
                    if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                        out[(str(path), code.co_firstlineno, code.co_name)] = name
                    stack.append((code, name))
    return out


def test_every_unreached_function_is_named(tmp_path, capsys):
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    paths = []
    for make in CONFIGS:
        path = tmp_path / f"{make.__name__}.json"
        path.write_text(json.dumps(make(str(tmp_path / make.__name__))))
        paths.append(str(path))
    # cached once per process, so an earlier test may have made its one call
    cli.set_allocator_thresholds.cache_clear()
    sys.setprofile(hook)
    try:
        codes = [cli.run(path, threads=1) for path in paths]
    finally:
        sys.setprofile(None)
    capsys.readouterr()  # the exponent command prints its value
    assert codes == [0] * len(CONFIGS)
    called = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in entered}
    unreached = {name for key, name in _functions().items() if key not in called}
    assert unreached == set(UNREACHED)
