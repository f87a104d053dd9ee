import glob
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys

import pytest

import indirect_erm
from indirect_erm import cli
from indirect_erm.cli import run, validate_config
from indirect_erm.errors import ConfigurationError

MISSING = object()  # a test case that deletes the key


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def exponent_config(out):
    return {
        "version": 1,
        "command": "exponent",
        "out": out,
        "theory_mode": "deconv",
        "rate_config": {"kappa": 2.0, "rho": 0.5, "gamma": 1.0, "beta_bar": 1.0},
    }


def rates_config(out):
    return {
        "version": 1,
        "command": "rates",
        "seed": 7,
        "out": out,
        "scenario": {
            "family": "smooth", "alpha": 1, "gamma": 2.0, "sharpness": 1.3,
            "contamination": {"kind": "laplace", "beta": 2},
            "grid": {"points": 256},
        },
        "hypotheses": {"kind": "thresholds", "count": 21},
        "rate_config": {"kappa": 2.0, "rho": 0.5, "gamma": 2.0, "beta_bar": 2.0,
                        "bias_variant": "squared_loss"},
        "n_grid": [128, 256, 512],
        "replications": 3,
        "base_kernel": "order_m_flat_top",
        "theory_mode": "hard_loss",
    }


def fit_config(out):
    return {
        "version": 1, "command": "fit", "out": out, "seed": 3, "n": 200,
        "scenario": {"family": "linear", "alpha": 1,
                     "contamination": {"kind": "laplace", "beta": 2},
                     "grid": {"points": 256}},
        "hypotheses": {"kind": "thresholds", "count": 11},
        "rate_config": {"kappa": 2.0, "rho": 0.5, "gamma": 1.0, "beta_bar": 2.0},
    }


def svd_fit_config(out):
    doc = fit_config(out)
    doc["backend"] = "svd"
    doc["scenario"]["contamination"] = {"kind": "svd_operator", "beta": 1.0, "k_max": 64}
    doc["rate_config"]["beta_bar"] = 1.0
    return doc


def restricted_fit_config(out):
    doc = fit_config(out)
    doc["backend"] = "restricted"
    doc["window"] = [0.2, 0.8]
    return doc


def restricted_rates_config(out):
    doc = rates_config(out)
    doc["backend"] = "restricted"
    doc["window"] = [0.2, 0.8]
    return doc


def svd_rates_config(out):
    doc = rates_config(out)
    del doc["base_kernel"]
    doc["backend"] = "svd"
    doc["scenario"] = {"priors": [0.5, 0.5], "densities": "linear",
                       "contamination": {"kind": "svd_operator", "beta": 1.0, "k_max": 64},
                       "grid": {"points": 256}}
    doc["rate_config"]["beta_bar"] = 1.0
    doc["theory_mode"] = "svd"
    return doc


def kernel_config(out):
    return {
        "version": 1, "command": "kernel", "out": out, "bandwidth": 0.5,
        "scenario": {"family": "linear", "alpha": 1,
                     "contamination": {"kind": "laplace", "beta": 2},
                     "grid": {"points": 256}},
    }


def diagnose_config(out):
    return {
        "version": 1, "command": "diagnose", "out": out, "seed": 5,
        "scenario": {"priors": [0.5, 0.5], "densities": "linear",
                     "contamination": {"kind": "laplace", "beta": 2},
                     "alpha": 1.0, "gamma": 1.0, "grid": {"points": 256}},
        "hypotheses": {"kind": "thresholds", "count": 9},
        "diagnose": {"bandwidths": [0.15, 0.3], "mc_n": 2000},
    }


def svd_diagnose_config(out):
    doc = diagnose_config(out)
    doc["scenario"]["contamination"] = {"kind": "svd_operator", "beta": 1.0, "k_max": 64}
    doc["diagnose"] = {"cutoffs": [4, 8], "mc_n": 2000}
    return doc


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------

def test_unknown_keys_rejected():
    with pytest.raises(ConfigurationError):
        validate_config({"version": 1, "command": "rates", "bogus": 1})
    with pytest.raises(ConfigurationError):
        validate_config({"version": 1, "command": "rates",
                         "scenario": {"surprise": True}})


def test_missing_and_wrong_fields():
    with pytest.raises(ConfigurationError):
        validate_config({"command": "rates"})  # missing version
    with pytest.raises(ConfigurationError):
        validate_config({"version": 2, "command": "rates"})
    with pytest.raises(ConfigurationError):
        validate_config({"version": 1, "command": "explode"})
    with pytest.raises(ConfigurationError):
        validate_config({"version": 1, "command": "rates", "seed": "abc"})


def test_malformed_config_exit_codes(tmp_path):
    out = str(tmp_path / "artifacts")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(str(bad), out_dir=out) == 2
    unknown = write_config(tmp_path, {"version": 1, "command": "rates", "x": 1})
    assert run(unknown, out_dir=out) == 2
    assert not os.path.exists(os.path.join(out, "rates.csv"))


@pytest.mark.parametrize("make, block, key, value", [
    (fit_config, None, "backend", "bogus"),
    (fit_config, None, "backend", "svd"),  # Laplace scenario, spectral backend
    (fit_config, None, "window", [0.2, 0.8]),  # window without the restricted backend
    (fit_config, "hypotheses", "kind", "intervals"),
    (fit_config, "loss", "kind", "absolute"),
    (fit_config, None, "base_kernel", "gauss"),
    (fit_config, "rate_config", "bias_variant", "cubic"),
    (rates_config, None, "theory_mode", "hardloss"),
    (exponent_config, None, "theory_mode", "hardloss"),
    (rates_config, "diagnose", "bias_variant", "cubic"),
    (fit_config, "scenario", "contamination", {"kind": "laplace", "beta": [2, 2]}),
    (svd_fit_config, None, "cutoff", 100),  # above k_max 64: rejected, not capped
    (svd_fit_config, None, "cutoff", 0),
    # smoothing keys and backends the command would ignore
    (fit_config, None, "cutoff", 8),
    (svd_fit_config, None, "bandwidth", 0.2),
    (rates_config, None, "bandwidth", 0.2),
    (diagnose_config, None, "backend", "restricted"),
    (diagnose_config, None, "window", [0.2, 0.8]),
    (diagnose_config, None, "bandwidth", 0.2),
    (svd_diagnose_config, None, "cutoff", 8),
    # diagnose smoothing lists are checked, not truncated
    (svd_diagnose_config, "diagnose", "cutoffs", [4.5, 8.7]),
    (svd_diagnose_config, "diagnose", "cutoffs", [4, 8.0]),
    (diagnose_config, "diagnose", "bandwidths", ["0.15"]),
    # keys the command does not read, wrong types and missing keys
    (fit_config, "scenario.grid", "point", 256),
    (fit_config, "scenario", "priors", [0.5, 0.5]),  # margin shorthand sets its priors
    (fit_config, "scenario.contamination", "k_max", 64),
    (fit_config, None, "n_grid", [128, 256]),
    (fit_config, None, "replications", 3),
    (fit_config, None, "diagnose", {"mc_n": 100}),
    (svd_rates_config, None, "base_kernel", "sinc"),
    (kernel_config, None, "rate_config", {"kappa": 2.0, "rho": 0.5, "gamma": 1.0}),
    (exponent_config, None, "scenario", {"family": "linear",
                                         "contamination": {"kind": "dirac"}}),
    (fit_config, "hypotheses", "count", "11"),
    (rates_config, None, "n_grid", ["128", "256"]),
    (restricted_fit_config, None, "window", [0.2]),
    (restricted_rates_config, None, "window", [0.8, 0.2]),
    (fit_config, None, "scenario", MISSING),
    (fit_config, "scenario", "contamination", MISSING),
    (fit_config, "rate_config", "kappa", MISSING),
    # values that only the work used to reject, with an error.json left behind
    (rates_config, "hypotheses", "count", 0),
    (fit_config, "hypotheses", "count", 0),
    (restricted_rates_config, None, "window", [1.5, 2.0]),  # holds no domain node
    (restricted_fit_config, None, "window", [1.5, 2.0]),
    # smoothing values outside their range: a cutoff above k_max, and
    # bandwidths at or below the domain spacing (1/255), which alias
    (svd_diagnose_config, "diagnose", "cutoffs", [4, 100]),
    (fit_config, None, "bandwidth", -0.5),
    (kernel_config, None, "bandwidth", 0.001),
    (diagnose_config, "diagnose", "bandwidths", [0.3, 0.001]),
    # loss kinds that equal the hard loss on 0/1 predictions, and a clip
    # below 1, which would only scale every risk
    (fit_config, "loss", "kind", "hinge_clipped"),
    (fit_config, "loss", "kind", "quadratic_clipped"),
    (fit_config, "loss", "clip", 0.5),
    # a seed SeedSequence refuses inside the first trial
    (rates_config, None, "seed", -1),
    # a domain other than [0, 1], where the density families and the cosine
    # basis live: the run used to fail inside the work with exit 3
    (rates_config, "scenario.grid", "upper", [2.0]),
    (svd_rates_config, "scenario.grid", "upper", [2.0]),
    (fit_config, "scenario.grid", "lower", [-1.0]),
    (diagnose_config, "scenario.grid", "upper", 2.0),
    (kernel_config, "scenario.grid", "lower", 0.5),
])
def test_bad_config_values_exit_two(tmp_path, make, block, key, value):
    out = tmp_path / "artifacts"
    doc = make(str(out))
    validate_config(doc)  # the case's own change is what makes it invalid
    section = doc
    for name in block.split(".") if block else ():
        section = section.setdefault(name, {})
    if value is MISSING:
        del section[key]
    else:
        section[key] = value
    with pytest.raises(ConfigurationError):
        validate_config(doc)
    assert run(write_config(tmp_path, doc), threads=1) == 2
    for name in ("rates.csv", "fit.json", "exponent.json", "diagnostics.json", "error.json"):
        assert not (out / name).exists()


def fit_bandwidth_config(out):
    doc = fit_config(out)
    doc["bandwidth"] = 0.3  # so that no smoothing rule reads n
    return doc


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("make, block, key", [
    (fit_bandwidth_config, None, "n"),
    (rates_config, None, "n_grid"),
    (diagnose_config, "diagnose", "mc_n"),
    (diagnose_config, "diagnose", "pair_count"),
])
def test_sample_sizes_below_one_exit_two(tmp_path, make, block, key, value):
    # rejected when read: no traceback, no exit 3 mid-run, no output directory
    out = tmp_path / "artifacts"
    doc = make(str(out))
    validate_config(doc)
    section = doc[block] if block else doc
    section[key] = [value, 256, 512] if key == "n_grid" else value
    with pytest.raises(ConfigurationError):
        validate_config(doc)
    assert run(write_config(tmp_path, doc), threads=1) == 2
    assert not out.exists()


@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("make", [fit_config, rates_config, diagnose_config])
def test_bad_pad_factor_exits_two(tmp_path, make, value):
    # a negative factor used to run silently as 0, clamping draws to the domain
    out = tmp_path / "artifacts"
    doc = make(str(out))
    doc["pad_factor"] = value
    with pytest.raises(ConfigurationError):
        validate_config(doc)
    assert run(write_config(tmp_path, doc), threads=1) == 2
    assert not out.exists()


def full_form_rates_config(out):
    doc = rates_config(out)
    doc["scenario"] = {"priors": [0.5, 0.5], "densities": "linear", "alpha": 1.0, "gamma": 1.0,
                       "contamination": {"kind": "laplace", "beta": 2}, "grid": {"points": 256}}
    return doc


def full_form_fit_config(out):
    doc = fit_config(out)
    doc["scenario"] = full_form_rates_config(out)["scenario"]
    return doc


@pytest.mark.parametrize("alpha", [0.0, -1.0])
@pytest.mark.parametrize("make", [full_form_rates_config, svd_rates_config, full_form_fit_config,
                                  diagnose_config])
def test_nonpositive_alpha_exits_two(tmp_path, make, alpha):
    # a hard_loss rates run used to exit 2 after writing rates.csv, an svd
    # one and fit to finish, and diagnose to exit 2 mid-run
    out = tmp_path / "artifacts"
    doc = make(str(out))
    doc["scenario"]["alpha"] = alpha
    with pytest.raises(ConfigurationError, match="alpha"):
        validate_config(doc)
    assert run(write_config(tmp_path, doc), threads=1) == 2
    assert not out.exists()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make, path, value", [
    *[(rates_config, f"rate_config.{key}", v) for key in ("kappa", "gamma", "beta_bar")
      for v in (NAN, INF)],
    *[(full_form_rates_config, f"scenario.{key}", v) for key in ("alpha", "gamma")
      for v in (NAN, INF)],
    (full_form_rates_config, "scenario.priors", [NAN, NAN]),
    (exponent_config, "rate_config.kappa", NAN),
    (exponent_config, "rate_config.kappa", 10 ** 400),  # float() of it used to raise
    (svd_fit_config, "scenario.contamination.beta", INF),
    (svd_fit_config, "scenario.contamination.beta", NAN),
    (svd_fit_config, "scenario.contamination.beta", 200.0),  # b_64 underflows to 0
    (fit_config, "scenario.grid.upper", INF),
])
def test_non_finite_config_numbers_exit_two(tmp_path, make, path, value):
    # each used to run to the end with NaN results, or exit 3 mid-run, or be
    # rejected for another reason
    out = tmp_path / "artifacts"
    doc = make(str(out))
    *parents, key = path.split(".")
    block = doc
    for name in parents:
        block = block[name]
    block[key] = value
    with pytest.raises(ConfigurationError, match="finite|b_k"):
        validate_config(doc)
    assert run(write_config(tmp_path, doc), threads=1) == 2
    assert not out.exists()


def test_negative_seed_override_exits_two(tmp_path):
    out = tmp_path / "artifacts"
    assert run(write_config(tmp_path, rates_config(str(out))), seed=-1, threads=1) == 2
    assert not out.exists()


def test_missing_file_is_io_error(tmp_path):
    assert run(str(tmp_path / "nope.json")) == 4


def test_model_error_exit_three(tmp_path):
    # the smooth family violates the spectral positivity guard: the fit
    # aborts with a model error, exit 3, and a machine-readable report
    out = str(tmp_path / "artifacts")
    doc = {
        "version": 1, "command": "fit", "out": out, "seed": 1, "n": 50,
        "backend": "svd",
        "scenario": {"family": "smooth", "alpha": 1, "gamma": 2.0,
                     "contamination": {"kind": "svd_operator", "beta": 1.0},
                     "grid": {"points": 256}},
        "hypotheses": {"kind": "thresholds", "count": 5},
        "rate_config": {"kappa": 2.0, "rho": 0.5, "gamma": 2.0, "beta_bar": 1.0},
    }
    path = write_config(tmp_path, doc)
    assert run(path) == 3
    report = json.loads((tmp_path / "artifacts" / "error.json").read_text())
    assert report["kind"] == "ModelError"


def test_model_error_exit_code(tmp_path):
    out = str(tmp_path / "artifacts")
    doc = exponent_config(out)
    doc["rate_config"]["rho"] = 0.5
    doc["rate_config"]["kappa"] = 2.0
    doc["theory_mode"] = "deconv"
    doc["rate_config"]["gamma"] = -1.0  # invalid at construction time
    path = write_config(tmp_path, doc)
    assert run(path) == 2  # configuration errors map to exit 2


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_exponent_command(tmp_path, capsys):
    out = str(tmp_path / "artifacts")
    path = write_config(tmp_path, exponent_config(out))
    assert run(path) == 0
    printed = capsys.readouterr().out.strip()
    assert printed.startswith("0.307692")
    doc = json.loads((tmp_path / "artifacts" / "exponent.json").read_text())
    assert abs(doc["exponent"] - 2.0 / 6.5) < 1e-9
    manifest = json.loads((tmp_path / "artifacts" / "manifest.json").read_text())
    assert manifest["artifacts"] == ["exponent.json"]
    assert "config_sha256" in manifest


def test_kernel_command(tmp_path):
    path = write_config(tmp_path, kernel_config(str(tmp_path / "artifacts")))
    assert run(path) == 0
    rows = (tmp_path / "artifacts" / "kernel.csv").read_text().strip().splitlines()
    assert rows[0] == "axis,offset,value"
    assert len(rows) > 256


def test_fit_command(tmp_path):
    path = write_config(tmp_path, fit_config(str(tmp_path / "artifacts")))
    assert run(path) == 0
    fit = json.loads((tmp_path / "artifacts" / "fit.json").read_text())
    assert 0 <= fit["index"] < 11
    assert "true_risk" in fit


def test_svd_fit_command(tmp_path):
    doc = svd_fit_config(str(tmp_path / "artifacts"))
    doc["cutoff"] = 64
    assert run(write_config(tmp_path, doc)) == 0
    fit = json.loads((tmp_path / "artifacts" / "fit.json").read_text())
    assert fit["backend"] == "svd" and fit["smoothing"] == [64]


def test_fit_json_reproducible(tmp_path):
    path = write_config(tmp_path, fit_config(str(tmp_path / "a")))
    assert run(path) == 0
    assert run(path, out_dir=str(tmp_path / "b")) == 0
    assert (tmp_path / "a" / "fit.json").read_bytes() == (tmp_path / "b" / "fit.json").read_bytes()


def test_rates_command_and_determinism(tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    path = write_config(tmp_path, rates_config(out1))
    assert run(path, threads=1) == 0
    rates1 = (tmp_path / "a" / "rates.csv").read_bytes()
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["theory_exponent"] == pytest.approx(4.0 / 11.0)
    rows = rates1.decode().strip().splitlines()
    assert len(rows) == 1 + 3
    # identical bytes on rerun into a fresh directory
    assert run(path, out_dir=out2, threads=1) == 0
    assert rates1 == (tmp_path / "b" / "rates.csv").read_bytes()


def test_rates_seed_override_changes_output(tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    path = write_config(tmp_path, rates_config(out1))
    assert run(path, threads=1) == 0
    assert run(path, out_dir=out2, seed=8, threads=1) == 0
    assert (tmp_path / "a" / "rates.csv").read_bytes() != \
        (tmp_path / "b" / "rates.csv").read_bytes()


def test_diagnose_command(tmp_path):
    path = write_config(tmp_path, diagnose_config(str(tmp_path / "artifacts")))
    assert run(path) == 0
    report = json.loads((tmp_path / "artifacts" / "diagnostics.json").read_text())
    assert len(report["lipschitz"]) == 2
    assert [entry[0] for entry in report["bias"]] == [[0.15], [0.3]]
    assert "slopes" in report
    assert (tmp_path / "artifacts" / "diagnostics.csv").exists()


def test_diagnose_command_svd(tmp_path):
    doc = svd_diagnose_config(str(tmp_path / "artifacts"))
    assert run(write_config(tmp_path, doc)) == 0
    report = json.loads((tmp_path / "artifacts" / "diagnostics.json").read_text())
    for series in ("lipschitz", "sup_bounds", "bias"):
        assert [entry[0] for entry in report[series]] == [[4.0], [8.0]]
    assert all(math.isfinite(value) and value > 0 for _, value in report["lipschitz"])


@pytest.mark.parametrize("block, key, value", [
    ("hypotheses", "count", 1),
])
def test_diagnose_without_pairs_exits_three(tmp_path, block, key, value):
    out = tmp_path / "artifacts"
    doc = diagnose_config(str(out))
    doc[block][key] = value
    assert run(write_config(tmp_path, doc)) == 3
    assert json.loads((out / "error.json").read_text())["kind"] == "DataError"
    assert not (out / "diagnostics.json").exists()


def test_preset_files_are_valid():
    import indirect_erm

    root = os.path.normpath(os.path.join(
        os.path.dirname(os.path.abspath(indirect_erm.__file__)), "..", ".."))
    paths = sorted(glob.glob(os.path.join(root, "presets", "*.json"))
                   + glob.glob(os.path.join(root, "perfbench", "configs", "*.json")))
    names = [os.path.relpath(p, root) for p in paths]
    assert {"presets/laplace-linear.json", "presets/dirac-linear.json",
            "presets/svd-linear.json", "perfbench/configs/laplace-diagnose.json"} <= set(names)
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        validate_config(doc)
    with open(os.path.join(root, "presets", "laplace-linear.json")) as fh:
        laplace = json.load(fh)
    assert laplace["rate_config"]["beta_bar"] == 2.0
    assert laplace["scenario"]["gamma"] == 2.0


# ---------------------------------------------------------------------------
# the run path in a fresh interpreter: no scipy, a warm allocator
# ---------------------------------------------------------------------------

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PRESETS = os.path.join(os.path.dirname(SRC), "presets")


def _python(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter that imports the package from ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


RUN_CONFIGS = """
import json, sys
from indirect_erm import cli
for path in sys.argv[1:]:
    assert cli.run(path, threads=1) == 0, path
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_import_and_run_load_no_scipy(tmp_path):
    paths = [write_config(tmp_path, make(str(tmp_path / name)), f"{name}.json")
             for name, make in (("rates", rates_config), ("svd_rates", svd_rates_config),
                                ("diagnose", diagnose_config))]
    assert json.loads(_python(RUN_CONFIGS, *paths)) == []


WARM_TRIALS = """
import json, resource, sys
import numpy as np
from indirect_erm import cli
from indirect_erm.erm import RateConfig, minimize
from indirect_erm.hypotheses import Scenario, threshold_grid
from indirect_erm.simulation import build_backend, generate_sample, rule_smoothing

if not cli.set_allocator_thresholds():
    print("no mallopt")
    sys.exit(0)
with open(sys.argv[1]) as fh:
    doc = json.load(fh)
scenario, n = Scenario.from_json(doc["scenario"]), 16384
bandwidth = rule_smoothing("deconvolution", scenario, RateConfig.from_json(doc["rate_config"]), n)
backend = build_backend("deconvolution", scenario, bandwidth,
                        base_kernel=doc["base_kernel"])
hclass = threshold_grid(doc["hypotheses"]["count"], scenario.domain)
rng = np.random.default_rng(11)
for _ in range(3):  # builds the spectrum and the sampling densities
    minimize(hclass, generate_sample(scenario, n, rng), backend)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    minimize(hclass, generate_sample(scenario, n, rng), backend)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def test_run_sets_allocator_thresholds(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "set_allocator_thresholds", lambda: calls.append(1))
    assert run(write_config(tmp_path, exponent_config(str(tmp_path / "out")))) == 0
    assert calls == [1]


def test_warm_trials_reuse_heap_buffers():
    # without fixed thresholds each warm trial maps its FFT buffers afresh:
    # a few hundred minor page faults per trial instead of a few
    pytest.importorskip("resource")
    faults = _python(WARM_TRIALS, os.path.join(PRESETS, "laplace-linear.json"))
    if faults == "no mallopt":
        pytest.skip("the C library has no mallopt")
    assert float(faults) < 20


def test_every_module_exports_exist():
    modules = [indirect_erm] + [importlib.import_module(f"indirect_erm.{info.name}")
                                for info in pkgutil.iter_modules(indirect_erm.__path__)]
    assert len(modules) > 10
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], module.__name__
