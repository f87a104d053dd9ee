import glob
import json
import math
import os

import pytest

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
    for name in ("rates.csv", "fit.json", "exponent.json", "diagnostics.json"):
        assert not (out / name).exists()


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
    ("diagnose", "pair_count", 0),
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
