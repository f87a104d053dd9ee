"""Acceptance suite: one test per shipped guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines and timings. The heavy Monte-Carlo checks stay well inside their
stated runtime budgets on a laptop-class machine.
"""

import json
import os
import time
from dataclasses import replace

import numpy as np

import indirect_erm as ie
from indirect_erm.cli import _read_plan, run as cli_run, validate_config
from indirect_erm.diagnostics import (
    empirical_bias_deconv,
    empirical_bias_svd,
    empirical_lipschitz,
    fit_rate_slope,
    hard_loss_exponent,
    rate_exponent,
    sup_bound_deconv,
    sup_bound_svd,
)
from indirect_erm.erm import DeconvolutionBackend, RateConfig, SvdBackend, minimize
from indirect_erm.grid import trapezoid_weights
from indirect_erm.hypotheses import (
    HypothesisClass,
    ThresholdClassifier,
    loss_values,
    snap_to_cell_midpoint,
    structural_pair_priors,
    threshold_grid,
    _TENT_CROSSING,
)
from indirect_erm.kernels import build_base_kernel, build_deconvolution_kernel
from indirect_erm.noisy_risk import (
    build_lattice,
    empirical_risk,
    modified_loss_deconv,
    plug_in_density,
)
from indirect_erm.operators import contaminate, sample_density
from indirect_erm.reader import ConfigReader
from indirect_erm.simulation import generate_sample, run_rate_experiment

from oracles import closed_form_corrected_sinc, naive_minimize_index

PRESET_DIR = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(ie.__file__)), "..", "..", "presets"))

GRID = ie.Grid(points_per_dim=1024)
HARD = ie.LossSpec("hard")


def report(name: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name}: {detail} [{time.perf_counter() - started:.1f}s]")


def geometric_scan_class(center: float) -> tuple[HypothesisClass, int]:
    offsets = [0.0015 * 1.3 ** j for j in range(15)]
    clfs = [ie.ThresholdClassifier(snap_to_cell_midpoint(center + s * sign, GRID))
            for s in offsets for sign in (1, -1)]
    clfs.append(ie.ThresholdClassifier(snap_to_cell_midpoint(center, GRID)))
    return HypothesisClass(tuple(clfs)), len(clfs) - 1


def slope_of(xs, values) -> float:
    return fit_rate_slope([(x, v, 0.0) for x, v in zip(xs, values)])[0]


def test_criterion_1_kernel_oracle():
    """Numerically inverted corrected kernel matches the closed form."""
    started = time.perf_counter()
    h = 16.0 / 1023.0
    offsets = (np.arange(1024) - 511.5) * h
    base = build_base_kernel("sinc", GRID, offsets=offsets)
    noise = ie.laplace_noise(2.0)
    worst = 0.0
    for lam in (1.0, 0.5):
        built = build_deconvolution_kernel(base, noise, lam)
        exact = closed_form_corrected_sinc(offsets / lam, lam) / lam
        worst = max(worst, float(np.abs(built.values[0] - exact).max()))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed < 1.0
    report("criterion-1 kernel oracle", ok,
           f"sup_err={worst:.2e} (tol 1e-6), runtime {elapsed:.2f}s (< 1s)", started)
    assert ok


def test_criterion_2_elementary_property():
    """Corrected kernel at contaminated draws has the base-kernel mean."""
    started = time.perf_counter()
    noise = ie.laplace_noise(2.0)
    sc = ie.make_margin_scenario(1, noise, family="smooth", gamma=2.0,
                                 grid=GRID, sharpness=1.3)
    rng = np.random.default_rng(3)
    n = 100_000
    x_draws = sample_density(sc.density_values(1), GRID, n, rng)
    z_draws = contaminate(x_draws, noise, rng)
    worst = 0.0
    for lam in (0.1, 0.2, 0.4):
        lattice = build_lattice(GRID, noise, lam)
        for x_query in np.linspace(0.1, 0.9, 9):
            a = lattice.kernel.evaluate(z_draws - x_query)
            b = lattice.base_scaled.evaluate(x_draws - x_query)
            se = (a - b).std(ddof=1) / np.sqrt(n)
            worst = max(worst, abs(a.mean() - b.mean()) / se)
    elapsed = time.perf_counter() - started
    ok = worst <= 3.0 and elapsed < 30.0
    report("criterion-2 elementary property", ok,
           f"max |z| over 27 checks = {worst:.2f} (tol 3 MC SEs), "
           f"runtime {elapsed:.1f}s (< 30s)", started)
    assert ok


def _random_instances(seed=21, count=20):
    sc = ie.make_margin_scenario(1, ie.laplace_noise(2.0), grid=GRID)
    lattice = build_lattice(GRID, ie.laplace_noise(2.0), 0.2)
    rng = np.random.default_rng(seed)
    instances = []
    for _ in range(count):
        sample = generate_sample(sc, 50, rng)
        cells = rng.choice(np.arange(2, 100), size=11, replace=False)
        hclass = HypothesisClass(tuple(
            ThresholdClassifier(snap_to_cell_midpoint(c / 101.0, GRID))
            for c in np.sort(cells)))
        instances.append((sample, hclass))
    return lattice, instances


def test_criterion_3_plug_in_equivalence():
    """Table-lookup risk equals the plug-in density risk to 1e-8."""
    started = time.perf_counter()
    lattice, instances = _random_instances()
    w = trapezoid_weights(len(lattice.nodes), lattice.spacing)
    worst = 0.0
    for sample, hclass in instances:
        fhat = {}
        for label in (0, 1):
            z_lab = sample.z[sample.y == label]
            if z_lab.size:
                fhat[label] = (z_lab.size / sample.n) * plug_in_density(z_lab, lattice)
        for clf in hclass:
            table = modified_loss_deconv(clf, HARD, lattice)
            lookup = empirical_risk(table, sample)
            plug = sum(float(np.dot(loss_values(clf, HARD, label, lattice.nodes),
                                    w * fh))
                       for label, fh in fhat.items())
            worst = max(worst, abs(lookup - plug))
    ok = worst <= 1e-8
    report("criterion-3 plug-in equivalence", ok,
           f"max |difference| over 20x11 evaluations = {worst:.2e} (tol 1e-8)",
           started)
    assert ok


def test_criterion_4_minimizer_oracle_equivalence():
    """The class scan selects the same index as naive quadrature."""
    started = time.perf_counter()
    lattice, instances = _random_instances()
    mismatches = 0
    for sample, hclass in instances:
        backend = DeconvolutionBackend(lattice=lattice, loss=HARD)
        fit = minimize(hclass, sample, backend)
        oracle = naive_minimize_index(hclass, HARD, lattice, sample)
        mismatches += fit.index != oracle
    ok = mismatches == 0
    report("criterion-4 minimizer equivalence", ok,
           f"index mismatches = {mismatches}/20 (exact match required)", started)
    assert ok


def test_criterion_5_structural_scaling():
    """Lipschitz, uniform-bound, and bias constants scale as predicted."""
    started = time.perf_counter()
    noise = ie.laplace_noise(2.0)  # total decay 2
    priors = structural_pair_priors()
    scenario = ie.Scenario(priors=priors, densities="tent_pair",
                           contamination=noise, alpha=1.0, gamma=1.0,
                           domain=GRID)
    # kappa = 2, declared gamma = 1: bias target kappa*gamma/(kappa-1) = 2
    hclass = threshold_grid(33, GRID)
    pairs = []
    step = 1
    while step < len(hclass):
        for i in range(0, len(hclass) - step, max(1, (len(hclass) - step) // 5)):
            pairs.append((i, i + step))
        step *= 2

    lams = [0.05, 0.075, 0.11, 0.17, 0.25]
    lipschitz, bounds = [], []
    for lam in lams:
        lattice = build_lattice(GRID, noise, lam)
        backend = DeconvolutionBackend(lattice=lattice, loss=HARD)
        ratios = empirical_lipschitz(scenario, backend, hclass, pairs, 20_000, seed=5)
        lipschitz.append(float(ratios.max()))
        bounds.append(sup_bound_deconv(lattice, hclass, HARD, GRID))
    scan_class, scan_star = geometric_scan_class(_TENT_CROSSING)
    bias_lams = [0.02, 0.03, 0.045, 0.068, 0.1]
    bias = [empirical_bias_deconv(scenario, build_lattice(GRID, noise, lam),
                                  scan_class, scan_star, HARD,
                                  bias_variant="squared_loss")
            for lam in bias_lams]
    c_slope = slope_of(lams, lipschitz)
    k_slope = slope_of(lams, bounds)
    a_slope = slope_of(bias_lams, bias)

    op = ie.SpectralOperator(decay=1.0, k_max=64)
    sc_linear = ie.make_margin_scenario(1, op, grid=GRID)
    sc_tent = ie.Scenario(priors=priors, densities="tent_pair",
                          contamination=op, alpha=1.0, gamma=1.0, domain=GRID)
    cutoffs = [4, 6, 9, 14, 21, 32]
    lipschitz_svd, bounds_svd = [], []
    for cutoff in cutoffs:
        backend = SvdBackend(operator=op, cutoff=cutoff, grid=GRID, loss=HARD)
        ratios = empirical_lipschitz(sc_linear, backend, hclass, pairs, 20_000, seed=5)
        lipschitz_svd.append(float(ratios.max()))
        bounds_svd.append(sup_bound_svd(op, cutoff, hclass, HARD, GRID))
    bias_cutoffs = [6, 9, 14, 21, 32, 48]
    bias_svd = [empirical_bias_svd(sc_tent, op, cutoff, scan_class, scan_star,
                                   HARD, bias_variant="squared_loss")
                for cutoff in bias_cutoffs]
    c_slope_svd = slope_of(cutoffs, lipschitz_svd)
    k_slope_svd = slope_of(cutoffs, bounds_svd)
    a_slope_svd = slope_of(bias_cutoffs, bias_svd)

    elapsed = time.perf_counter() - started
    checks = {
        "deconv c": (c_slope, -2.0, 0.3),
        "deconv K": (k_slope, -2.5, 0.3),
        "deconv a": (a_slope, 2.0, 0.4),
        "svd c": (c_slope_svd, 1.0, 0.3),
        "svd K": (k_slope_svd, 1.5, 0.3),
        "svd a": (a_slope_svd, -2.0, 0.4),
    }
    ok = all(abs(v - target) <= tol for v, target, tol in checks.values()) \
        and elapsed < 300.0
    detail = ", ".join(f"{k}={v:+.2f} (want {t:+.1f}+-{tol})"
                       for k, (v, t, tol) in checks.items())
    report("criterion-5 structural scaling", ok,
           detail + f", runtime {elapsed:.0f}s (< 300s)", started)
    assert ok


def _load_preset(name):
    with open(os.path.join(PRESET_DIR, name)) as fh:
        doc = json.load(fh)
    validate_config(doc)
    return doc


def _plan_from_config(doc, seed):
    return replace(_read_plan(ConfigReader(doc)), base_seed=seed)


def test_criterion_6_rate_slopes():
    """Monte-Carlo excess-risk slopes track the theory at desk scale."""
    started = time.perf_counter()
    laplace_doc = _load_preset("laplace-linear.json")
    dirac_doc = _load_preset("dirac-linear.json")
    svd_doc = _load_preset("svd-linear.json")
    laplace_plan = _plan_from_config(laplace_doc, laplace_doc["seed"])
    dirac_plan = _plan_from_config(dirac_doc, dirac_doc["seed"])
    svd_plan = _plan_from_config(svd_doc, svd_doc["seed"])

    laplace = run_rate_experiment(laplace_plan)
    dirac = run_rate_experiment(dirac_plan)
    svd = run_rate_experiment(svd_plan)
    elapsed = time.perf_counter() - started

    dirac_target = -rate_exponent(dirac_plan.rate_config, "direct")
    laplace_target = -hard_loss_exponent(1.0, 2.0, 1, 2.0)
    # the svd exponent is a guaranteed rate, not a sharp one: one-sided check,
    # the whole confidence interval of the slope at or below the bound
    svd_bound = -rate_exponent(svd_plan.rate_config, "svd")
    ok_a = abs(dirac.slope - dirac_target) <= 0.2
    ok_b = laplace.slope < 0 and abs(laplace.slope - laplace_target) <= 0.2
    ok_c = dirac.slope <= laplace.slope - 0.05
    ok_d = svd.slope + svd.slope_half_width <= svd_bound
    ok = ok_a and ok_b and ok_c and ok_d and elapsed < 1800.0
    report("criterion-6 rate slopes", ok,
           f"dirac={dirac.slope:+.3f} (want {dirac_target:+.3f}+-0.2), "
           f"laplace={laplace.slope:+.3f} (want {laplace_target:+.3f}+-0.2), "
           f"gap={dirac.slope - laplace.slope:+.3f} (<= -0.05), "
           f"svd={svd.slope:+.3f}+-{svd.slope_half_width:.3f} (upper end <= {svd_bound:+.3f}), "
           f"runtime {elapsed:.0f}s (< 1800s)", started)
    assert ok


def test_criterion_7_exponent_calculator():
    """Exponent arithmetic: reference values, backend equality, monotonicity."""
    started = time.perf_counter()
    minimax = hard_loss_exponent(1.0, 1.0, 1, 2.0)
    ok_value = abs(minimax - 0.25) < 1e-12

    violations = 0
    kappas = (1.5, 2.0, 3.0, 5.0)
    rhos = (0.2, 0.4, 0.6, 0.8)
    gammas = (0.5, 1.0, 2.0, 4.0)
    betas = (0.5, 1.0, 2.0, 4.0)
    matched_ok = True
    for k in kappas:
        for r in rhos:
            for g in gammas:
                for b in betas:
                    cfg = RateConfig(kappa=k, rho=r, gamma=g, beta_bar=b)
                    e = rate_exponent(cfg, "deconv")
                    if rate_exponent(cfg, "svd") != e:
                        matched_ok = False
                    up_b = rate_exponent(RateConfig(kappa=k, rho=r, gamma=g,
                                                    beta_bar=b + 0.5), "deconv")
                    up_r = rate_exponent(RateConfig(kappa=k, rho=min(r + 0.1, 0.95),
                                                    gamma=g, beta_bar=b), "deconv")
                    up_g = rate_exponent(RateConfig(kappa=k, rho=r, gamma=1.5 * g,
                                                    beta_bar=b), "deconv")
                    up_k = rate_exponent(RateConfig(kappa=k + 0.5, rho=r, gamma=g,
                                                    beta_bar=b), "deconv")
                    # decreasing in the ill-posedness and complexity exponents,
                    # increasing in smoothness; the Bernstein direction follows
                    # the margin: smaller kappa (larger margin alpha) is faster
                    if not (up_b < e and up_r < e and up_g > e and up_k < e):
                        violations += 1
    alphas = (0.5, 1.0, 2.0, 4.0)
    margin_vals = [hard_loss_exponent(a, 1.0, 1, 1.0) for a in alphas]
    margin_ok = all(b > a for a, b in zip(margin_vals, margin_vals[1:]))

    ok = ok_value and matched_ok and violations == 0 and margin_ok
    report("criterion-7 exponent calculator", ok,
           f"minimax value={minimax:.6f} (want 0.25), backend formulas equal, "
           f"monotonicity violations={violations}/256 "
           "(beta/rho decreasing, gamma/margin increasing; note: the display "
           "decreases in kappa, the margin direction is tested via alpha)",
           started)
    assert ok


def test_criterion_8_determinism(tmp_path):
    """Identical config and seed reproduce rates.csv byte for byte."""
    started = time.perf_counter()
    doc = _load_preset("laplace-linear.json")
    doc = dict(doc)
    doc["n_grid"] = [256, 512, 1024, 2048]
    doc["replications"] = 30
    config_path = tmp_path / "determinism.json"
    config_path.write_text(json.dumps(doc, indent=2))
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    code_a = cli_run(str(config_path), out_dir=out_a, threads=1)
    code_b = cli_run(str(config_path), out_dir=out_b, threads=1)
    bytes_a = (tmp_path / "a" / "rates.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "rates.csv").read_bytes()
    summary_a = (tmp_path / "a" / "summary.json").read_bytes()
    summary_b = (tmp_path / "b" / "summary.json").read_bytes()
    ok = code_a == 0 and code_b == 0 and bytes_a == bytes_b \
        and summary_a == summary_b
    report("criterion-8 determinism", ok,
           f"exit codes ({code_a}, {code_b}), rates.csv identical={bytes_a == bytes_b}, "
           f"summary.json identical={summary_a == summary_b}", started)
    assert ok
