import numpy as np
import pytest

from indirect_erm import (
    ConfigurationError,
    HypothesisClass,
    RateConfig,
    SpectralOperator,
    ThresholdClassifier,
    build_lattice,
    dirac_noise,
    laplace_noise,
    make_margin_scenario,
    threshold_grid,
)
from indirect_erm.diagnostics import (
    _loss_distance_sq,
    _max_loss_l2,
    bernstein_ratio,
    empirical_bias_deconv,
    empirical_bias_svd,
    empirical_lipschitz,
    empirical_modulus,
    fit_rate_slope,
    hard_loss_exponent,
    rate_exponent,
    sup_bound_deconv,
    sup_bound_svd,
    table_sup,
)
from indirect_erm.erm import DeconvolutionBackend, SvdBackend
from indirect_erm.errors import DataError
from indirect_erm.hypotheses import (
    _TENT_CROSSING,
    Scenario,
    bayes_in_class,
    loss_values,
    snap_to_cell_midpoint,
    structural_pair_priors,
)
from indirect_erm.noisy_risk import modified_loss_deconv
from indirect_erm.simulation import generate_sample

from oracles import (
    mixed_threshold_class,
    naive_bias_deconv,
    naive_bias_svd,
    reference_loss_distance_sq,
    reference_svd_losses,
    reference_true_risk,
)


def cfg(**kw):
    base = dict(kappa=2.0, rho=0.5, gamma=1.0, beta_bar=1.0, dim=1)
    base.update(kw)
    return RateConfig(**base)


# ---------------------------------------------------------------------------
# exponent arithmetic
# ---------------------------------------------------------------------------

def test_exponent_reference_values():
    assert rate_exponent(cfg(), "deconv") == pytest.approx(2.0 / 6.5)
    assert rate_exponent(cfg(beta_bar=0.0), "deconv") == pytest.approx(
        rate_exponent(cfg(beta_bar=0.0), "direct"))
    assert rate_exponent(cfg(), "svd") == rate_exponent(cfg(), "deconv")
    assert hard_loss_exponent(1.0, 1.0, 1, 2.0) == pytest.approx(0.25)
    assert hard_loss_exponent(1.0, 2.0, 1, 2.0) == pytest.approx(4.0 / 11.0)


def test_hard_loss_mode_uses_margin_mapping():
    # kappa = 2 corresponds to margin alpha = 1
    c = cfg(gamma=2.0, beta_bar=2.0)
    assert rate_exponent(c, "hard_loss") == pytest.approx(4.0 / 11.0)


def test_exponent_guards():
    with pytest.raises(ConfigurationError):
        rate_exponent(cfg(), "tikhonov")
    with pytest.raises(ConfigurationError):
        hard_loss_exponent(-1.0, 1.0, 1, 0.0)


def test_exponent_monotonicity_lattice():
    # strictly decreasing in beta and rho, increasing in gamma; in the
    # Bernstein parameter the display decreases (larger kappa = weaker
    # margin = slower rate), equivalently it increases in the margin alpha
    kappas = (1.5, 2.0, 3.0, 5.0)
    rhos = (0.2, 0.4, 0.6, 0.8)
    gammas = (0.5, 1.0, 2.0, 4.0)
    betas = (0.5, 1.0, 2.0, 4.0)
    for k in kappas:
        for r in rhos:
            for g in gammas:
                for b in betas:
                    e = rate_exponent(cfg(kappa=k, rho=r, gamma=g, beta_bar=b), "deconv")
                    e_b = rate_exponent(cfg(kappa=k, rho=r, gamma=g, beta_bar=b + 0.5), "deconv")
                    e_r = rate_exponent(cfg(kappa=k, rho=min(r + 0.1, 0.95), gamma=g, beta_bar=b), "deconv")
                    e_g = rate_exponent(cfg(kappa=k, rho=r, gamma=g * 1.5, beta_bar=b), "deconv")
                    e_k = rate_exponent(cfg(kappa=k + 0.5, rho=r, gamma=g, beta_bar=b), "deconv")
                    assert e_b < e
                    assert e_r < e
                    assert e_g > e
                    assert e_k < e
    # margin direction: larger alpha (stronger margin) speeds the rate
    alphas = (0.5, 1.0, 2.0, 4.0)
    vals = [hard_loss_exponent(a, 1.0, 1, 1.0) for a in alphas]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# slope fitting
# ---------------------------------------------------------------------------

def test_slope_exact_power_law():
    ns = np.array([100, 400, 1600, 6400])
    pts = [(n, float(n) ** (-0.25), 0.0) for n in ns]
    slope, _ = fit_rate_slope(pts)
    assert abs(slope + 0.25) < 1e-10


def test_slope_two_points_closed_form():
    slope, half = fit_rate_slope([(100, 0.5, 0.0), (400, 0.25, 0.0)])
    assert slope == pytest.approx(np.log(0.5) / np.log(4.0))
    assert np.isnan(half)  # no residual degrees of freedom


def test_slope_noisy_recovery():
    rng = np.random.default_rng(0)
    ns = np.array([256, 512, 1024, 2048, 4096, 8192, 16384])
    errs = []
    for _ in range(100):
        means = ns ** (-0.364) * np.exp(rng.normal(0.0, 0.05, size=ns.size))
        ses = 0.05 * means
        slope, _ = fit_rate_slope(list(zip(ns, means, ses)))
        errs.append(slope + 0.364)
    assert np.abs(np.mean(errs)) < 0.05
    assert np.abs(errs).max() < 0.15


def test_slope_drops_nonpositive_means():
    pts = [(100, 0.5, 0.01), (400, 0.0, 0.01), (1600, 0.125, 0.01)]
    slope, _ = fit_rate_slope(pts)
    assert slope == pytest.approx(np.log(0.25) / np.log(16.0))
    with pytest.raises(DataError):
        fit_rate_slope([(100, 0.0, 0.0), (200, -1.0, 0.0)])


def test_slope_counts_dropped_points_from_a_generator(caplog):
    pts = [(100, 0.5, 0.01), (400, 0.0, 0.01), (1600, 0.125, 0.01)]
    with caplog.at_level("WARNING", logger="indirect_erm.diagnostics"):
        slope, _ = fit_rate_slope(p for p in pts)
    assert slope == pytest.approx(np.log(0.25) / np.log(16.0))
    assert "dropping 1 nonpositive mean point(s)" in caplog.text


# ---------------------------------------------------------------------------
# measured structural constants (light versions; heavy runs in acceptance)
# ---------------------------------------------------------------------------

def test_lipschitz_near_identity_for_dirac(grid):
    sc = make_margin_scenario(1, dirac_noise(), grid=grid)
    h = grid.spacing
    lattice = build_lattice(grid, dirac_noise(), 4.0 * h)
    hclass = threshold_grid(11, grid)
    backend = DeconvolutionBackend(lattice=lattice)
    pairs = [(i, i + 2) for i in range(0, 8)]
    ratios = empirical_lipschitz(sc, backend, hclass, pairs,
                                 generate_sample(sc, 20_000, np.random.default_rng(2)))
    assert np.all(np.abs(ratios - 1.0) < 0.1)


def test_lipschitz_skips_degenerate_pairs(grid):
    sc = make_margin_scenario(1, dirac_noise(), grid=grid)
    lattice = build_lattice(grid, dirac_noise(), 0.05)
    hclass = threshold_grid(9, grid)
    backend = DeconvolutionBackend(lattice=lattice)
    sample = generate_sample(sc, 100, np.random.default_rng(0))
    ratios = empirical_lipschitz(sc, backend, hclass, [(0, 0), (2, 6), (3, 3)], sample)
    assert ratios.size == 1
    # no pair left to measure: an error, not an empty array
    with pytest.raises(DataError):
        empirical_lipschitz(sc, backend, hclass, [(0, 0), (3, 3)], sample)
    with pytest.raises(DataError):
        empirical_lipschitz(sc, backend, hclass, [], sample)


def test_loss_distances_use_the_backend_loss(grid):
    # under nu_y the raw hard-loss distance of two thresholds is the root of
    # their gap; the regularized one is the backend's losses at the draws
    sc = make_margin_scenario(1, laplace_noise(2.0), grid=grid)
    lattice = build_lattice(grid, laplace_noise(2.0), 0.25)
    hclass = threshold_grid(9, grid)
    backend = DeconvolutionBackend(lattice=lattice)
    pairs = [(0, 4), (2, 6), (3, 4)]
    sample = generate_sample(sc, 5000, np.random.default_rng(3))
    ratios = empirical_lipschitz(sc, backend, hclass, pairs, sample)
    assert ratios.size == 3
    num_sq = np.zeros(len(pairs))
    for label in sc.labels:
        values = backend.losses(hclass, label, sample.z[sample.y == label])
        num_sq += [np.sum((values[i] - values[j]) ** 2) for i, j in pairs]
    gaps = np.array([hclass[j].threshold - hclass[i].threshold for i, j in pairs])
    np.testing.assert_allclose(ratios, np.sqrt(num_sq / sample.n / gaps), rtol=1e-12, atol=0.0)
    # a modulus ball narrower than the closest pair's raw distance holds no pair
    closest = np.sqrt(min(b.threshold - a.threshold for a, b in zip(hclass, hclass[1:])))
    assert empirical_modulus(sc, backend, hclass, 0.99 * closest, 400, 4, seed=3) == 0.0
    assert empirical_modulus(sc, backend, hclass, 1.01 * closest, 400, 4, seed=3) > 0.0


def test_loss_distances_match_reference_quadrature(grid):
    # priors summing to 1 - 1e-10: each distance carries p0 + p1, not 1
    sc = Scenario(priors=(0.3, 0.7 - 1e-10), densities="linear", contamination=dirac_noise(),
                  domain=grid)
    hclass = mixed_threshold_class(grid)
    i, j = np.triu_indices(len(hclass), 1)
    ref = [reference_loss_distance_sq(sc, hclass[a], hclass[b]) for a, b in zip(i, j)]
    assert np.abs(_loss_distance_sq(sc, hclass, i, j) - ref).max() <= 1e-15
    x, w = grid.axis(), grid.weights()
    for cls in (hclass, HypothesisClass(tuple(c for c in hclass if 0.0 < c.threshold < 0.9))):
        norms = [np.dot(w, loss_values(c, y, x)) for c in cls for y in (0, 1)]
        assert abs(_max_loss_l2(cls, grid) - np.sqrt(max(norms))) <= 1e-15


def test_bernstein_ratio_matches_per_classifier_loop(grid):
    sc = make_margin_scenario(1, dirac_noise(), x_star=0.3, grid=grid)
    hclass = mixed_threshold_class(grid)
    star, _, _ = bayes_in_class(hclass, sc)
    risks = [reference_true_risk(c, sc) for c in hclass]
    ref = max(reference_loss_distance_sq(sc, c, hclass[star])
              / (r - risks[star]) ** (1.0 / sc.kappa)
              for c, r in zip(hclass, risks) if r - risks[star] > 1e-8)
    assert bernstein_ratio(sc, hclass, star) == pytest.approx(ref, rel=1e-12)


def test_table_sup_matches_reference_tables(grid):
    def sup(tables):
        return max(np.abs(v).max() for t in tables for v in t.values.values())

    hclass = threshold_grid(9, grid)
    lattice = build_lattice(grid, laplace_noise(2.0), 0.25)
    # here the largest loss is the loss 1's row minus a table row (3.38 against 3.15)
    left = HypothesisClass(tuple(ThresholdClassifier(t) for t in (0.05, 0.1)))
    for cls in (hclass, left):
        ref = sup(modified_loss_deconv(c, lattice) for c in cls)
        assert table_sup(DeconvolutionBackend(lattice=lattice),
                         cls) == pytest.approx(ref, rel=1e-12)
    op = SpectralOperator(decay=1.0, k_max=64)
    ref = max(np.abs(reference_svd_losses(c, y, grid.axis(), op, 8, grid)).max()
              for c in hclass for y in (0, 1))
    svd = SvdBackend(operator=op, cutoff=8, grid=grid)
    assert table_sup(svd, hclass) == pytest.approx(ref, rel=1e-12)


def test_sup_bound_scalings(grid):
    hclass = threshold_grid(11, grid)
    noise = laplace_noise(2.0)
    lams = np.array([0.2, 0.1, 0.05])
    vals = []
    for lam in lams:
        backend = DeconvolutionBackend(lattice=build_lattice(grid, noise, lam))
        vals.append(sup_bound_deconv(backend, hclass))
    slope = np.polyfit(np.log(lams), np.log(vals), 1)[0]
    assert abs(slope + 2.5) < 0.3

    op = SpectralOperator(decay=1.0, k_max=64)
    ns = np.array([8, 16, 32, 64])
    svals = [sup_bound_svd(SvdBackend(operator=op, cutoff=n, grid=grid), hclass)
             for n in ns]
    sslope = np.polyfit(np.log(ns), np.log(svals), 1)[0]
    assert abs(sslope - 1.5) < 0.3


@pytest.mark.parametrize("variant", ["squared_loss", "general"])
def test_bias_deconv_matches_per_classifier_quadrature(grid, variant):
    # the laplace-diagnose benchmark's scenario, class and bandwidths
    noise = laplace_noise(2.0)
    sc = make_margin_scenario(1, noise, family="smooth", gamma=2.0, grid=grid, sharpness=1.3)
    hclass = threshold_grid(33, grid)
    star, _, _ = bayes_in_class(hclass, sc)
    for lam in (0.1, 0.15, 0.22, 0.33, 0.5):
        lattice = build_lattice(grid, noise, lam, base_kind="order_m_flat_top")
        got = empirical_bias_deconv(sc, DeconvolutionBackend(lattice=lattice),
                                    hclass, star, variant)
        ref = naive_bias_deconv(sc, lattice, hclass, star, variant)
        assert ref > 0
        assert got == pytest.approx(ref, rel=1e-12, abs=0)


@pytest.mark.parametrize("variant", ["squared_loss", "general"])
def test_bias_svd_matches_coefficient_pairing(grid, variant):
    op = SpectralOperator(decay=1.0, k_max=64)
    sc = Scenario(priors=structural_pair_priors(), densities="tent_pair", contamination=op,
                  alpha=1.0, gamma=1.0, domain=grid)
    # thresholds around the crossing, where the bias is not floored at zero
    hclass = HypothesisClass(tuple(
        ThresholdClassifier(snap_to_cell_midpoint(_TENT_CROSSING + 0.002 * j, grid))
        for j in range(-8, 9)))
    for cutoff in (6, 14, 32, 48):
        svd = SvdBackend(operator=op, cutoff=cutoff, grid=grid)
        ref = naive_bias_svd(sc, cutoff, hclass, 8, variant)
        assert ref > 0
        assert abs(empirical_bias_svd(sc, svd, hclass, 8, variant) - ref) < 1e-12


def test_bias_vanishes_for_dirac_small_bandwidth(grid):
    sc = make_margin_scenario(1, dirac_noise(), grid=grid)
    lattice = build_lattice(grid, dirac_noise(), 6.0 * grid.spacing)
    hclass = threshold_grid(21, grid)
    star, _, _ = bayes_in_class(hclass, sc)
    value = empirical_bias_deconv(sc, DeconvolutionBackend(lattice=lattice),
                                  hclass, star)
    assert value <= 0.02


def test_bias_variant_outside_choices_rejected(grid):
    sc = make_margin_scenario(1, dirac_noise(), grid=grid)
    hclass = threshold_grid(5, grid)
    deconv = DeconvolutionBackend(lattice=build_lattice(grid, dirac_noise(), 0.25))
    op = SpectralOperator(decay=1.0, k_max=16)
    sc_svd = make_margin_scenario(1, op, grid=grid)
    svd = SvdBackend(operator=op, cutoff=8, grid=grid)
    with pytest.raises(ConfigurationError):
        empirical_bias_deconv(sc, deconv, hclass, 2, bias_variant="cubic")
    with pytest.raises(ConfigurationError):
        empirical_bias_svd(sc_svd, svd, hclass, 2, bias_variant="cubic")


def test_bernstein_ratio_linear_scenario(grid):
    # margin construction: the ratio is finite and stable under refinement
    sc = make_margin_scenario(1, dirac_noise(), grid=grid)
    vals = []
    for count in (11, 101):
        hclass = threshold_grid(count, grid)
        star, _, _ = bayes_in_class(hclass, sc)
        vals.append(bernstein_ratio(sc, hclass, star))
    assert vals[0] > 0 and vals[1] > 0
    assert max(vals) / min(vals) < 2.0


def test_bernstein_singleton_and_guard(grid):
    sc = make_margin_scenario(1, dirac_noise(), grid=grid)
    lone = HypothesisClass((ThresholdClassifier(0.5),))
    assert bernstein_ratio(sc, lone, 0) == 0.0
    degenerate = Scenario(priors=(0.5, 0.5), densities="linear",
                          contamination=dirac_noise(), alpha=float("inf"),
                          domain=grid)
    with pytest.raises(ConfigurationError):
        bernstein_ratio(degenerate, lone, 0)


def test_modulus_zero_delta_and_nesting(grid):
    sc = make_margin_scenario(1, laplace_noise(2.0), grid=grid)
    lattice = build_lattice(grid, laplace_noise(2.0), 0.25)
    hclass = threshold_grid(9, grid)
    backend = DeconvolutionBackend(lattice=lattice)
    zero = empirical_modulus(sc, backend, hclass, 0.0, 200, 3, seed=1)
    assert zero == 0.0
    small = empirical_modulus(sc, backend, hclass, 0.3, 400, 8, seed=1)
    large = empirical_modulus(sc, backend, hclass, 1.0, 400, 8, seed=1)
    assert small <= large + 0.02


def test_modulus_svd_route(grid):
    op = SpectralOperator(decay=1.0, k_max=64)
    sc = make_margin_scenario(1, op, grid=grid)
    hclass = threshold_grid(7, grid)
    backend = SvdBackend(operator=op, cutoff=8, grid=grid)
    value = empirical_modulus(sc, backend, hclass, 0.6, 300, 5, seed=4)
    assert value > 0.0 and np.isfinite(value)


def test_modulus_root_n_scaling(grid):
    sc = make_margin_scenario(1, laplace_noise(2.0), grid=grid)
    lattice = build_lattice(grid, laplace_noise(2.0), 0.25)
    hclass = threshold_grid(9, grid)
    backend = DeconvolutionBackend(lattice=lattice)
    ns = np.array([200, 800, 3200])
    vals = np.array([
        empirical_modulus(sc, backend, hclass, 0.6, int(n), 30, seed=7)
        for n in ns
    ])
    slope = np.polyfit(np.log(ns), np.log(vals), 1)[0]
    assert abs(slope + 0.5) < 0.3
