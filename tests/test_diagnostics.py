import numpy as np
import pytest

from indirect_erm import (
    ConfigurationError,
    HypothesisClass,
    LossSpec,
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
from indirect_erm.hypotheses import Scenario, bayes_in_class
from indirect_erm.noisy_risk import modified_loss_deconv, modified_loss_svd


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

def test_lipschitz_near_identity_for_dirac(grid, hard_loss):
    sc = make_margin_scenario(1, dirac_noise(), grid=grid)
    h = grid.spacing
    lattice = build_lattice(grid, dirac_noise(), 4.0 * h)
    hclass = threshold_grid(11, grid)
    backend = DeconvolutionBackend(lattice=lattice, loss=hard_loss)
    pairs = [(i, i + 2) for i in range(0, 8)]
    ratios = empirical_lipschitz(sc, backend, hclass, pairs, 20_000, seed=2)
    assert np.all(np.abs(ratios - 1.0) < 0.1)


def test_lipschitz_skips_degenerate_pairs(grid, hard_loss):
    sc = make_margin_scenario(1, dirac_noise(), grid=grid)
    lattice = build_lattice(grid, dirac_noise(), 0.05)
    hclass = threshold_grid(9, grid)
    backend = DeconvolutionBackend(lattice=lattice, loss=hard_loss)
    ratios = empirical_lipschitz(sc, backend, hclass, [(0, 0), (2, 6), (3, 3)], 100, seed=0)
    assert ratios.size == 1
    # no pair left to measure: an error, not an empty array
    with pytest.raises(DataError):
        empirical_lipschitz(sc, backend, hclass, [(0, 0), (3, 3)], 100, seed=0)
    with pytest.raises(DataError):
        empirical_lipschitz(sc, backend, hclass, [], 100, seed=0)


def test_loss_distances_use_the_backend_loss(grid, hard_loss):
    # the hinge clipped at 0.5 is half the hard loss for 0/1 predictions:
    # regularized and raw loss distances halve alike, so the ratios agree
    sc = make_margin_scenario(1, laplace_noise(2.0), grid=grid)
    lattice = build_lattice(grid, laplace_noise(2.0), 0.25)
    hclass = threshold_grid(9, grid)
    hard = DeconvolutionBackend(lattice=lattice, loss=hard_loss)
    half = DeconvolutionBackend(lattice=lattice, loss=LossSpec("hinge_clipped", clip=0.5))
    pairs = [(0, 4), (2, 6), (3, 4)]
    r_hard = empirical_lipschitz(sc, hard, hclass, pairs, 5000, seed=3)
    r_half = empirical_lipschitz(sc, half, hclass, pairs, 5000, seed=3)
    assert r_hard.size == 3
    np.testing.assert_allclose(r_half, r_hard, rtol=1e-12, atol=0.0)
    m_hard = empirical_modulus(sc, hard, hclass, 0.6, 400, 4, seed=3)
    m_half = empirical_modulus(sc, half, hclass, 0.3, 400, 4, seed=3)
    assert m_hard > 0.0
    assert m_half == pytest.approx(0.5 * m_hard, rel=1e-12)


def test_unknown_mu_rejected(grid, hard_loss):
    sc = make_margin_scenario(1, dirac_noise(), grid=grid)
    hclass = threshold_grid(9, grid)
    backend = DeconvolutionBackend(lattice=build_lattice(grid, dirac_noise(), 0.05),
                                   loss=hard_loss)
    star, _, _ = bayes_in_class(hclass, sc, hard_loss)
    with pytest.raises(ConfigurationError):
        bernstein_ratio(sc, hclass, star, hard_loss, mu="P")
    with pytest.raises(ConfigurationError):
        empirical_lipschitz(sc, backend, hclass, [(2, 6)], 500, seed=1, mu="P")
    with pytest.raises(ConfigurationError):
        empirical_modulus(sc, backend, hclass, 0.6, 100, 1, seed=1, mu="lebesgue")


def test_table_sup_matches_reference_tables(grid, hard_loss):
    def sup(tables):
        return max(np.abs(v).max() for t in tables for v in t.values.values())

    hclass = threshold_grid(9, grid)
    lattice = build_lattice(grid, laplace_noise(2.0), 0.25)
    ref = sup(modified_loss_deconv(c, hard_loss, lattice) for c in hclass)
    assert table_sup(DeconvolutionBackend(lattice=lattice, loss=hard_loss), hclass) == ref
    op = SpectralOperator(decay=1.0, k_max=64)
    ref = sup(modified_loss_svd(c, hard_loss, op, 8, grid) for c in hclass)
    svd = SvdBackend(operator=op, cutoff=8, grid=grid, loss=hard_loss)
    assert table_sup(svd, hclass) == pytest.approx(ref, rel=1e-12)


def test_sup_bound_scalings(grid, hard_loss):
    hclass = threshold_grid(11, grid)
    noise = laplace_noise(2.0)
    lams = np.array([0.2, 0.1, 0.05])
    vals = []
    for lam in lams:
        lattice = build_lattice(grid, noise, lam)
        vals.append(sup_bound_deconv(lattice, hclass, hard_loss, grid))
    slope = np.polyfit(np.log(lams), np.log(vals), 1)[0]
    assert abs(slope + 2.5) < 0.3

    op = SpectralOperator(decay=1.0, k_max=64)
    ns = np.array([8, 16, 32, 64])
    svals = [sup_bound_svd(op, n, hclass, hard_loss, grid) for n in ns]
    sslope = np.polyfit(np.log(ns), np.log(svals), 1)[0]
    assert abs(sslope - 1.5) < 0.3


def test_bias_vanishes_for_dirac_small_bandwidth(grid, hard_loss):
    sc = make_margin_scenario(1, dirac_noise(), grid=grid)
    lattice = build_lattice(grid, dirac_noise(), 6.0 * grid.spacing)
    hclass = threshold_grid(21, grid)
    star, _, _ = bayes_in_class(hclass, sc, hard_loss)
    value = empirical_bias_deconv(sc, lattice, hclass, star, hard_loss)
    assert value <= 0.02


def test_bias_variant_outside_choices_rejected(grid, hard_loss):
    sc = make_margin_scenario(1, dirac_noise(), grid=grid)
    hclass = threshold_grid(5, grid)
    lattice = build_lattice(grid, dirac_noise(), 0.25)
    op = SpectralOperator(decay=1.0, k_max=16)
    sc_svd = make_margin_scenario(1, op, grid=grid)
    with pytest.raises(ConfigurationError):
        empirical_bias_deconv(sc, lattice, hclass, 2, hard_loss, bias_variant="cubic")
    with pytest.raises(ConfigurationError):
        empirical_bias_svd(sc_svd, op, 8, hclass, 2, hard_loss, bias_variant="cubic")


def test_bernstein_ratio_linear_scenario(grid, hard_loss):
    # margin construction: the ratio is finite and stable under refinement
    sc = make_margin_scenario(1, dirac_noise(), grid=grid)
    vals = []
    for count in (11, 101):
        hclass = threshold_grid(count, grid)
        star, _, _ = bayes_in_class(hclass, sc, hard_loss)
        vals.append(bernstein_ratio(sc, hclass, star, hard_loss))
    assert vals[0] > 0 and vals[1] > 0
    assert max(vals) / min(vals) < 2.0


def test_bernstein_singleton_and_guard(grid, hard_loss):
    sc = make_margin_scenario(1, dirac_noise(), grid=grid)
    lone = HypothesisClass((ThresholdClassifier(0.5),))
    assert bernstein_ratio(sc, lone, 0, hard_loss) == 0.0
    degenerate = Scenario(priors=(0.5, 0.5), densities="linear",
                          contamination=dirac_noise(), alpha=float("inf"),
                          domain=grid)
    with pytest.raises(ConfigurationError):
        bernstein_ratio(degenerate, lone, 0, hard_loss)


def test_modulus_zero_delta_and_nesting(grid, hard_loss):
    sc = make_margin_scenario(1, laplace_noise(2.0), grid=grid)
    lattice = build_lattice(grid, laplace_noise(2.0), 0.25)
    hclass = threshold_grid(9, grid)
    backend = DeconvolutionBackend(lattice=lattice, loss=hard_loss)
    zero = empirical_modulus(sc, backend, hclass, 0.0, 200, 3, seed=1)
    assert zero == 0.0
    small = empirical_modulus(sc, backend, hclass, 0.3, 400, 8, seed=1)
    large = empirical_modulus(sc, backend, hclass, 1.0, 400, 8, seed=1)
    assert small <= large + 0.02


def test_modulus_svd_route(grid, hard_loss):
    op = SpectralOperator(decay=1.0, k_max=64)
    sc = make_margin_scenario(1, op, grid=grid)
    hclass = threshold_grid(7, grid)
    backend = SvdBackend(operator=op, cutoff=8, grid=grid, loss=hard_loss)
    value = empirical_modulus(sc, backend, hclass, 0.6, 300, 5, seed=4)
    assert value > 0.0 and np.isfinite(value)


def test_joint_law_weighting_option(grid, hard_loss):
    # mu = "p" weights loss distances by the conditional densities
    sc = make_margin_scenario(1, dirac_noise(), grid=grid)
    lattice = build_lattice(grid, dirac_noise(), 0.05)
    hclass = threshold_grid(9, grid)
    backend = DeconvolutionBackend(lattice=lattice, loss=hard_loss)
    pairs = [(2, 6)]
    r_nu = empirical_lipschitz(sc, backend, hclass, pairs, 5000, seed=1, mu="nu_y")
    r_p = empirical_lipschitz(sc, backend, hclass, pairs, 5000, seed=1, mu="p")
    assert r_nu.size == 1 and r_p.size == 1 and r_p[0] != r_nu[0]
    star, _, _ = bayes_in_class(hclass, sc, hard_loss)
    assert bernstein_ratio(sc, hclass, star, hard_loss, mu="p") > 0.0


def test_modulus_root_n_scaling(grid, hard_loss):
    sc = make_margin_scenario(1, laplace_noise(2.0), grid=grid)
    lattice = build_lattice(grid, laplace_noise(2.0), 0.25)
    hclass = threshold_grid(9, grid)
    backend = DeconvolutionBackend(lattice=lattice, loss=hard_loss)
    ns = np.array([200, 800, 3200])
    vals = np.array([
        empirical_modulus(sc, backend, hclass, 0.6, int(n), 30, seed=7)
        for n in ns
    ])
    slope = np.polyfit(np.log(ns), np.log(vals), 1)[0]
    assert abs(slope + 0.5) < 0.3
