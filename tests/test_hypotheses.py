from fractions import Fraction

import numpy as np
import pytest

from indirect_erm import (
    ConfigurationError,
    HypothesisClass,
    ModelError,
    Scenario,
    SpectralOperator,
    ThresholdClassifier,
    bayes_in_class,
    dirac_noise,
    laplace_noise,
    make_margin_scenario,
    threshold_grid,
    true_risk,
)
from indirect_erm.hypotheses import _beta_4, loss_values, snap_to_cell_midpoint, true_risks
from indirect_erm.simulation import generate_sample

from oracles import (
    linear_threshold_risk,
    mixed_threshold_class,
    reference_basis,
    reference_true_risk,
    smooth_threshold_risk,
)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def test_hard_loss_values():
    clf = ThresholdClassifier(0.5)  # predicts 1 at 0.7 and 0 at 0.3
    assert loss_values(clf, 1, np.array([0.7])) == 0.0
    assert loss_values(clf, 1, np.array([0.3])) == 1.0
    assert loss_values(clf, 0, np.array([0.7])) == 1.0


def test_label_out_of_range():
    with pytest.raises(ConfigurationError):
        loss_values(ThresholdClassifier(0.5), 2, np.array([0.7]))


def test_losses_bounded(grid):
    x = grid.axis()
    clf = ThresholdClassifier(0.37)
    for label in (0, 1):
        vals = loss_values(clf, label, x)
        assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_hard_loss_difference_identity(grid):
    # |l(g,y) - l(g',y)| equals the symmetric-difference indicator, any y
    x = grid.axis()
    g1, g2 = ThresholdClassifier(0.3), ThresholdClassifier(0.6)
    ind = np.abs(g1.predict(x) - g2.predict(x))
    for label in (0, 1):
        diff = np.abs(loss_values(g1, label, x) - loss_values(g2, label, x))
        assert np.array_equal(diff, ind)


# ---------------------------------------------------------------------------
# scenarios and risks
# ---------------------------------------------------------------------------

def test_uniform_scenario_risk_is_half(grid, hard_loss):
    sc = Scenario(priors=(0.5, 0.5), densities="uniform",
                  contamination=dirac_noise(), domain=grid)
    for t in (0.1, 0.5, 0.9):
        clf = ThresholdClassifier(snap_to_cell_midpoint(t, grid))
        assert abs(true_risk(clf, sc, hard_loss) - 0.5) < 1e-9


def test_linear_scenario_threshold_risk(grid, linear_scenario, hard_loss):
    for t in (0.1, 0.25, 0.5, 0.77, 0.9):
        snapped = snap_to_cell_midpoint(t, grid)
        risk = true_risk(ThresholdClassifier(snapped), linear_scenario, hard_loss)
        assert abs(risk - linear_threshold_risk(snapped)) < 1e-6


def test_predict_one_everywhere_risk_is_prior(grid, hard_loss):
    sc = make_margin_scenario(1, dirac_noise(), x_star=0.3, grid=grid)
    everywhere = ThresholdClassifier(grid.lower - 1.0)  # predicts 1 on the domain
    assert abs(true_risk(everywhere, sc, hard_loss) - sc.priors[0]) < 1e-6


def test_smooth_scenario_risks_match_beta_cdf(grid, hard_loss):
    sc = make_margin_scenario(1, dirac_noise(), family="smooth", grid=grid)
    for t in (0.21, 0.5, 0.68):
        snapped = snap_to_cell_midpoint(t, grid)
        risk = true_risk(ThresholdClassifier(snapped), sc, hard_loss)
        assert abs(risk - smooth_threshold_risk(snapped)) < 5e-6
    # frozen value at the crossing
    mid = snap_to_cell_midpoint(0.5, grid)
    assert abs(true_risk(ThresholdClassifier(mid), sc, hard_loss) - 0.36328125) < 5e-6


@pytest.mark.parametrize("m", [0.25, 0.5, 1.0, 1.3, 2.0, 3.0, 7.5])
def test_smooth_normalizer_is_beta(m):
    from scipy.special import beta

    q = Fraction(m)
    exact = Fraction(6) / ((4 + q) * (5 + q) * (6 + q) * (7 + q))
    got = _beta_4(m)
    assert abs(Fraction(got) - exact) <= Fraction(1e-15) * exact
    # scipy's beta is itself off the exact value in the last bits (1.7e-15
    # relative at m = 1.3); the closed form is within 1e-15 of it beyond that
    ref = beta(4.0 + m, 4.0)
    assert abs(Fraction(got) - Fraction(ref)) <= abs(Fraction(ref) - exact) + Fraction(1e-15) * exact


def test_densities_integrate_to_one(grid):
    for family, params in (("linear", {}), ("smooth", {"sharpness": 1.3}),
                           ("tent_pair", {})):
        sc = Scenario(priors=(0.5, 0.5), densities=family,
                      contamination=dirac_noise(), domain=grid,
                      density_params=params)
        for label in (0, 1):
            mass = grid.integrate(sc.density_values(label))
            assert abs(mass - 1.0) < 1e-5


def test_bayes_in_class_linear(grid, linear_scenario):
    hclass = threshold_grid(101, grid)
    idx, star, risk = bayes_in_class(hclass, linear_scenario)
    assert abs(star.threshold - 0.5) < grid.spacing
    assert abs(risk - 0.25) < 1e-6


def test_bayes_singleton_and_ties(grid, linear_scenario):
    lone = HypothesisClass((ThresholdClassifier(0.3),))
    idx, star, _ = bayes_in_class(lone, linear_scenario)
    assert idx == 0
    dup = HypothesisClass((ThresholdClassifier(0.5), ThresholdClassifier(0.5)))
    idx, _, _ = bayes_in_class(dup, linear_scenario)
    assert idx == 0  # lowest index on exact ties


def test_hypothesis_class_hashed_once():
    class CountingThreshold(ThresholdClassifier):
        calls = 0

        def __hash__(self):
            type(self).calls += 1
            return super().__hash__()

    clfs = tuple(CountingThreshold(t) for t in (0.2, 0.4, 0.6))
    a = HypothesisClass(clfs)
    assert CountingThreshold.calls == 3
    b = HypothesisClass(tuple(CountingThreshold(t) for t in (0.2, 0.4, 0.6)))
    assert a is not b and a == b and hash(a) == hash(b)
    calls = CountingThreshold.calls
    cache = {(a, 1): "rows"}
    assert cache.get((b, 1)) == "rows"  # a value-equal class hits the cache
    assert CountingThreshold.calls == calls


def test_excess_risk_nonnegative(grid, linear_scenario, hard_loss):
    hclass = threshold_grid(31, grid)
    _, _, best = bayes_in_class(hclass, linear_scenario)
    for clf in hclass:
        assert true_risk(clf, linear_scenario, hard_loss) - best >= -1e-9


def test_risk_bounds(grid, hard_loss):
    sc = make_margin_scenario(1, laplace_noise(2.0), family="smooth", grid=grid,
                              sharpness=1.3)
    for t in np.linspace(0.05, 0.95, 7):
        r = true_risk(ThresholdClassifier(snap_to_cell_midpoint(t, grid)), sc, hard_loss)
        assert 0.0 <= r <= 1.0


# ---------------------------------------------------------------------------
# margin scenario construction
# ---------------------------------------------------------------------------

def test_margin_scenario_crossing_shift(grid):
    sc = make_margin_scenario(1, dirac_noise(), x_star=0.3, grid=grid)
    hclass = threshold_grid(801, grid)
    _, star, _ = bayes_in_class(hclass, sc)
    assert abs(star.threshold - 0.3) < 0.005
    assert abs(sc.kappa - 2.0) < 1e-12


def test_margin_scenario_validation():
    with pytest.raises(ConfigurationError):
        make_margin_scenario(2, dirac_noise())
    with pytest.raises(ConfigurationError):
        make_margin_scenario(1, dirac_noise(), x_star=0.0)
    with pytest.raises(ConfigurationError):
        make_margin_scenario(1, dirac_noise(), family="smooth", gamma=4.0)
    with pytest.raises(ModelError):
        Scenario(priors=(0.7, 0.7), densities="linear", contamination=dirac_noise())


def test_margin_proportion_linear(grid):
    # P(|2 eta - 1| <= t) is at most (1 + 0.1) t for the linear member
    sc = make_margin_scenario(1, dirac_noise(), grid=grid)
    sample = generate_sample(sc, 100_000, np.random.default_rng(3))
    x = np.concatenate(sample.groups)  # dirac noise: Z = X
    eta = x  # equal priors: regression equals the identity
    for t in (0.1, 0.2, 0.4):
        prop = float(np.mean(np.abs(2.0 * eta - 1.0) <= t))
        assert prop <= 1.1 * t


def test_scenario_json_reads_each_contamination(grid):
    # the scenario a config block describes, for each contamination kind
    for block, contamination in (({"kind": "laplace", "beta": 4}, laplace_noise(4.0)),
                                 ({"kind": "dirac"}, dirac_noise()),
                                 ({"kind": "svd_operator", "beta": 1.0}, SpectralOperator(1.0))):
        doc = {"priors": [0.4, 0.6], "densities": "smooth", "contamination": block,
               "alpha": 1.0, "gamma": 2.0, "density_params": {"sharpness": 1.3},
               "grid": {"points": grid.points_per_dim}}
        assert Scenario.from_json(doc) == Scenario(
            priors=(0.4, 0.6), densities="smooth", contamination=contamination, alpha=1.0,
            gamma=2.0, domain=grid, density_params={"sharpness": 1.3})


def test_scenario_json_reads_density_params_per_family(grid):
    doc = {"priors": [0.5, 0.5], "densities": "smooth", "contamination": {"kind": "dirac"},
           "alpha": 1.0, "gamma": 1.0, "density_params": {"sharpness": 2.0},
           "grid": {"lower": [grid.lower], "upper": [grid.upper], "points": grid.points_per_dim}}
    assert Scenario.from_json(doc).density_params == {"sharpness": 2.0}
    assert Scenario.from_json(dict(doc, density_params={})).density_params == {}
    # a misspelt key, a key the family does not read, and a wrong type
    for densities, params in (("smooth", {"sharpnes": 2.0}), ("linear", {"sharpness": 2.0}),
                              ("uniform", {"sharpness": 1.0}), ("smooth", {"sharpness": "2"})):
        with pytest.raises(ConfigurationError):
            Scenario.from_json(dict(doc, densities=densities, density_params=params))


@pytest.mark.parametrize("window", [None, (0.2, 0.7)])
@pytest.mark.parametrize("family", ["linear", "smooth", "tent_pair"])
def test_true_risks_match_reference_quadrature(grid, hard_loss, family, window):
    if family == "tent_pair":
        sc = Scenario(priors=(0.3, 0.7), densities="tent_pair", contamination=dirac_noise(),
                      domain=grid)
    else:
        sc = make_margin_scenario(1, laplace_noise(2.0), x_star=0.3, family=family, grid=grid,
                                  sharpness=1.0 if family == "linear" else 2.0)
    hclass = mixed_threshold_class(grid)
    risks = true_risks(hclass, sc, window)
    ref = [reference_true_risk(c, sc, window) for c in hclass]
    assert np.abs(risks - ref).max() <= 1e-15
    # each risk is a lookup into tables the class does not enter: the
    # one-classifier risk is the same number, bit for bit
    assert [true_risk(c, sc, hard_loss, window) for c in hclass] == risks.tolist()


def test_risk_outside_unit_interval_is_model_error(grid):
    # priors the scenario check would refuse, set past it: a risk above
    # 1 + 1e-9 is an error, not clamped to 1
    sc = Scenario(priors=(0.5, 0.5), densities="uniform", contamination=dirac_noise(),
                  domain=grid)
    object.__setattr__(sc, "priors", (1.5, 0.5))
    with pytest.raises(ModelError):
        true_risks(threshold_grid(5, grid), sc)


def test_smooth_cosine_coefficients_match_direct_cosines(grid):
    # the one basis (Chebyshev recurrence) against sqrt(2) cos(pi k x) per
    # point: 4.2e-16 at most over sharpness 1-3, labels 0 and 1, k_max 64
    sc = make_margin_scenario(1, SpectralOperator(1.0, 64), family="smooth", grid=grid,
                              sharpness=1.3)
    x, w = grid.axis(), grid.weights()
    for label in (0, 1):
        ref = reference_basis(x, 64) @ (w * sc.density(label, x))
        assert np.abs(sc.cosine_coefficients(label, 64) - ref).max() <= 1e-14


def test_restricted_true_risk(grid, linear_scenario, hard_loss):
    clf = ThresholdClassifier(snap_to_cell_midpoint(0.5, grid))
    full = true_risk(clf, linear_scenario, hard_loss)
    left = true_risk(clf, linear_scenario, hard_loss, window=(0.0, 0.5))
    right = true_risk(clf, linear_scenario, hard_loss, window=(0.5, 1.0))
    assert abs((left + right) - full) < 1e-6
    with pytest.raises(ConfigurationError):
        true_risk(clf, linear_scenario, hard_loss, window=(0.7, 0.2))
