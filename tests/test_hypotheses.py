from fractions import Fraction

import numpy as np
import pytest

from indirect_erm import (
    ConfigurationError,
    HypothesisClass,
    IntervalClassifier,
    LossSpec,
    ModelError,
    Scenario,
    SpectralOperator,
    ThresholdClassifier,
    bayes_in_class,
    dirac_noise,
    laplace_noise,
    loss_eval,
    make_margin_scenario,
    threshold_grid,
    true_risk,
)
from indirect_erm.hypotheses import _beta_4, loss_values, snap_to_cell_midpoint
from indirect_erm.simulation import generate_sample

from oracles import linear_threshold_risk, smooth_threshold_risk


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def test_hard_loss_values():
    loss = LossSpec("hard")
    assert loss_eval(loss, 1.0, 1) == 0.0
    assert loss_eval(loss, 0.0, 1) == 1.0
    assert loss_eval(loss, 1.0, 0) == 1.0


def test_label_out_of_range():
    with pytest.raises(ConfigurationError):
        loss_eval(LossSpec("hard"), 1.0, 2)


def test_losses_bounded(grid):
    x = grid.axis()
    clf = ThresholdClassifier(0.37)
    for kind in ("hard", "hinge_clipped", "quadratic_clipped"):
        loss = LossSpec(kind)
        for label in (0, 1):
            vals = loss_values(clf, loss, label, x)
            assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_hard_loss_difference_identity(grid):
    # |l(g,y) - l(g',y)| equals the symmetric-difference indicator, any y
    x = grid.axis()
    loss = LossSpec("hard")
    g1, g2 = ThresholdClassifier(0.3), ThresholdClassifier(0.6)
    ind = np.abs(g1.predict(x) - g2.predict(x))
    for label in (0, 1):
        diff = np.abs(loss_values(g1, loss, label, x) - loss_values(g2, loss, label, x))
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
    everywhere = IntervalClassifier(-1.0, 2.0)  # predicts 1 on the domain
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


def test_bayes_in_class_linear(grid, linear_scenario, hard_loss):
    hclass = threshold_grid(101, grid)
    idx, star, risk = bayes_in_class(hclass, linear_scenario, hard_loss)
    assert abs(star.threshold - 0.5) < grid.spacing
    assert abs(risk - 0.25) < 1e-6


def test_bayes_singleton_and_ties(grid, linear_scenario, hard_loss):
    lone = HypothesisClass((ThresholdClassifier(0.3),))
    idx, star, _ = bayes_in_class(lone, linear_scenario, hard_loss)
    assert idx == 0
    dup = HypothesisClass((ThresholdClassifier(0.5), ThresholdClassifier(0.5)))
    idx, _, _ = bayes_in_class(dup, linear_scenario, hard_loss)
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
    _, _, best = bayes_in_class(hclass, linear_scenario, hard_loss)
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

def test_margin_scenario_crossing_shift(grid, hard_loss):
    sc = make_margin_scenario(1, dirac_noise(), x_star=0.3, grid=grid)
    hclass = threshold_grid(801, grid)
    _, star, _ = bayes_in_class(hclass, sc, hard_loss)
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
    x = sample.z  # dirac noise: Z = X
    eta = x  # equal priors: regression equals the identity
    for t in (0.1, 0.2, 0.4):
        prop = float(np.mean(np.abs(2.0 * eta - 1.0) <= t))
        assert prop <= 1.1 * t


def test_scenario_json_roundtrip(grid):
    for cont in (laplace_noise(4.0), dirac_noise(), SpectralOperator(decay=1.0)):
        sc = Scenario(priors=(0.4, 0.6), densities="smooth", contamination=cont,
                      alpha=1.0, gamma=2.0, domain=grid,
                      density_params={"sharpness": 1.3})
        back = Scenario.loads(sc.dumps())
        assert back.priors == sc.priors
        assert back.densities == sc.densities
        assert back.gamma == sc.gamma
        assert back.density_params == sc.density_params
        x = grid.axis()
        assert np.allclose(back.density(1, x), sc.density(1, x))
        assert type(back.contamination) is type(sc.contamination)


def test_scenario_json_reads_density_params_per_family(grid):
    doc = Scenario(priors=(0.5, 0.5), densities="smooth", contamination=dirac_noise(),
                   domain=grid, density_params={"sharpness": 2.0}).to_json()
    assert Scenario.from_json(doc).density_params == {"sharpness": 2.0}
    assert Scenario.from_json(dict(doc, density_params={})).density_params == {}
    # a misspelt key, a key the family does not read, and a wrong type
    for densities, params in (("smooth", {"sharpnes": 2.0}), ("linear", {"sharpness": 2.0}),
                              ("uniform", {"sharpness": 1.0}), ("smooth", {"sharpness": "2"})):
        with pytest.raises(ConfigurationError):
            Scenario.from_json(dict(doc, densities=densities, density_params=params))


def test_restricted_true_risk(grid, linear_scenario, hard_loss):
    clf = ThresholdClassifier(snap_to_cell_midpoint(0.5, grid))
    full = true_risk(clf, linear_scenario, hard_loss)
    left = true_risk(clf, linear_scenario, hard_loss, window=(0.0, 0.5))
    right = true_risk(clf, linear_scenario, hard_loss, window=(0.5, 1.0))
    assert abs((left + right) - full) < 1e-6
    with pytest.raises(ConfigurationError):
        true_risk(clf, linear_scenario, hard_loss, window=(0.7, 0.2))
