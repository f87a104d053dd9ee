import warnings

import numpy as np
import pytest
from scipy.signal import fftconvolve

from indirect_erm import (
    ConfigurationError,
    DataError,
    NoisySample,
    SpectralOperator,
    ThresholdClassifier,
    build_lattice,
    dirac_noise,
    empirical_risk,
    laplace_noise,
    make_margin_scenario,
    modified_loss_deconv,
    modified_loss_svd,
    plug_in_density,
)
from indirect_erm.erm import RateConfig, select_bandwidth
from indirect_erm.grid import trapezoid_weights
from indirect_erm.hypotheses import IntervalClassifier, loss_values, snap_to_cell_midpoint
from indirect_erm import noisy_risk
from indirect_erm.noisy_risk import (
    base_smoothed_density,
    contaminated_density,
    svd_loss_coefficients,
)
from indirect_erm.operators import contaminate, sample_density
from indirect_erm.simulation import generate_sample

from oracles import naive_empirical_risk


@pytest.fixture(scope="module")
def laplace_lattice(grid):
    return build_lattice(grid, laplace_noise(2.0), 0.2)


# ---------------------------------------------------------------------------
# modified loss tables (kernel backend)
# ---------------------------------------------------------------------------

def test_lattice_spacing_builds_weights_and_offsets(grid):
    # one spacing: the domain's, which built the nodes, the weights and the
    # kernel offsets
    lattice = build_lattice(grid, laplace_noise(2.0), 0.2)
    assert lattice.spacing == grid.spacing
    assert np.array_equal(lattice.weights,
                          trapezoid_weights(len(lattice.nodes), lattice.spacing))
    m = len(lattice.nodes) - 1
    assert np.array_equal(lattice.kernel.offsets[0], lattice.spacing * np.arange(-m, m + 1))


def test_zero_loss_table_is_zero(laplace_lattice, hard_loss):
    # classifier predicting 1 everywhere has zero loss at label 1
    clf = IntervalClassifier(laplace_lattice.nodes[0] - 1.0,
                             laplace_lattice.nodes[-1] + 1.0)
    table = modified_loss_deconv(clf, hard_loss, laplace_lattice, labels=(1,))
    assert np.abs(table.values[1]).max() == 0.0


def test_constant_loss_table_near_one(grid, hard_loss):
    # loss identically 1: the table reproduces the windowed kernel mass
    lattice = build_lattice(grid, dirac_noise(), 0.05)
    clf = IntervalClassifier(lattice.nodes[0] - 1.0, lattice.nodes[-1] + 1.0,
                             orientation=-1)  # predicts 0 everywhere
    table = modified_loss_deconv(clf, hard_loss, lattice, labels=(1,))
    interior = (lattice.nodes >= 0.25) & (lattice.nodes <= 0.75)
    assert np.abs(table.values[1][interior] - 1.0).max() < 0.02


def test_expected_table_matches_base_smoothing(grid, hard_loss):
    # MC mean of the table under the contaminated law equals the quadrature
    # of the raw loss against the base-smoothed density (3 sigma band)
    noise = laplace_noise(2.0)
    sc = make_margin_scenario(1, noise, grid=grid)
    lattice = build_lattice(grid, noise, 0.2)
    clf = ThresholdClassifier(snap_to_cell_midpoint(0.4, grid))
    table = modified_loss_deconv(clf, hard_loss, lattice, labels=(1,))

    rng = np.random.default_rng(8)
    n = 100_000
    x = sample_density(sc.density_values(1), grid, n, rng)
    z = contaminate(x, noise, rng)
    mc_vals = table.evaluate(z, 1)

    w = trapezoid_weights(len(lattice.nodes), lattice.spacing)
    lv = loss_values(clf, hard_loss, 1, lattice.nodes)
    smoothed = base_smoothed_density(sc, lattice, 1)
    exact = float(np.dot(w, lv * smoothed))
    se = mc_vals.std(ddof=1) / np.sqrt(n)
    assert abs(mc_vals.mean() - exact) < 3.0 * se + 1e-4


def test_base_scaled_built_once_on_first_use(grid, monkeypatch):
    original = noisy_risk.build_deconvolution_kernel
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(noisy_risk, "build_deconvolution_kernel", counting)
    lam = 0.25
    lattice = build_lattice(grid, laplace_noise(2.0), lam)
    assert len(calls) == 1  # only the noise-corrected kernel
    first = lattice.base_scaled
    assert len(calls) == 2
    assert lattice.base_scaled is first
    assert len(calls) == 2
    direct = original(lattice.kernel, dirac_noise(), lam)
    np.testing.assert_array_equal(first.values[0], direct.values[0])
    np.testing.assert_array_equal(first.offsets[0], lattice.kernel.offsets[0])
    assert first.bandwidth == lam and first.base_kind == lattice.kernel.base_kind


def test_spectrum_built_once_per_lattice(grid, hard_loss, monkeypatch):
    original = noisy_risk.rfftn
    lengths = []

    def counting(values, *args):
        lengths.append(len(values))
        return original(values, *args)

    monkeypatch.setattr(noisy_risk, "rfftn", counting)
    lattice = build_lattice(grid, laplace_noise(2.0), 0.25)
    assert lengths == []  # built on first use
    plug_in_density(np.array([0.3, 0.6]), lattice)
    modified_loss_deconv(ThresholdClassifier(0.5), hard_loss, lattice)
    plug_in_density(np.array([0.4]), lattice)
    # one kernel transform, then one per convolved node function (1 + 2 + 1)
    assert lengths.count(len(lattice.kernel.values[0])) == 1
    assert lengths.count(len(lattice.nodes)) == 4
    assert lattice.spectrum is lattice.spectrum


def _binned(z, nodes):
    """Linear-binning weights of the draws z on the nodes, summing to 1."""
    h = nodes[1] - nodes[0]
    idx = np.clip(np.searchsorted(nodes, z) - 1, 0, len(nodes) - 2)
    frac = (z - nodes[idx]) / h
    out = np.zeros(len(nodes))
    np.add.at(out, idx, 1.0 - frac)
    np.add.at(out, idx + 1, frac)
    return out / len(z)


@pytest.mark.parametrize("source", ["plug_in", "table_row"])
def test_convolve_matches_fftconvolve(laplace_lattice, hard_loss, source):
    lattice = laplace_lattice
    if source == "plug_in":
        z = np.random.default_rng(8).normal(0.5, 0.3, 500)
        values = _binned(z, lattice.nodes)
    else:
        values = lattice.weights * loss_values(ThresholdClassifier(0.4), hard_loss, 1,
                                               lattice.nodes)
    expected = fftconvolve(values, lattice.kernel.values[0], mode="valid")
    got = lattice.convolve(values)
    assert got.shape == (len(lattice.nodes),)
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("labels", [[0, -1, 1], [0, 2, 1], [0.0, 0.5, 1.0]])
def test_labels_outside_binary_rejected(labels):
    with pytest.raises(DataError):
        NoisySample(z=[0.1, 0.2, 0.3], y=labels)


def test_empty_sample_rejected():
    with pytest.raises(DataError):
        NoisySample(z=np.array([]), y=np.array([], dtype=int))


def test_table_clamps_out_of_range(laplace_lattice, hard_loss):
    clf = ThresholdClassifier(0.5)
    table = modified_loss_deconv(clf, hard_loss, laplace_lattice)
    far = np.array([laplace_lattice.nodes[-1] + 5.0])
    assert table.evaluate(far, 1)[0] == table.values[1][-1]


def test_table_csv_export(tmp_path, laplace_lattice, hard_loss):
    table = modified_loss_deconv(ThresholdClassifier(0.5), hard_loss, laplace_lattice)
    path = tmp_path / "table.csv"
    table.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "label,z,value"


# ---------------------------------------------------------------------------
# empirical risk and the plug-in identity
# ---------------------------------------------------------------------------

def test_empirical_risk_single_observation(laplace_lattice, hard_loss):
    table = modified_loss_deconv(ThresholdClassifier(0.5), hard_loss, laplace_lattice)
    sample = NoisySample(z=np.array([0.37]), y=np.array([1]))
    expected = table.evaluate(np.array([0.37]), 1)[0]
    assert empirical_risk(table, sample) == pytest.approx(expected, abs=1e-15)


def test_empirical_risk_duplication_invariance(laplace_lattice, hard_loss, rng):
    table = modified_loss_deconv(ThresholdClassifier(0.5), hard_loss, laplace_lattice)
    z = rng.random(40)
    y = (rng.random(40) < 0.5).astype(int)
    once = empirical_risk(table, NoisySample(z=z, y=y))
    twice = empirical_risk(table, NoisySample(z=np.tile(z, 2), y=np.tile(y, 2)))
    assert abs(once - twice) < 1e-12


def test_missing_label_table(laplace_lattice, hard_loss):
    table = modified_loss_deconv(ThresholdClassifier(0.5), hard_loss,
                                 laplace_lattice, labels=(1,))
    sample = NoisySample(z=np.array([0.2]), y=np.array([0]))
    with pytest.raises(DataError):
        empirical_risk(table, sample)


def test_plug_in_equivalence(grid, hard_loss, laplace_lattice):
    # table path == plug-in path == naive per-observation quadrature
    sc = make_margin_scenario(1, laplace_noise(2.0), grid=grid)
    rng = np.random.default_rng(21)
    w = trapezoid_weights(len(laplace_lattice.nodes), laplace_lattice.spacing)
    for trial in range(5):
        sample = generate_sample(sc, 50, rng)
        clf = ThresholdClassifier(snap_to_cell_midpoint(rng.random(), grid))
        table = modified_loss_deconv(clf, hard_loss, laplace_lattice)
        table_path = empirical_risk(table, sample)
        plug_path = 0.0
        for label in (0, 1):
            z_lab = sample.z[sample.y == label]
            if z_lab.size == 0:
                continue
            fhat = plug_in_density(z_lab, laplace_lattice)
            lv = loss_values(clf, hard_loss, label, laplace_lattice.nodes)
            plug_path += (z_lab.size / sample.n) * float(np.dot(w, lv * fhat))
        naive = naive_empirical_risk(clf, hard_loss, laplace_lattice, sample)
        assert abs(table_path - plug_path) < 1e-10
        assert abs(table_path - naive) < 1e-10


def test_plug_in_density_single_dirac_draw(grid):
    # one observation: the estimate is the interpolated kernel column
    lattice = build_lattice(grid, dirac_noise(), 0.1)
    z0 = 0.5
    fhat = plug_in_density(np.array([z0]), lattice)
    expected = lattice.kernel.evaluate(z0 - lattice.nodes)
    assert np.abs(fhat - expected).max() < 1e-12


def test_plug_in_density_windowed_mass(grid, rng):
    lattice = build_lattice(grid, laplace_noise(2.0), 0.3)
    z = rng.random(500)
    fhat = plug_in_density(z, lattice)
    w = trapezoid_weights(len(lattice.nodes), lattice.spacing)
    # windowed normalization: exact up to the truncated oscillatory tails
    assert abs(float(np.dot(w, fhat)) - 1.0) < 0.05


def test_plug_in_density_logs_clamped_draws(laplace_lattice, caplog, monkeypatch):
    # out-of-lattice draws are counted and logged: WARNING once, DEBUG after
    monkeypatch.setattr(noisy_risk, "_clamp_seen", False)
    z = np.array([laplace_lattice.nodes[0] - 1.0, 0.5, laplace_lattice.nodes[-1] + 1.0])
    with caplog.at_level("DEBUG", logger="indirect_erm.noisy_risk"):
        plug_in_density(z, laplace_lattice)
        plug_in_density(z, laplace_lattice)
        plug_in_density(np.array([0.5]), laplace_lattice)
    records = [r for r in caplog.records if "clamping" in r.getMessage()]
    assert [r.levelname for r in records] == ["WARNING", "DEBUG"]
    assert "clamping 2 observation(s)" in records[0].getMessage()


def test_contaminated_density_evaluates_only_the_domain(grid):
    # the smooth family's powers are undefined left of the domain; the
    # zero extension must never evaluate them there
    noise = laplace_noise(2.0)
    sc = make_margin_scenario(1, noise, family="smooth", gamma=2.0, sharpness=1.3, grid=grid)
    lattice = build_lattice(grid, noise, 0.2)
    w = trapezoid_weights(len(lattice.nodes), lattice.spacing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for label in sc.labels:
            g = contaminated_density(sc, lattice, label)
            assert np.all(np.isfinite(g))
            # the padding holds all but the noise tails beyond four sigma
            assert abs(float(np.dot(w, g)) - 1.0) < 0.01


def test_noise_correction_beats_plain_smoothing(grid):
    # mean integrated squared error against the true uniform density,
    # paired draws: corrected estimate vs plain base-kernel smoothing
    noise = laplace_noise(2.0)
    cfg = RateConfig(kappa=2.0, rho=0.5, gamma=1.0, beta_bar=2.0,
                     bias_variant="general")
    n = 10_000
    lam = select_bandwidth(cfg, n)
    lattice = build_lattice(grid, noise, lam)
    rng = np.random.default_rng(4)
    x = rng.random(n)
    z = contaminate(x, noise, rng)
    inside = (lattice.nodes >= 0.0) & (lattice.nodes <= 1.0)
    truth = np.where(inside, 1.0, 0.0)
    w = trapezoid_weights(len(lattice.nodes), lattice.spacing)

    corrected = plug_in_density(z, lattice)
    mise_corrected = float(np.dot(w, (corrected - truth) ** 2))

    plain = np.zeros(len(lattice.nodes))
    base_vals = lattice.base_scaled.values[0]
    off = lattice.base_scaled.offsets[0]
    from scipy.signal import fftconvolve

    h = lattice.spacing
    idx = np.clip(np.searchsorted(lattice.nodes, z) - 1, 0, len(lattice.nodes) - 2)
    frac = (z - lattice.nodes[idx]) / h
    binned = np.zeros(len(lattice.nodes))
    np.add.at(binned, idx, 1.0 - frac)
    np.add.at(binned, idx + 1, frac)
    plain = fftconvolve(binned / n, base_vals, mode="valid")
    mise_plain = float(np.dot(w, (plain - truth) ** 2))

    assert mise_corrected < mise_plain


# ---------------------------------------------------------------------------
# spectral backend
# ---------------------------------------------------------------------------

def test_svd_zero_loss_table(grid, hard_loss):
    op = SpectralOperator(decay=1.0, k_max=64)
    clf = IntervalClassifier(-1.0, 2.0)  # zero loss at label 1
    table = modified_loss_svd(clf, hard_loss, op, 16, grid, labels=(1,))
    assert np.abs(table.values[1]).max() < 1e-12


def test_svd_coefficients_closed_form(grid, hard_loss):
    # hard loss of a threshold at label 1 is the indicator of [0, t]
    op = SpectralOperator(decay=1.0, k_max=64)
    t = snap_to_cell_midpoint(0.37, grid)
    clf = ThresholdClassifier(t)
    c = svd_loss_coefficients(clf, hard_loss, op, 12, grid, 1)
    k = np.arange(1, 13)
    exact = np.sqrt(2.0) * np.sin(np.pi * k * t) / (np.pi * k)
    assert abs(c[0] - t) < 1e-12
    assert np.abs(c[1:] - exact).max() < 1e-12


def test_svd_cutoff_validation(grid, hard_loss):
    op = SpectralOperator(decay=1.0, k_max=8)
    with pytest.raises(ConfigurationError):
        modified_loss_svd(ThresholdClassifier(0.5), hard_loss, op, 9, grid)


def test_svd_table_converges_to_raw_loss(grid, hard_loss):
    # identity operator: the table converges to the raw loss in mean square
    op = SpectralOperator(decay=0.0, k_max=64)
    t = snap_to_cell_midpoint(0.5, grid)
    clf = ThresholdClassifier(t)
    x, w = grid.axis(), grid.weights()
    raw = loss_values(clf, hard_loss, 1, x)
    errs = []
    for cutoff in (8, 16, 32, 64):
        table = modified_loss_svd(clf, hard_loss, op, cutoff, grid, labels=(1,))
        errs.append(float(np.dot(w, (table.values[1] - raw) ** 2)))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.01


def test_svd_plug_in_identity(grid, hard_loss, rng):
    # empirical risk over the table equals the coefficient pairing
    op = SpectralOperator(decay=1.0, k_max=64)
    cutoff = 12
    clf = ThresholdClassifier(snap_to_cell_midpoint(0.45, grid))
    table = modified_loss_svd(clf, hard_loss, op, cutoff, grid)
    z = rng.random(200)
    y = (rng.random(200) < 0.5).astype(int)
    sample = NoisySample(z=z, y=y)
    direct = empirical_risk(table, sample)
    paired = 0.0
    inv_b = 1.0 / op.singular_values[: cutoff + 1]
    for label in (0, 1):
        z_lab = z[y == label]
        if z_lab.size == 0:
            continue
        c = svd_loss_coefficients(clf, hard_loss, op, cutoff, grid, label)
        moments = op.basis(z_lab, cutoff).mean(axis=1)
        paired += (z_lab.size / len(z)) * float(np.dot(c * inv_b, moments))
    assert abs(direct - paired) < 1e-10


# ---------------------------------------------------------------------------
# restricted loss
# ---------------------------------------------------------------------------

def test_restricted_full_window_equals_unrestricted(laplace_lattice, hard_loss):
    clf = ThresholdClassifier(0.5)
    full = modified_loss_deconv(clf, hard_loss, laplace_lattice)
    restricted = modified_loss_deconv(
        clf, hard_loss, laplace_lattice,
        window=(laplace_lattice.nodes[0], laplace_lattice.nodes[-1]))
    for label in (0, 1):
        assert np.array_equal(full.values[label], restricted.values[label])


def test_restricted_vanishing_integrand(grid, hard_loss):
    # loss supported right of the window: restricted table is exactly zero
    lattice = build_lattice(grid, laplace_noise(2.0), 0.2)
    clf = ThresholdClassifier(0.5)  # loss at label 0 lives on (0.5, 1]
    table = modified_loss_deconv(clf, hard_loss, lattice, labels=(0,), window=(0.0, 0.5))
    assert np.abs(table.values[0]).max() == 0.0


def test_restricted_monotone_with_base_kernel(grid, hard_loss):
    # with the noise-free kernel, growing the window changes the table by
    # at most the absolute kernel mass over the added region
    lattice = build_lattice(grid, dirac_noise(), 0.1)
    clf = ThresholdClassifier(snap_to_cell_midpoint(0.4, grid), orientation=-1)
    small = modified_loss_deconv(clf, hard_loss, lattice, labels=(1,), window=(0.2, 0.5))
    big = modified_loss_deconv(clf, hard_loss, lattice, labels=(1,), window=(0.1, 0.7))
    w = trapezoid_weights(len(lattice.nodes), lattice.spacing)
    added = ((lattice.nodes >= 0.1) & (lattice.nodes < 0.2)) | \
            ((lattice.nodes > 0.5) & (lattice.nodes <= 0.7))
    bound = 0.0
    for z in (0.3, 0.45):
        cols = lattice.kernel.evaluate(z - lattice.nodes)
        bound = max(bound, float(np.sum(w[added] * np.abs(cols[added]))))
        iz = np.argmin(np.abs(lattice.nodes - z))
        assert small.values[1][iz] <= big.values[1][iz] + bound + 1e-9


def test_restricted_empty_window(laplace_lattice, hard_loss):
    with pytest.raises(ConfigurationError):
        modified_loss_deconv(ThresholdClassifier(0.5), hard_loss, laplace_lattice,
                             window=(0.5, 0.2))


# ---------------------------------------------------------------------------
# identity reduction at vanishing smoothing
# ---------------------------------------------------------------------------

def test_identity_reduction_dirac_small_bandwidth(grid, hard_loss):
    sc = make_margin_scenario(1, dirac_noise(), grid=grid)
    h = grid.spacing
    lattice = build_lattice(grid, dirac_noise(), 4.0 * h)
    clf = IntervalClassifier(snap_to_cell_midpoint(0.3, grid),
                             snap_to_cell_midpoint(0.7, grid))
    sample = generate_sample(sc, 2000, np.random.default_rng(2))
    table = modified_loss_deconv(clf, hard_loss, lattice)
    smoothed = empirical_risk(table, sample)
    direct = float(np.mean([
        loss_values(clf, hard_loss, int(yi), np.array([zi]))[0]
        for zi, yi in zip(sample.z, sample.y)
    ]))
    assert abs(smoothed - direct) < 0.02
