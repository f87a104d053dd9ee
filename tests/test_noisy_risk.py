import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.signal import fftconvolve

from indirect_erm import (
    ConfigurationError,
    DataError,
    DeconvolutionBackend,
    HypothesisClass,
    NoisySample,
    SpectralOperator,
    SvdBackend,
    ThresholdClassifier,
    build_lattice,
    dirac_noise,
    laplace_noise,
    make_margin_scenario,
    modified_loss_deconv,
    plug_in_density,
)
from indirect_erm.erm import RateConfig, empirical_risks, select_bandwidth
from indirect_erm.grid import trapezoid_weights
from indirect_erm.hypotheses import loss_values, snap_to_cell_midpoint
from indirect_erm import noisy_risk
from indirect_erm.noisy_risk import (
    zero_extended_density,
)
from indirect_erm.operators import contaminate, sample_density, sampler_table
from indirect_erm.simulation import generate_sample

from oracles import (
    base_smoothed_density,
    empirical_risk,
    labelled_sample,
    naive_empirical_risk,
    reference_basis,
    reference_labelled_binning,
    reference_loss_coefficients,
    stacked_run_vectors,
)


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


def test_zero_loss_table_is_zero(laplace_lattice):
    # classifier predicting 1 everywhere has zero loss at label 1
    clf = ThresholdClassifier(laplace_lattice.nodes[0] - 1.0)
    table = modified_loss_deconv(clf, laplace_lattice, labels=(1,))
    assert np.abs(table.values[1]).max() == 0.0


def test_constant_loss_table_near_one(grid):
    # loss identically 1: the table reproduces the windowed kernel mass
    lattice = build_lattice(grid, dirac_noise(), 0.05)
    clf = ThresholdClassifier(lattice.nodes[-1] + 1.0)  # predicts 0 everywhere
    table = modified_loss_deconv(clf, lattice, labels=(1,))
    interior = (lattice.nodes >= 0.25) & (lattice.nodes <= 0.75)
    assert np.abs(table.values[1][interior] - 1.0).max() < 0.02


def test_expected_table_matches_base_smoothing(grid):
    # MC mean of the table under the contaminated law equals the quadrature
    # of the raw loss against the base-smoothed density (3 sigma band)
    noise = laplace_noise(2.0)
    sc = make_margin_scenario(1, noise, grid=grid)
    lattice = build_lattice(grid, noise, 0.2)
    clf = ThresholdClassifier(snap_to_cell_midpoint(0.4, grid))
    table = modified_loss_deconv(clf, lattice, labels=(1,))

    rng = np.random.default_rng(8)
    n = 100_000
    x = sample_density(sampler_table(sc.density_values(1), grid), n, rng)
    z = contaminate(x, noise, rng)
    mc_vals = table.evaluate(z, 1)

    w = trapezoid_weights(len(lattice.nodes), lattice.spacing)
    lv = loss_values(clf, 1, lattice.nodes)
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


def test_lattice_inverts_one_table_and_holds_no_offsets(grid, monkeypatch):
    # the base kernel's table is never inverted for a lattice, and its
    # offsets, which no trial reads, are made only when read: a rate trial
    # holds neither array
    from indirect_erm import kernels

    original, inverted = kernels._invert_symbol, []

    def counting(*args):
        inverted.append(len(args[3]))
        return original(*args)

    monkeypatch.setattr(kernels, "_invert_symbol", counting)
    noise = laplace_noise(2.0)
    sc = make_margin_scenario(1, noise, grid=grid)
    lattice = build_lattice(grid, noise, 0.41, base_kind="order_m_flat_top")
    p = len(lattice.nodes)
    assert inverted == [2 * p - 1]
    hclass = HypothesisClass(tuple(ThresholdClassifier(t) for t in (0.3, 0.5, 0.7)))
    empirical_risks(hclass, generate_sample(sc, 500, np.random.default_rng(1)),
                    DeconvolutionBackend(lattice=lattice))
    assert inverted == [2 * p - 1]
    assert "offsets" not in vars(lattice.kernel)
    np.testing.assert_array_equal(lattice.kernel.offsets[0],
                                  grid.spacing * np.arange(-(p - 1), p))


def test_spectra_built_on_use(grid, monkeypatch):
    original = noisy_risk.rfft
    lengths = []

    def counting(values, *args):
        lengths.append(len(values))
        return original(values, *args)

    monkeypatch.setattr(noisy_risk, "rfft", counting)
    lattice = build_lattice(grid, laplace_noise(2.0), 0.25)
    assert lengths == []  # built on first use
    plug_in_density(np.array([0.3, 0.6]), lattice)
    modified_loss_deconv(ThresholdClassifier(0.5), lattice)
    plug_in_density(np.array([0.4]), lattice)
    # per convolution, one kernel transform and one of the node function (1 + 2 + 1)
    assert lengths.count(len(lattice.kernel.values[0])) == 4
    assert lengths.count(len(lattice.nodes)) == 4


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
def test_convolve_matches_fftconvolve(laplace_lattice, source):
    lattice = laplace_lattice
    if source == "plug_in":
        z = np.random.default_rng(8).normal(0.5, 0.3, 500)
        values = _binned(z, lattice.nodes)
    else:
        values = lattice.weights * loss_values(ThresholdClassifier(0.4), 1, lattice.nodes)
    expected = fftconvolve(values, lattice.kernel.values[0], mode="valid")
    got = lattice.convolve(values)
    assert got.shape == (len(lattice.nodes),)
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_expected_features_take_no_transform(grid, monkeypatch):
    # the expected features read the base-scaled kernel's cumulative sum at
    # the run boundaries: no spectrum of it, and none of the densities
    transforms = []

    def counting(*args, _original=noisy_risk.rfft):
        transforms.append(args)
        return _original(*args)

    monkeypatch.setattr(noisy_risk, "rfft", counting)
    monkeypatch.setattr(noisy_risk, "irfft", counting)
    for noise in (laplace_noise(2.0), dirac_noise()):
        sc = make_margin_scenario(1, noise, grid=grid)
        lattice = build_lattice(grid, noise, 0.25)
        hclass = HypothesisClass(tuple(ThresholdClassifier(t) for t in (0.3, 0.5, 0.7)))
        for window in (None, (0.2, 0.7)):
            DeconvolutionBackend(lattice=lattice, window=window).expected_features(hclass, sc)
    assert transforms == []


def test_densities_match_fftconvolve(grid):
    noise = laplace_noise(2.0)
    sc = make_margin_scenario(1, noise, family="smooth", gamma=2.0, sharpness=1.3, grid=grid)
    lattice = build_lattice(grid, noise, 0.2)
    for label in sc.labels:
        f = lattice.weights * zero_extended_density(sc, lattice, label)
        got = base_smoothed_density(sc, lattice, label)
        expected = fftconvolve(f, lattice.base_scaled.values[0], mode="valid")
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_next_fast_len_matches_scipy():
    from scipy.fft import next_fast_len

    targets = range(1, 2 ** 17 + 1)
    assert ([noisy_risk._next_fast_len(t) for t in targets]
            == [next_fast_len(t, True) for t in targets])


@pytest.mark.parametrize("z, y", [
    ([0.1, np.nan, 0.3], [0, 1, 1]),  # made every risk NaN; ``minimize`` picked index 0
    ([0.1, np.inf, 0.3], [0, 1, 1]),
    ([0.1, -np.inf, 0.3], [0, 1, 1]),
    ([[0.1], [0.2], [0.3]], [0, 1, 1]),
])
def test_non_finite_or_multidimensional_observations_rejected(z, y):
    with pytest.raises(DataError):
        labelled_sample(z, y)


def test_grouped_sample_rejects_non_finite_or_empty_groups():
    # a non-finite draw in either group poisons every risk; a sample must
    # hold a draw
    for groups in (([0.1], [np.nan]), ([np.inf], [0.2])):
        with pytest.raises(DataError):
            NoisySample(groups)
    with pytest.raises(DataError):
        NoisySample((np.empty(0), np.empty(0)))


@pytest.mark.parametrize("groups", [
    (np.empty(0), np.empty(0)),
    ([0.1, 0.2, 0.3],),
    ([0.1], [0.2], [0.3]),
], ids=["no-draws", "one-group", "three-groups"])
def test_sample_rejects_bad_groups(groups):
    with pytest.raises(DataError):
        NoisySample(groups)


@pytest.mark.parametrize("groups, counts", [
    (([0.1, 0.3], [0.2]), {0: 2, 1: 1}),
    (([], [0.2]), {0: 0, 1: 1}),  # one label may be absent
    ((np.array([1, 0]), np.empty(0)), {0: 2, 1: 0}),
], ids=["lists", "one-empty", "integers"])
def test_sample_takes_two_groups_as_floats(groups, counts):
    sample = NoisySample(groups)
    assert [z.dtype for z in sample.groups] == [np.float64, np.float64]
    assert sample.counts() == counts and sample.n == sum(counts.values())


def test_table_clamps_out_of_range(laplace_lattice):
    clf = ThresholdClassifier(0.5)
    table = modified_loss_deconv(clf, laplace_lattice)
    far = np.array([laplace_lattice.nodes[-1] + 5.0])
    assert table.evaluate(far, 1)[0] == table.values[1][-1]


# ---------------------------------------------------------------------------
# empirical risk and the plug-in identity
# ---------------------------------------------------------------------------

def test_empirical_risk_single_observation(laplace_lattice):
    table = modified_loss_deconv(ThresholdClassifier(0.5), laplace_lattice)
    sample = NoisySample((np.empty(0), np.array([0.37])))
    expected = table.evaluate(np.array([0.37]), 1)[0]
    assert empirical_risk(table, sample) == pytest.approx(expected, abs=1e-15)


def test_empirical_risk_duplication_invariance(laplace_lattice, rng):
    table = modified_loss_deconv(ThresholdClassifier(0.5), laplace_lattice)
    z = rng.random(40)
    y = (rng.random(40) < 0.5).astype(int)
    once = empirical_risk(table, labelled_sample(z, y))
    twice = empirical_risk(table, labelled_sample(np.tile(z, 2), np.tile(y, 2)))
    assert abs(once - twice) < 1e-12


def test_missing_label_table(laplace_lattice):
    table = modified_loss_deconv(ThresholdClassifier(0.5), laplace_lattice, labels=(1,))
    sample = NoisySample((np.array([0.2]), np.empty(0)))
    with pytest.raises(DataError):
        empirical_risk(table, sample)


def test_plug_in_equivalence(grid, laplace_lattice):
    # table path == plug-in path == naive per-observation quadrature
    sc = make_margin_scenario(1, laplace_noise(2.0), grid=grid)
    rng = np.random.default_rng(21)
    w = trapezoid_weights(len(laplace_lattice.nodes), laplace_lattice.spacing)
    for trial in range(5):
        sample = generate_sample(sc, 50, rng)
        clf = ThresholdClassifier(snap_to_cell_midpoint(rng.random(), grid))
        table = modified_loss_deconv(clf, laplace_lattice)
        table_path = empirical_risk(table, sample)
        plug_path = 0.0
        for label, z_lab in enumerate(sample.groups):
            if z_lab.size == 0:
                continue
            fhat = plug_in_density(z_lab, laplace_lattice)
            lv = loss_values(clf, label, laplace_lattice.nodes)
            plug_path += (z_lab.size / sample.n) * float(np.dot(w, lv * fhat))
        naive = naive_empirical_risk(clf, laplace_lattice, sample)
        assert abs(table_path - plug_path) < 1e-10
        assert abs(table_path - naive) < 1e-10


def test_cells_match_searchsorted(laplace_lattice, rng):
    # the floor index with its two corrections is the searchsorted cell,
    # on every node, on both floating-point neighbours of each node, and
    # on random draws (clamped to the lattice first, as the plug-in does)
    nodes = laplace_lattice.nodes
    z = np.concatenate([nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf),
                        rng.uniform(nodes[0] - 1.0, nodes[-1] + 1.0, 100_000)])
    z = np.clip(z, nodes[0], nodes[-1])
    want = np.clip(np.searchsorted(nodes, z) - 1, 0, len(nodes) - 2)
    got = noisy_risk._cells(z, nodes, laplace_lattice.spacing)
    np.testing.assert_array_equal(got, want)


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


def test_binning_groups_gives_the_bits_of_labelled_binning(laplace_lattice):
    # the groups laid end to end, label 1 one row down, add each node's
    # draws in the order of the interleaved sample, so the rows are equal
    # bit for bit; draws crowd a few cells, sit on nodes and get clamped.
    # Each run vector of the statistic, convolved into its row, gives the
    # bits of fresh arrays
    rng = np.random.default_rng(5)
    nodes = laplace_lattice.nodes
    z = np.concatenate([rng.uniform(0.45, 0.55, 3000), nodes[rng.integers(0, len(nodes), 40)],
                        [nodes[0] - 1.0, nodes[-1] + 2.0]])
    for y in (rng.random(z.size) < 0.4, np.ones(z.size, dtype=int)):  # then label 0 empty
        rng.shuffle(z)
        want = reference_labelled_binning(z, y, laplace_lattice)
        groups = labelled_sample(z, y).groups
        assert np.array_equal(noisy_risk.bin_draws(groups, laplace_lattice), want)
    assert np.array_equal(noisy_risk.bin_draws((z,), laplace_lattice)[0],
                          reference_labelled_binning(z, np.zeros(z.size, dtype=int),
                                                     laplace_lattice)[0])
    one_run = HypothesisClass((ThresholdClassifier(float(nodes[-1]) + 1.0),))
    for window in (None, (0.2, 0.7)):
        for hclass in (HypothesisClass(tuple(ThresholdClassifier(t) for t in (0.3, 0.5, 0.8))),
                       one_run):
            backend = DeconvolutionBackend(lattice=laplace_lattice, window=window)
            assert np.array_equal(backend._signed_runs(hclass)[2],
                                  stacked_run_vectors(backend, hclass))
    assert len(backend._runs(one_run)[1]) == 1


def test_binning_holds_one_copy_of_the_draws(laplace_lattice):
    # the peak holds the 2n cells, the 2n weights and the two binned rows:
    # four vectors of the draws beside the rows. Clamped draws, their cells
    # and their fracs kept beside both concatenations made it seven
    n, p = 16384, len(laplace_lattice.nodes)
    z = np.random.default_rng(6).uniform(-0.5, 1.5, n)
    groups = (z[: n // 3], z[n // 3:])
    noisy_risk.bin_draws(groups, laplace_lattice)
    tracemalloc.start()
    try:
        noisy_risk.bin_draws(groups, laplace_lattice)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * n * 8 + 2 * p * 8


def test_binning_logs_one_clamp_event_for_both_labels(laplace_lattice, caplog, monkeypatch):
    # a sample's two label groups are binned in one call, which logs one
    # event with the clamped count of both
    monkeypatch.setattr(noisy_risk, "_clamp_seen", False)
    lo, hi = laplace_lattice.nodes[[0, -1]]
    sample = NoisySample(([lo - 1.0, 0.5], [hi + 1.0, 0.2, hi + 3.0, lo - 2.0]))
    backend = DeconvolutionBackend(lattice=laplace_lattice)
    with caplog.at_level("DEBUG", logger="indirect_erm.noisy_risk"):
        backend.features(HypothesisClass((ThresholdClassifier(0.5),)), sample)
    records = [r for r in caplog.records if "clamping" in r.getMessage()]
    assert len(records) == 1
    assert "clamping 4 observation(s)" in records[0].getMessage()


def test_sample_is_read_only():
    # the groups are the sample: they cannot be reassigned, and the
    # constructor keeps float arrays as given, without a copy
    z0, z1 = np.array([0.1, 0.3]), np.array([0.2])
    sample = NoisySample((z0, z1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        sample.groups = sample.groups
    assert sample.groups[0] is z0 and sample.groups[1] is z1


def test_base_smoothed_density_evaluates_only_the_domain(grid):
    # the smooth family's powers are undefined left of the domain; the
    # zero extension must never evaluate them there
    noise = laplace_noise(2.0)
    sc = make_margin_scenario(1, noise, family="smooth", gamma=2.0, sharpness=1.3, grid=grid)
    lattice = build_lattice(grid, noise, 0.2)
    w = trapezoid_weights(len(lattice.nodes), lattice.spacing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for label in sc.labels:
            s = base_smoothed_density(sc, lattice, label)
            assert np.all(np.isfinite(s))
            # the lattice cuts off the slowly decaying sinc tails: the mass
            # falls short of 1 by 0.011 for both labels at this bandwidth
            assert abs(float(np.dot(w, s)) - 1.0) < 0.015


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

def test_svd_zero_loss_table(grid):
    op = SpectralOperator(decay=1.0, k_max=64)
    clf = ThresholdClassifier(grid.lower - 1.0)  # zero loss at label 1
    backend = SvdBackend(operator=op, cutoff=16, grid=grid)
    values = backend.losses(HypothesisClass((clf,)), 1, grid.axis())
    assert np.abs(values).max() < 1e-12


def test_svd_coefficients_closed_form(grid):
    # hard loss of a threshold at label 1 is the indicator of [0, t]: the
    # loss 1's coefficients less the class-matrix row, the label-0 loss
    op = SpectralOperator(decay=1.0, k_max=64)
    t = snap_to_cell_midpoint(0.37, grid)
    backend = SvdBackend(operator=op, cutoff=12, grid=grid)
    c = backend._ones - backend.class_matrix(HypothesisClass((ThresholdClassifier(t),)))[0]
    k = np.arange(1, 13)
    exact = np.sqrt(2.0) * np.sin(np.pi * k * t) / (np.pi * k)
    assert abs(c[0] - t) < 1e-12
    assert np.abs(c[1:] - exact).max() < 1e-12


def test_svd_table_converges_to_raw_loss(grid):
    # identity operator: the loss converges to the raw loss in mean square
    op = SpectralOperator(decay=0.0, k_max=64)
    t = snap_to_cell_midpoint(0.5, grid)
    clf = ThresholdClassifier(t)
    x, w = grid.axis(), grid.weights()
    raw = loss_values(clf, 1, x)
    errs = []
    for cutoff in (8, 16, 32, 64):
        backend = SvdBackend(operator=op, cutoff=cutoff, grid=grid)
        values = backend.losses(HypothesisClass((clf,)), 1, x)[0]
        errs.append(float(np.dot(w, (values - raw) ** 2)))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.01


def test_svd_plug_in_identity(grid, rng):
    # the backend's empirical risk equals the per-label pairing of the loss
    # coefficients with the directly evaluated basis moments
    op = SpectralOperator(decay=1.0, k_max=64)
    cutoff = 12
    clf = ThresholdClassifier(snap_to_cell_midpoint(0.45, grid))
    backend = SvdBackend(operator=op, cutoff=cutoff, grid=grid)
    z = rng.random(200)
    y = (rng.random(200) < 0.5).astype(int)
    sample = labelled_sample(z, y)
    direct = empirical_risks(HypothesisClass((clf,)), sample, backend)[0]
    paired = 0.0
    inv_b = 1.0 / op.singular_values[: cutoff + 1]
    for label in (0, 1):
        z_lab = z[y == label]
        if z_lab.size == 0:
            continue
        c = reference_loss_coefficients(clf, label, grid.lower, grid.upper, cutoff)
        moments = reference_basis(z_lab, cutoff).mean(axis=1)
        paired += (z_lab.size / len(z)) * float(np.dot(c * inv_b, moments))
    assert abs(direct - paired) < 1e-10


# ---------------------------------------------------------------------------
# restricted loss
# ---------------------------------------------------------------------------

def test_restricted_full_window_equals_unrestricted(laplace_lattice):
    clf = ThresholdClassifier(0.5)
    full = modified_loss_deconv(clf, laplace_lattice)
    restricted = modified_loss_deconv(
        clf, laplace_lattice,
        window=(laplace_lattice.nodes[0], laplace_lattice.nodes[-1]))
    for label in (0, 1):
        assert np.array_equal(full.values[label], restricted.values[label])


def test_restricted_vanishing_integrand(grid):
    # loss supported right of the window: restricted table is exactly zero
    lattice = build_lattice(grid, laplace_noise(2.0), 0.2)
    clf = ThresholdClassifier(0.5)  # loss at label 0 lives on (0.5, 1]
    table = modified_loss_deconv(clf, lattice, labels=(0,), window=(0.0, 0.5))
    assert np.abs(table.values[0]).max() == 0.0


def test_restricted_monotone_with_base_kernel(grid):
    # with the noise-free kernel, growing the window changes the table by
    # at most the absolute kernel mass over the added region; the label-0
    # loss is 1 right of the threshold
    lattice = build_lattice(grid, dirac_noise(), 0.1)
    clf = ThresholdClassifier(snap_to_cell_midpoint(0.4, grid))
    small = modified_loss_deconv(clf, lattice, labels=(0,), window=(0.2, 0.5))
    big = modified_loss_deconv(clf, lattice, labels=(0,), window=(0.1, 0.7))
    w = trapezoid_weights(len(lattice.nodes), lattice.spacing)
    added = ((lattice.nodes >= 0.1) & (lattice.nodes < 0.2)) | \
            ((lattice.nodes > 0.5) & (lattice.nodes <= 0.7))
    bound = 0.0
    for z in (0.3, 0.45):
        cols = lattice.kernel.evaluate(z - lattice.nodes)
        bound = max(bound, float(np.sum(w[added] * np.abs(cols[added]))))
        iz = np.argmin(np.abs(lattice.nodes - z))
        assert small.values[0][iz] <= big.values[0][iz] + bound + 1e-9


def test_restricted_empty_window(laplace_lattice):
    with pytest.raises(ConfigurationError):
        modified_loss_deconv(ThresholdClassifier(0.5), laplace_lattice,
                             window=(0.5, 0.2))


# ---------------------------------------------------------------------------
# identity reduction at vanishing smoothing
# ---------------------------------------------------------------------------

def test_identity_reduction_dirac_small_bandwidth(grid):
    sc = make_margin_scenario(1, dirac_noise(), grid=grid)
    h = grid.spacing
    lattice = build_lattice(grid, dirac_noise(), 4.0 * h)
    clf = ThresholdClassifier(snap_to_cell_midpoint(0.3, grid))
    sample = generate_sample(sc, 2000, np.random.default_rng(2))
    table = modified_loss_deconv(clf, lattice)
    smoothed = empirical_risk(table, sample)
    direct = float(np.mean(np.concatenate([loss_values(clf, label, z)
                                           for label, z in enumerate(sample.groups)])))
    assert abs(smoothed - direct) < 0.02
