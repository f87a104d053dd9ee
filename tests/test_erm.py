import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

import indirect_erm
from indirect_erm import (
    ConfigurationError,
    DeconvolutionBackend,
    HypothesisClass,
    RateConfig,
    SpectralOperator,
    SvdBackend,
    ThresholdClassifier,
    build_lattice,
    dirac_noise,
    laplace_noise,
    make_margin_scenario,
    minimize,
    select_bandwidth,
    select_cutoff,
    threshold_grid,
)
from indirect_erm.cli import _read_plan
from indirect_erm.erm import (_cosine_gram, _cumulative, _risks, _span, empirical_risks,
                              expected_risks)
from indirect_erm.hypotheses import loss_values, snap_to_cell_midpoint, window_mask
from indirect_erm.operators import cosine_basis
from indirect_erm import erm, noisy_risk
from indirect_erm.noisy_risk import (
    ModifiedLossTable,
    NoisySample,
    _next_fast_len,
    modified_loss_deconv,
    plug_in_density,
)
from indirect_erm.reader import ConfigReader
from indirect_erm.simulation import generate_sample, trial_seed_sequence

from oracles import (
    base_smoothed_density,
    empirical_risk,
    labelled_sample,
    longdouble_gram,
    mixed_threshold_class,
    naive_minimize_index,
    reference_basis,
    reference_empirical_risks,
    reference_gram,
    reference_loss_coefficients,
    reference_plug_in_features,
    reference_runs,
    reference_svd_losses,
    zero_extended_density,
)


# ---------------------------------------------------------------------------
# smoothing-parameter rules
# ---------------------------------------------------------------------------

def cfg(**kw):
    base = dict(kappa=2.0, rho=0.5, gamma=1.0, beta_bar=1.0, dim=1,
                bias_variant="general")
    base.update(kw)
    return RateConfig(**base)


def test_bandwidth_at_n_one():
    assert select_bandwidth(cfg(), 1) == 1.0


def test_bandwidth_reference_value():
    # exponent 3/13 at kappa=2, rho=1/2, gamma=1, beta_bar=1
    lam = select_bandwidth(cfg(), 1024)
    assert abs(lam - 1024.0 ** (-3.0 / 13.0)) < 1e-12
    assert abs(lam - 0.201983) < 1e-5


def test_bandwidth_direct_case_exponent():
    # beta_bar = 0 reduces to the direct-case exponent 3/7
    lam = select_bandwidth(cfg(beta_bar=0.0), 128)
    assert abs(lam - 128.0 ** (-3.0 / 7.0)) < 1e-12


def test_bandwidth_monotone_in_n():
    values = [select_bandwidth(cfg(), n) for n in (2, 8, 64, 512, 4096)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_bandwidth_squared_loss_variant_matches_margin_display():
    # with the sharper bias regime the tuned bandwidth reproduces the
    # hard-loss excess-risk exponent
    from indirect_erm.diagnostics import hard_loss_exponent

    c = cfg(bias_variant="squared_loss", gamma=2.0, beta_bar=2.0)
    lam = select_bandwidth(c, 1000)
    e = -np.log(lam) / np.log(1000.0)
    bias_rate = e * c.kappa * c.gamma / (c.kappa - 1.0)
    assert abs(bias_rate - hard_loss_exponent(1.0, 2.0, 1, 2.0)) < 1e-12


def test_cutoff_rules():
    assert select_cutoff(cfg(), 1) == 1
    assert select_cutoff(cfg(), 1024) == 5  # 1024^(3/13) = 4.95 -> 5
    values = [select_cutoff(cfg(), n) for n in (2, 16, 256, 4096, 65536)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_rate_config_validation():
    with pytest.raises(ConfigurationError):
        RateConfig(kappa=1.0, rho=0.5, gamma=1.0)
    with pytest.raises(ConfigurationError):
        RateConfig(kappa=2.0, rho=1.0, gamma=1.0)
    with pytest.raises(ConfigurationError):
        RateConfig(kappa=2.0, rho=0.5, gamma=1.0, bias_variant="cubic")


# ---------------------------------------------------------------------------
# exhaustive minimization
# ---------------------------------------------------------------------------

def test_minimize_singleton(grid):
    sc = make_margin_scenario(1, laplace_noise(2.0), grid=grid)
    lattice = build_lattice(grid, laplace_noise(2.0), 0.2)
    lone = HypothesisClass((ThresholdClassifier(snap_to_cell_midpoint(0.4, grid)),))
    sample = generate_sample(sc, 50, np.random.default_rng(0))
    backend = DeconvolutionBackend(lattice=lattice)
    fit = minimize(lone, sample, backend)
    assert fit.index == 0
    table = modified_loss_deconv(lone[0], lattice)
    assert abs(fit.empirical_risk - empirical_risk(table, sample)) < 1e-12


def test_minimize_matches_per_classifier_tables(grid):
    # the class scan and the per-classifier table lookups are one bilinear
    # form evaluated in two orders
    sc = make_margin_scenario(1, laplace_noise(2.0), grid=grid)
    lattice = build_lattice(grid, laplace_noise(2.0), 0.25)
    hclass = threshold_grid(21, grid)
    backend = DeconvolutionBackend(lattice=lattice)
    rng = np.random.default_rng(5)
    for _ in range(5):
        sample = generate_sample(sc, 120, rng)
        fit = minimize(hclass, sample, backend)
        risks = [empirical_risk(modified_loss_deconv(clf, lattice), sample)
                 for clf in hclass]
        assert fit.index == int(np.argmin(risks))
        assert abs(fit.empirical_risk - min(risks)) < 1e-12


def test_minimize_svd_matches_per_classifier_tables(grid):
    op = SpectralOperator(decay=1.0, k_max=64)
    sc = make_margin_scenario(1, op, grid=grid)
    hclass = threshold_grid(21, grid)
    backend = SvdBackend(operator=op, cutoff=8, grid=grid)
    sample = generate_sample(sc, 300, np.random.default_rng(4))
    fit = minimize(hclass, sample, backend)
    risks = [sum(reference_svd_losses(clf, y, z, op, 8, grid).sum()
                 for y, z in enumerate(sample.groups)) / sample.n for clf in hclass]
    assert fit.index == int(np.argmin(risks))
    assert abs(fit.empirical_risk - min(risks)) < 1e-12


def test_class_matrix_cache_keyed_by_value(grid):
    lattice = build_lattice(grid, laplace_noise(2.0), 0.25)
    backend = DeconvolutionBackend(lattice=lattice)
    first = backend.class_matrix(threshold_grid(7, grid))
    assert backend.class_matrix(threshold_grid(7, grid)) is first
    assert backend.class_matrix(threshold_grid(9, grid)).shape[0] == 9


def _pair_sums(losses):
    """Every pair (i < j) of the rows of ``losses`` and the sums over the
    columns of their squared differences; also the largest row's sum of
    squares, the scale of those sums."""
    i, j = np.triu_indices(len(losses), 1)
    return i, j, ((losses[i] - losses[j]) ** 2).sum(axis=1), (losses ** 2).sum(axis=1).max()


def test_backend_losses_match_per_classifier_tables(grid):
    # the class-wide spectral losses are the exact expansion's, to rounding:
    # the squared label-0 differences summed over points in two groups, and
    # both labels' rows on the grid's nodes, the label-1 row the loss 1's
    # less the label-0 one
    op = SpectralOperator(decay=1.0, k_max=64)
    z = np.random.default_rng(2).uniform(-0.5, 1.5, 400)
    sample = NoisySample((z[:150], z[150:]))
    for cutoff, hclass in ((8, threshold_grid(9, grid)), (64, threshold_grid(33, grid))):
        ref = np.vstack([reference_svd_losses(c, 0, z, op, cutoff, grid) for c in hclass])
        i, j, want, scale = _pair_sums(ref)
        got = SvdBackend(operator=op, cutoff=cutoff, grid=grid).squared_differences(
            hclass, i, j, sample)
        assert np.abs(got - want).max() < 1e-12 * scale, cutoff
    hclass = threshold_grid(9, grid)
    svd = SvdBackend(operator=op, cutoff=8, grid=grid)
    fill, p = svd._row_filler(hclass)
    one = fill(len(hclass), np.empty(p))
    for j, c in enumerate(hclass):
        row = fill(j, np.empty(p))
        for label, got in ((0, row), (1, one - row)):
            ref = reference_svd_losses(c, label, grid.axis(), op, 8, grid)
            assert np.abs(got - ref).max() < 1e-12


@pytest.mark.parametrize("seed", [0, 1])
def test_spectral_gram_from_cosine_sums(monkeypatch, grid, seed):
    # the Gram matrix of the spectral Lipschitz step, read off the draws'
    # cosine sums up to 2N from N + 1 basis rows, against the direct
    # cosines' Gram matrix summed in np.longdouble: within 1e-15 of its
    # largest entry (measured at most 6.6e-16; one einsum over the rows
    # reads 2.0-5.4e-15), and against that einsum (reference_gram) to 1e-14
    rows = []

    def counted(x, count):
        rows.append(count)
        return cosine_basis(x, count)

    monkeypatch.setattr(erm, "cosine_basis", counted)
    z = np.random.default_rng(seed).random(20_000)
    sample = NoisySample((z[:8_000], z[8_000:]))
    hclass = threshold_grid(9, grid)
    i, j = np.triu_indices(len(hclass), 1)
    # a cutoff's Gram matrix is the top-left block of a larger cutoff's
    exact, products = longdouble_gram(z, 64), reference_gram(z, 64)
    for cutoff in (1, 4, 16, 64):
        want, ref_gram = exact[: cutoff + 1, : cutoff + 1], products[: cutoff + 1, : cutoff + 1]
        scale = float(np.abs(want).max())
        gram = _cosine_gram(z, cutoff)
        assert float(np.abs(gram - want).max()) <= 1e-15 * scale, cutoff
        assert np.abs(gram - ref_gram).max() <= 1e-14 * scale, cutoff
        backend = SvdBackend(operator=SpectralOperator(k_max=64), cutoff=cutoff, grid=grid)
        rows.clear()
        got = backend.squared_differences(hclass, i, j, sample)
        assert rows == [cutoff]  # N + 1 rows, not 2N + 1
        matrix = backend.class_matrix(hclass)
        c = (matrix[i] - matrix[j]) * backend._inv_b
        ref = np.einsum("pk,kl,pl->p", c, ref_gram, c)
        assert np.all(np.abs(got - ref) <= 1e-14 * scale * np.abs(c).sum(axis=1) ** 2)


def _edge_class(nodes, grid):
    """Thresholds on a grid, left and right of the lattice, on a node, and
    two in one cell."""
    t, h = snap_to_cell_midpoint(0.5, grid), grid.spacing
    ts = [*(c.threshold for c in threshold_grid(9, grid)), nodes[0] - 0.5, nodes[-1] + 0.5,
          nodes[len(nodes) // 3], t - h / 4, t + h / 4]
    return HypothesisClass(tuple(ThresholdClassifier(v) for v in ts))


@pytest.mark.parametrize("noise", [laplace_noise(2.0), dirac_noise()], ids=["laplace", "dirac"])
@pytest.mark.parametrize("bandwidth", [0.05, 0.1, 0.25, 0.5])
def test_closed_form_tables_match_convolution_tables(grid, noise, bandwidth):
    # each regularized loss, a difference of two values of the kernel's
    # cumulative sum, against the per-classifier FFT tables: the squared
    # differences of every pair's label-0 losses, summed over the nodes and
    # over points clamped to both lattice ends, in two label groups, off the
    # points' second moments, against the same sums of the tables' values
    lattice = build_lattice(grid, noise, bandwidth)
    nodes = lattice.nodes
    z = np.r_[nodes, nodes[0] - 1.0, nodes[-1] + 2.0,
              np.random.default_rng(6).uniform(nodes[0], nodes[-1], 200)]
    sample = NoisySample((z[::2], z[1::2]))
    hclass = _edge_class(nodes, grid)
    for window in (None, (0.1, 0.9)):
        backend = DeconvolutionBackend(lattice=lattice, window=window)
        tables = [modified_loss_deconv(c, lattice, window=window) for c in hclass]
        i, j, want, scale = _pair_sums(np.vstack([t.evaluate(z, 0) for t in tables]))
        got = backend.squared_differences(hclass, i, j, sample)
        assert np.abs(got - want).max() <= 2e-15 * scale, window


def test_cumulative_table_sums_to_rounding(grid):
    # the two-level cumulative sum against math.fsum of each prefix, within
    # a few units in the last place of the running sum of |values|, at any
    # length: below, at and past one block of 128, and the laplace
    # lattice's 25,195 offsets
    for n in (1, 127, 128, 129, 25195):
        values = np.random.default_rng(n).standard_normal(n)
        got = _cumulative(values)
        assert len(got) == n + 1 and got[0] == 0.0
        at = np.unique(np.linspace(1, n, 50).astype(int))
        want = np.array([math.fsum(values[:u]) for u in at])
        ulp = np.spacing(np.cumsum(np.abs(values))[at - 1])
        assert (np.abs(got[at] - want) <= 4 * ulp).all(), n
    # every fifth loss row of the laplace preset's class, and the loss 1's,
    # on its lattices at n = 256 and 16384, against spans summed by fsum at
    # 50 nodes: within 1.5e-15 of the row's largest |value| (one running
    # sum left 7.5e-15 there)
    hclass = threshold_grid(101, grid)
    for lam in (256 ** (-1 / 11), 16384 ** (-1 / 11)):
        lattice = build_lattice(grid, laplace_noise(2.0), lam, base_kind="order_m_flat_top")
        backend = DeconvolutionBackend(lattice=lattice)
        kernel, p, h = lattice.kernel.values, len(lattice.nodes), lattice.spacing
        fill, _ = backend._row_filler(hclass)
        lo, last = backend._loss_rows(hclass)
        nodes = np.linspace(0, p - 1, 50).astype(int)
        for j in [*range(0, len(hclass), 5), len(hclass)]:
            a, row = lo[j], fill(j, np.empty(p))
            want = np.array([h * math.fsum(kernel[i - last + p - 1: i - a + p]) for i in nodes])
            if a == 0:  # the trapezoid weight of each lattice end node in the span
                want -= h / 2 * kernel[p - 1 + nodes]
            if last == p - 1 and a <= last:
                want -= h / 2 * kernel[nodes]
            assert np.abs(row[nodes] - want).max() <= 1.5e-15 * np.abs(row).max(), (lam, j)


@pytest.mark.parametrize("pad", [4.0, 0.0])
def test_span_at_a_node_range_is_the_whole_lattice_span_sliced(grid, pad):
    # bit for bit, so the loss rows (every node) and the expected risks (the
    # domain's nodes, every node at pad_factor 0) read one identity: spans
    # from node 0, to node P - 1, over both, empty and interior, for the
    # corrected and the scaled base kernel
    lattice = build_lattice(grid, laplace_noise(2.0), 0.25, pad_factor=pad)
    p, h, dom = len(lattice.nodes), lattice.spacing, lattice.domain_nodes
    assert pad or (dom.start, dom.stop) == (0, p)
    for kernel in (lattice.kernel.values, lattice.base_scaled.values):
        ck = _cumulative(kernel)
        for lo, hi in ((0, p // 3), (p // 2, p - 1), (0, p - 1), (p // 2, p // 2 - 1),
                       (p // 3, p // 2)):
            whole = _span(ck, kernel, h, lo, hi, 0, np.empty(p))
            assert lo <= hi or not whole.any()
            for start, stop in ((dom.start, dom.stop), (0, 7), (p - 7, p), (p // 4, p // 2)):
                got = _span(ck, kernel, h, lo, hi, start, np.empty(stop - start))
                assert np.array_equal(got, whole[start: stop]), (lo, hi, start)


def test_closed_form_class_matrices_match_loss_loops(grid):
    # exactly: the risks, and so every fit, do not move
    lattice = build_lattice(grid, laplace_noise(2.0), 0.25)
    hclass = _edge_class(lattice.nodes, grid)
    matrix, starts = reference_runs(hclass, lattice.nodes)
    for window in (None, (0.1, 0.9)):
        runs = DeconvolutionBackend(lattice=lattice, window=window)._runs(hclass)
        assert np.array_equal(runs[0], matrix) and np.array_equal(runs[1], starts)
    hclass = HypothesisClass(tuple(ThresholdClassifier(t)
                                   for t in (-0.5, 0.0, 0.3, 0.5, 1.0, 1.5)))
    op = SpectralOperator(decay=1.0, k_max=64)
    for cutoff in (1, 8, 64):
        backend = SvdBackend(operator=op, cutoff=cutoff, grid=grid)
        want = [reference_loss_coefficients(c, 0, grid.lower, grid.upper, cutoff) for c in hclass]
        assert np.array_equal(backend.class_matrix(hclass), np.vstack(want))


def test_backend_expected_risks_match_reference_quadrature(grid):
    hclass = threshold_grid(9, grid)
    sc = make_margin_scenario(1, laplace_noise(2.0), grid=grid)
    lattice = build_lattice(grid, laplace_noise(2.0), 0.25)
    for window in (None, (0.2, 0.7)):
        # the deconvolution identity: each raw node loss, times the
        # (windowed) weights, against the base-smoothed density
        w = lattice.weights if window is None else np.where(
            window_mask(lattice.nodes, window), lattice.weights, 0.0)
        ref = [sum(sc.priors[y] * float(np.dot(
            w, loss_values(c, y, lattice.nodes) * base_smoothed_density(sc, lattice, y)))
            for y in sc.labels) for c in hclass]
        backend = DeconvolutionBackend(lattice=lattice, window=window)
        got = expected_risks(hclass, sc, backend)
        assert np.abs(got - ref).max() < 1e-12
    # under dirac noise the observations are the inputs: each reference
    # table integrated against the zero-extended density
    sc = make_margin_scenario(1, dirac_noise(), grid=grid)
    lattice = build_lattice(grid, dirac_noise(), 0.25)
    for window in (None, (0.2, 0.7)):
        ref = [sum(sc.priors[y] * float(np.dot(
            lattice.weights,
            modified_loss_deconv(c, lattice, window=window).values[y]
            * zero_extended_density(sc, lattice, y))) for y in sc.labels) for c in hclass]
        backend = DeconvolutionBackend(lattice=lattice, window=window)
        got = expected_risks(hclass, sc, backend)
        assert np.abs(got - ref).max() < 1e-12
    # loss coefficients paired with the density coefficients
    op = SpectralOperator(decay=1.0, k_max=64)
    sc = make_margin_scenario(1, op, grid=grid)
    lo, hi = grid.lower, grid.upper
    ref = [sum(sc.priors[y] * float(np.dot(reference_loss_coefficients(c, y, lo, hi, 8),
                                           sc.cosine_coefficients(y, 8)))
               for y in sc.labels) for c in hclass]
    got = expected_risks(hclass, sc, SvdBackend(operator=op, cutoff=8, grid=grid))
    assert np.abs(got - ref).max() < 1e-12


@pytest.mark.parametrize("noise", [laplace_noise(2.0), dirac_noise()])
def test_expected_risks_match_the_fft_route_relative_to_their_terms(grid, noise):
    # each run's span of the cumulative base kernel against the FFT route's
    # base-smoothed densities, within 2e-15 of the summed terms
    # p_y sum w |S_y| (5.9e-16 measured; 3.8e-15 with one running sum in
    # place of ``_cumulative``): on the padded lattice and on one
    # whose end nodes, of weight h/2, carry density (pad_factor 0), over the
    # whole lattice, a window inside the domain and windows holding either
    # lattice end; thresholds on, left of, right of and across the domain.
    # At lambda = 0.33 the dirac lattice's last domain node rounds past 1
    sc = make_margin_scenario(1, noise, grid=grid)
    hclass = mixed_threshold_class(grid)
    for lam, pad in ((0.25, 4.0), (0.5, 4.0), (0.25, 0.0), (0.33, 4.0)):
        lattice = build_lattice(grid, noise, lam, base_kind="order_m_flat_top", pad_factor=pad)
        smoothed = [base_smoothed_density(sc, lattice, y) for y in sc.labels]
        for window in (None, (0.2, 0.7), (-10.0, 0.5), (0.5, 10.0)):
            w = lattice.weights if window is None else np.where(
                window_mask(lattice.nodes, window), lattice.weights, 0.0)
            ref = np.array([sum(sc.priors[y] * float(np.dot(
                w, loss_values(c, y, lattice.nodes) * smoothed[y])) for y in sc.labels)
                for c in hclass])
            scale = sum(sc.priors[y] * float(np.dot(w, np.abs(smoothed[y]))) for y in sc.labels)
            got = expected_risks(hclass, sc, DeconvolutionBackend(lattice=lattice, window=window))
            assert np.abs(got - ref).max() <= 2e-15 * scale, (lam, pad, window)


def test_risks_request_label_zero_losses_only(grid, monkeypatch):
    # stricter than label 0 only: both backends build their class matrices
    # and tables from the thresholds alone, so no classifier is evaluated on
    # the nodes for either label, and a fresh kernel backend's loss
    # differences at points take no FFT
    from indirect_erm.diagnostics import empirical_bias_deconv, table_sup

    def refused(*args):
        raise AssertionError("a classifier was evaluated")

    transforms = []

    def counted(*args, _original=noisy_risk.rfft):
        transforms.append(args)
        return _original(*args)

    monkeypatch.setattr(ThresholdClassifier, "predict", refused)
    monkeypatch.setattr(noisy_risk, "rfft", counted)
    hclass = threshold_grid(9, grid)
    noise, op = laplace_noise(2.0), SpectralOperator(decay=1.0, k_max=64)
    sc, svd_sc = make_margin_scenario(1, noise, grid=grid), make_margin_scenario(1, op, grid=grid)
    lattice = build_lattice(grid, noise, 0.25)
    z = np.random.default_rng(3).uniform(-0.5, 1.5, 300)
    points = NoisySample((z[:100], z[100:]))
    pairs = np.triu_indices(len(hclass), 1)
    for window in (None, (0.2, 0.7)):
        deconv = DeconvolutionBackend(lattice=lattice, window=window)
        deconv.squared_differences(hclass, *pairs, points)
        assert transforms == []
        sample = generate_sample(sc, 200, np.random.default_rng(1))
        empirical_risks(hclass, sample, deconv)
        expected_risks(hclass, sc, deconv)
        transforms.clear()
    empirical_bias_deconv(sc, DeconvolutionBackend(lattice=lattice), hclass, 4)
    svd = SvdBackend(operator=op, cutoff=8, grid=grid)
    empirical_risks(hclass, generate_sample(svd_sc, 200, np.random.default_rng(2)), svd)
    expected_risks(hclass, svd_sc, SvdBackend(operator=op, cutoff=8, grid=grid))
    SvdBackend(operator=op, cutoff=8, grid=grid).squared_differences(hclass, *pairs, points)
    table_sup(SvdBackend(operator=op, cutoff=8, grid=grid), hclass)


def test_svd_backend_rejects_cutoff_outside_range(grid):
    op = SpectralOperator(decay=1.0, k_max=16)
    for cutoff in (0, 17, 100):
        with pytest.raises(ConfigurationError):
            SvdBackend(operator=op, cutoff=cutoff, grid=grid)
    assert SvdBackend(operator=op, cutoff=16, grid=grid).smoothing == 16


def test_svd_backend_class_free_weights_built_with_it(grid):
    # 1/b_k and the loss-1 coefficients depend on the cutoff alone: built
    # once with the backend, left out of its equality and its cache
    op = SpectralOperator(decay=1.0, k_max=16)
    backend = SvdBackend(operator=op, cutoff=8, grid=grid)
    np.testing.assert_array_equal(backend._inv_b, 1.0 / op.singular_values[:9])
    np.testing.assert_array_equal(backend._ones,
                                  reference_loss_coefficients(ThresholdClassifier(-1.0), 0,
                                                              grid.lower, grid.upper, 8))
    backend.squared_differences(threshold_grid(5, grid), [0], [1],
                                NoisySample((np.array([0.2]), np.array([0.7]))))
    backend._row_filler(threshold_grid(5, grid))
    assert [key[0] for key in backend._cache] == ["matrix"]
    assert backend == SvdBackend(operator=op, cutoff=8, grid=grid)


def test_restricted_backend_window_checked(grid):
    lattice = build_lattice(grid, laplace_noise(2.0), 0.25)
    with pytest.raises(ConfigurationError):
        DeconvolutionBackend(lattice=lattice, window=(0.6, 0.2))
    with pytest.raises(ConfigurationError):
        DeconvolutionBackend(lattice=lattice, window=(50.0, 60.0))


def test_tables_minimize_matches_naive_oracle(grid):
    # two-path equivalence on random small instances (exact index match)
    sc = make_margin_scenario(1, laplace_noise(2.0), grid=grid)
    lattice = build_lattice(grid, laplace_noise(2.0), 0.2)
    backend = DeconvolutionBackend(lattice=lattice)
    rng = np.random.default_rng(9)
    for _ in range(5):
        sample = generate_sample(sc, 50, rng)
        ts = np.sort(rng.choice(np.arange(1, 100), size=11, replace=False)) / 100.0
        hclass = HypothesisClass(tuple(
            ThresholdClassifier(snap_to_cell_midpoint(t, grid)) for t in ts))
        fit = minimize(hclass, sample, backend)
        assert fit.index == naive_minimize_index(hclass, lattice, sample)


def test_argmin_invariant_under_constant_shift(grid):
    sc = make_margin_scenario(1, laplace_noise(2.0), grid=grid)
    lattice = build_lattice(grid, laplace_noise(2.0), 0.2)
    hclass = threshold_grid(11, grid)
    sample = generate_sample(sc, 80, np.random.default_rng(3))
    risks, shifted = [], []
    for clf in hclass:
        table = modified_loss_deconv(clf, lattice)
        risks.append(empirical_risk(table, sample))
        bumped = ModifiedLossTable(
            z_nodes=table.z_nodes,
            values={k: v + 0.37 for k, v in table.values.items()})
        shifted.append(empirical_risk(bumped, sample))
    assert int(np.argmin(risks)) == int(np.argmin(shifted))


def test_minimize_svd_backend(grid):
    op = SpectralOperator(decay=1.0, k_max=64)
    sc = make_margin_scenario(1, op, grid=grid)
    hclass = threshold_grid(21, grid)
    sample = generate_sample(sc, 400, np.random.default_rng(12))
    backend = SvdBackend(operator=op, cutoff=8, grid=grid)
    fit = minimize(hclass, sample, backend)
    assert fit.backend == "svd"
    assert 0 <= fit.index < len(hclass)
    assert abs(fit.classifier.threshold - 0.5) < 0.25


def test_svd_preset_argmin_same_with_direct_cosine_basis(monkeypatch):
    # the recurrence basis moves the risks in the last bits; on every trial
    # of the svd-linear preset (20 replications, its seed and rule cutoffs)
    # the selected classifier is the one the direct cosines select
    path = os.path.join(os.path.dirname(indirect_erm.__file__), "..", "..", "presets",
                        "svd-linear.json")
    with open(path) as fh:
        doc = json.load(fh)
    plan = replace(_read_plan(ConfigReader(doc)), base_seed=doc["seed"], replications=20)
    hclass = plan.hypothesis_class()
    trials = []
    for n in plan.n_grid:
        backend = plan.backend_at(n)
        for rep in range(plan.replications):
            rng = np.random.default_rng(trial_seed_sequence(plan.base_seed, n, rep))
            sample = generate_sample(plan.scenario, n, rng)
            trials.append((backend, sample, minimize(hclass, sample, backend).index))
    monkeypatch.setattr(erm, "cosine_basis", reference_basis)
    assert [minimize(hclass, sample, backend).index for backend, sample, _ in trials] \
        == [index for _, _, index in trials]


def test_dirac_consistency_many_replications(grid):
    # near-threshold recovery in at least 90% of seeded replications
    sc = make_margin_scenario(1, dirac_noise(), grid=grid)
    h = grid.spacing
    lattice = build_lattice(grid, dirac_noise(), 8.0 * h)
    hclass = threshold_grid(101, grid)
    backend = DeconvolutionBackend(lattice=lattice)
    hits = 0
    for rep in range(100):
        sample = generate_sample(sc, 4096, np.random.default_rng(1000 + rep))
        fit = minimize(hclass, sample, backend)
        hits += abs(fit.classifier.threshold - 0.5) <= 0.1
    assert hits >= 90


def test_oracle_empirical_risk_converges(grid):
    # at the oracle threshold the empirical risk approaches 1/4 like 1/sqrt(n)
    sc = make_margin_scenario(1, dirac_noise(), grid=grid)
    h = grid.spacing
    lattice = build_lattice(grid, dirac_noise(), 4.0 * h)
    star = ThresholdClassifier(snap_to_cell_midpoint(0.5, grid))
    table = modified_loss_deconv(star, lattice)
    rng = np.random.default_rng(6)
    for n in (256, 4096):
        values = [empirical_risk(table, generate_sample(sc, n, rng))
                  for _ in range(60)]
        se = np.std(values, ddof=1) / np.sqrt(len(values))
        assert abs(np.mean(values) - 0.25) < 3.0 * se + 0.01


def test_fit_result_serialization(grid):
    sc = make_margin_scenario(1, laplace_noise(2.0), grid=grid)
    lattice = build_lattice(grid, laplace_noise(2.0), 0.3)
    hclass = threshold_grid(5, grid)
    sample = generate_sample(sc, 30, np.random.default_rng(0))
    fit = minimize(hclass, sample, DeconvolutionBackend(lattice=lattice))
    doc = fit.to_json()
    assert doc["classifier"]["kind"] == "threshold"
    assert doc["backend"] == "deconvolution"
    assert doc["smoothing"] == [0.3]
    assert isinstance(json.dumps(doc, sort_keys=True), str)


@pytest.mark.parametrize("window", [None, (0.2, 0.7)])
def test_run_merged_scan_matches_dense_product(grid, window):
    # the class matrix keeps one column per run of nodes on which no loss
    # changes; its risks of node densities, p_0 w f summed per run, are the
    # dense label-0 node-loss product in another order. Label 1 gets the
    # zero density, so no shared term is added, and p_0 = 1/2 scales exactly.
    lattice = build_lattice(grid, laplace_noise(2.0), 0.25)
    backend = DeconvolutionBackend(lattice=lattice, window=window)
    sc = make_margin_scenario(1, laplace_noise(2.0), grid=grid)
    assert sc.priors[0] == 0.5
    rng = np.random.default_rng(9)
    for hclass in (threshold_grid(41, grid), mixed_threshold_class(grid)):
        dense = np.vstack([loss_values(clf, 0, lattice.nodes) for clf in hclass])
        assert backend.class_matrix(hclass).shape[1] < len(lattice.nodes) // 50
        for _ in range(4):
            z = rng.uniform(-0.5, 1.5, 300)
            features = 0.5 * reference_plug_in_features(z, backend)
            want = dense @ features
            signed = 0.5 * (backend._weights * plug_in_density(z, lattice))
            statistic = np.add.reduceat(signed, backend._runs(hclass)[1]), 0.0
            got = _risks(hclass, backend, statistic)
            # relative to the size of the summed terms, the scale of rounding
            assert np.all(np.abs(got - want) <= 1e-15 * (np.abs(dense) @ np.abs(features)))
            assert np.argmin(got) == np.argmin(want)


def _reference_cases(grid):
    """(name, class, sample) triples for the reference comparison."""
    h = grid.spacing
    t = snap_to_cell_midpoint(0.5, grid)
    classes = {
        "grid": threshold_grid(41, grid),
        "singleton": HypothesisClass((ThresholdClassifier(t),)),
        # both thresholds in one lattice cell: two runs, so no interior window
        "one-cell": HypothesisClass((ThresholdClassifier(t - h / 4),
                                     ThresholdClassifier(t + h / 4))),
    }
    rng = np.random.default_rng(17)
    z = rng.uniform(-0.3, 1.3, 400)
    samples = {
        "two-label": labelled_sample(z, rng.random(400) < 0.45),
        "one-label": NoisySample((np.empty(0), z[:150])),
        "clamped": labelled_sample(np.concatenate([[-40.0, -40.0, 55.0], z[:60], [70.0]]),
                                   np.r_[0, 1, 0, rng.random(60) < 0.5, 1]),
    }
    return [(f"{c}/{s}", hclass, sample) for c, hclass in classes.items()
            for s, sample in samples.items()]


@pytest.mark.parametrize("noise", [laplace_noise(2.0), dirac_noise()], ids=["laplace", "dirac"])
@pytest.mark.parametrize("window", [None, (0.2, 0.7)])
def test_empirical_risks_match_per_label_reference(grid, noise, window):
    # one signed, windowed statistic against the full-lattice plug-in
    # density of each label scanned against its own class matrix
    lattice = build_lattice(grid, noise, 0.25)
    backend = DeconvolutionBackend(lattice=lattice, window=window)
    for name, hclass, sample in _reference_cases(grid):
        runs = backend.class_matrix(hclass).shape[1]
        assert runs > 2 if name.startswith("grid") else runs == 2, name
        got = empirical_risks(hclass, sample, backend)
        want, scale = reference_empirical_risks(hclass, sample, backend)
        assert np.all(np.abs(got - want) <= 1e-15 * scale), name
        assert np.argmin(got) == np.argmin(want), name


def test_minimize_makes_one_windowed_transform_pair(grid, monkeypatch):
    # with the class's window cached, a trial is one rfft and one irfft at
    # the window's length, not a full-lattice pair per label
    lattice = build_lattice(grid, laplace_noise(2.0), 0.25)
    backend = DeconvolutionBackend(lattice=lattice)
    hclass = threshold_grid(41, grid)
    sample = generate_sample(make_margin_scenario(1, laplace_noise(2.0), grid=grid), 300,
                             np.random.default_rng(3))
    assert min(sample.counts().values()) > 0
    minimize(hclass, sample, backend)  # builds the class's cached window
    calls = []
    for name in ("rfft", "irfft"):
        def counted(values, n, _name=name, _original=getattr(noisy_risk, name)):
            calls.append((_name, n))
            return _original(values, n)

        monkeypatch.setattr(noisy_risk, name, counted)
    minimize(hclass, sample, backend)
    starts = backend._runs(hclass)[1]
    length = _next_fast_len(int(len(lattice.nodes) + starts[-1] - starts[1] - 1))
    assert length < 2 * len(lattice.nodes) - 1
    assert calls == [("rfft", length), ("irfft", length)]


def test_scan_rows_take_one_transform_and_keep_no_cumulative_kernel(grid, monkeypatch):
    # the head, tail and whole-lattice rows are spans of the kernel's
    # cumulative sum, which their build makes and drops: the build takes
    # the interior window's rfft alone, and a trial caches only the runs
    # and the signed rows
    lattice = build_lattice(grid, laplace_noise(2.0), 0.25)
    backend = DeconvolutionBackend(lattice=lattice)
    hclass = threshold_grid(41, grid)
    calls = []
    for name in ("rfft", "irfft"):
        def counted(values, n, _name=name, _original=getattr(noisy_risk, name)):
            calls.append((_name, n))
            return _original(values, n)

        monkeypatch.setattr(noisy_risk, name, counted)
    window = backend._signed_runs(hclass)[1]
    assert calls == [("rfft", window.length)]
    monkeypatch.undo()
    sample = generate_sample(make_margin_scenario(1, laplace_noise(2.0), grid=grid), 300,
                             np.random.default_rng(3))
    backend.features(hclass, sample)
    assert sorted(key[0] for key in backend._cache) == ["runs", "signed"]
