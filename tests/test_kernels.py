import tracemalloc

import numpy as np
import pytest

from indirect_erm import (
    ConfigurationError,
    Grid,
    IllPosednessError,
    build_base_kernel,
    build_deconvolution_kernel,
    build_lattice,
    dirac_noise,
    kernel_fourier_sup,
    laplace_noise,
)
from indirect_erm.kernels import (
    NoiseModel,
    _HALF_BLOCK,
    _gauss_rule,
    _invert_symbol,
    _panel_rule,
    base_symbol,
    kernel_fourier_l2,
)

from oracles import closed_form_corrected_sinc


# ---------------------------------------------------------------------------
# noise models
# ---------------------------------------------------------------------------

def test_noise_decay_exponent_validation():
    with pytest.raises(ConfigurationError):
        laplace_noise(3.0)  # closed forms only exist for 2, 4, 6
    with pytest.raises(ConfigurationError):
        NoiseModel("gaussian", 2.0)


@pytest.mark.parametrize("beta,var", [(2.0, 2.0), (4.0, 4.0), (6.0, 6.0)])
def test_noise_density_normalization_and_variance(beta, var):
    noise = laplace_noise(beta)
    x = np.arange(-40.0, 40.0, 0.002)
    dens = noise.density(x)
    assert np.all(dens >= 0)
    mass = np.trapezoid(dens, x)
    assert abs(mass - 1.0) < 1e-6
    assert abs(np.trapezoid(x * x * dens, x) - var) < 1e-4


@pytest.mark.parametrize("beta", [2.0, 4.0, 6.0])
def test_noise_fourier_positive_and_decaying(beta):
    noise = laplace_noise(beta)
    t = np.linspace(-80.0, 80.0, 2001)
    ft = noise.fourier(t)
    assert np.all(ft > 0)
    # polynomial decay with the declared exponent
    ratio = noise.fourier(np.array([40.0])) / noise.fourier(np.array([80.0]))
    assert abs(np.log2(ratio[0]) - beta) < 0.05


def test_noise_fourier_matches_density_transform():
    noise = laplace_noise(4.0)
    x = np.arange(-50.0, 50.0, 0.01)
    dens = noise.density(x)
    for t in (0.0, 0.7, 2.0):
        ft = np.trapezoid(dens * np.cos(t * x), x)
        assert abs(ft - noise.fourier(np.array([t]))[0]) < 1e-6


def test_noise_sampling_moments(rng):
    noise = laplace_noise(2.0)
    draws = noise.sample(rng, 200_000)
    assert abs(draws.mean()) < 3.0 * np.sqrt(2.0 / draws.size)
    # var = 2 for the single Laplace factor
    assert abs(draws.var() - 2.0) < 3.0 * 20.0 / np.sqrt(draws.size)


# ---------------------------------------------------------------------------
# base kernels
# ---------------------------------------------------------------------------

def test_sinc_base_kernel_matches_closed_form(grid):
    base = build_base_kernel("sinc", grid)
    off = base.offsets[0]
    safe = np.where(off == 0.0, 1.0, off)
    exact = np.where(np.abs(off) < 1e-12, 1.0 / np.pi, np.sin(safe) / (np.pi * safe))
    assert np.abs(base.values[0] - exact).max() < 1e-9
    # K(0) = 1/pi, K(pi) = 0
    assert abs(base.evaluate(np.array([0.0]))[0] - 1.0 / np.pi) < 1e-9
    assert abs(base.evaluate(np.array([np.pi]))[0]) < 1e-5  # interpolated node gap


def test_flat_top_symbol_shape():
    t = np.linspace(-1.5, 1.5, 1001)
    sym = base_symbol("order_m_flat_top", t)
    assert np.all(sym[np.abs(t) <= 0.5] == 1.0)
    assert np.all(sym[np.abs(t) >= 1.0] == 0.0)
    assert np.all((sym >= 0.0) & (sym <= 1.0))


def test_flat_top_kernel_moments_vanish(grid):
    # transform identically 1 near 0 makes every low-order moment vanish;
    # the moment integrands amplify the tails, so the window must be wide
    assert np.all(base_symbol("order_m_flat_top", np.linspace(-0.5, 0.5, 101)) == 1.0)
    h = 0.05
    off = h * np.arange(-12000, 12001)
    base = build_base_kernel("order_m_flat_top", grid, offsets=off)
    vals = base.values[0]
    for order in (1, 2, 3):
        moment = np.sum(off ** order * vals) * h
        assert abs(moment) < 1e-5


def test_unknown_kind_rejected(grid):
    with pytest.raises(ConfigurationError):
        build_base_kernel("epanechnikov", grid)


def test_windowed_normalization(grid):
    # band-limited kernels have slowly decaying oscillatory tails, so a
    # windowed trapezoid integral reaches 1 only to O(1/window); the exact
    # normalization lives in the transform: symbol(0) = 1.
    h = 0.05
    off = h * np.arange(-4000, 4001)
    for kind in ("sinc", "order_m_flat_top"):
        base = build_base_kernel(kind, grid, offsets=off)
        assert abs(base.integral() - 1.0) < 0.02
        assert base_symbol(kind, np.array([0.0]))[0] == 1.0


# ---------------------------------------------------------------------------
# noise-corrected kernels
# ---------------------------------------------------------------------------

def test_dirac_correction_is_identity(grid):
    base = build_base_kernel("sinc", grid)
    corrected = build_deconvolution_kernel(base, dirac_noise(), 1.0)
    assert np.abs(corrected.values[0] - base.values[0]).max() < 1e-10


@pytest.mark.parametrize("lam", [1.0, 0.5])
def test_corrected_sinc_matches_closed_form(grid, lam):
    base = build_base_kernel("sinc", grid)
    corrected = build_deconvolution_kernel(base, laplace_noise(2.0), lam)
    off = corrected.offsets[0]
    exact = closed_form_corrected_sinc(off / lam, lam) / lam
    assert np.abs(corrected.values[0] - exact).max() < 1e-8


def test_corrected_kernel_center_value(grid):
    # 4/(3 pi) at unit bandwidth for the Laplace pair
    base = build_base_kernel("sinc", grid)
    corrected = build_deconvolution_kernel(base, laplace_noise(2.0), 1.0)
    center = corrected.evaluate(np.array([0.0]))[0]
    assert abs(center - 4.0 / (3.0 * np.pi)) < 1e-9


def test_bandwidth_below_spacing_rejected(grid):
    base = build_base_kernel("sinc", grid)
    with pytest.raises(ConfigurationError):
        build_deconvolution_kernel(base, laplace_noise(2.0), grid.spacing / 2)


def test_ill_posed_noise_rejected(grid):
    class VanishingNoise:
        kind = "laplace_like"

        def fourier(self, t):
            return np.full_like(np.asarray(t, dtype=float), 1e-15)

    base = build_base_kernel("sinc", grid)
    with pytest.raises(IllPosednessError):
        build_deconvolution_kernel(base, VanishingNoise(), 0.5)


@pytest.mark.parametrize("parity", ["odd", "even"])
def test_tables_are_exactly_even(grid, parity):
    lam = 0.25
    # the padded lattice offsets: odd length with a 0 node
    off = build_lattice(grid, laplace_noise(2.0), lam).kernel.offsets[0]
    if parity == "even":
        m = len(off) // 2
        off = (np.arange(2 * m) - (m - 0.5)) * grid.spacing
    base = build_base_kernel("order_m_flat_top", grid, offsets=off)
    corrected = build_deconvolution_kernel(base, laplace_noise(2.0), lam)
    for table in (base, corrected):
        vals = table.values[0]
        assert len(vals) % 2 == (parity == "odd")
        np.testing.assert_array_equal(vals, vals[::-1])


def test_asymmetric_offsets_rejected(grid):
    h = grid.spacing
    for off in (h * np.arange(0, 41), h * np.arange(-20, 21) + 0.25 * h,
                h * np.arange(-20, 22)):
        with pytest.raises(ConfigurationError):
            build_base_kernel("sinc", grid, offsets=off)


def _cos_sum_inversion(symbol_values, s_nodes, s_weights, offsets):
    """(1/pi) sum_s w(s) symbol(s) cos(s v): one cosine per offset and node."""
    coef = s_weights * symbol_values
    return np.concatenate([np.cos(np.outer(block, s_nodes)) @ coef
                           for block in np.array_split(offsets, 16)]) / np.pi


@pytest.mark.parametrize("parity", ["odd", "even"])
@pytest.mark.parametrize("noise", [dirac_noise(), laplace_noise(2.0)])
def test_split_inversion_matches_cos_sum(grid, parity, noise):
    # lambda 0.1 runs every chunk of block centres with S = 272 (sinc) and
    # 304 (flat-top) nodes, the last one with a single centre; 0.41 is the
    # laplace preset's bandwidth at n = 16384
    counts = {(0.1, "sinc"): 272, (0.1, "order_m_flat_top"): 304,
              (0.41, "sinc"): 80, (0.41, "order_m_flat_top"): 208}
    for lam in (0.1, 0.41):
        off = build_lattice(grid, laplace_noise(2.0), lam).kernel.offsets[0]
        if parity == "even":
            m = len(off) // 2
            off = (np.arange(2 * m) - (m - 0.5)) * grid.spacing
        assert len(off) == (25_195 if parity == "odd" else 25_194)
        for base_kind in ("sinc", "order_m_flat_top"):
            s_nodes, s_weights = _panel_rule(base_kind, 1.0 / lam, float(np.max(np.abs(off))))
            assert len(s_nodes) == counts[lam, base_kind]
            symbol = base_symbol(base_kind, lam * s_nodes) / noise.fourier(s_nodes)
            got = _invert_symbol(symbol, s_nodes, s_weights, off)
            want = _cos_sum_inversion(symbol, s_nodes, s_weights, off)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def _finer_rule_inversion(symbol, s_max, panels, offsets):
    """(1/pi) int_0^s_max symbol(s) cos(s v) ds on ``panels`` uniform
    panels of numpy's 16-point Gauss-Legendre rule."""
    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, s_max, panels + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    nodes, weights = (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()
    return _invert_symbol(symbol(nodes), nodes, weights, offsets)


@pytest.mark.parametrize("base_kind", ["sinc", "order_m_flat_top"])
@pytest.mark.parametrize("noise", [dirac_noise(), laplace_noise(2.0)])
def test_inversion_matches_a_finer_rule(grid, base_kind, noise):
    # every table within 1e-14 of its largest |value| of the same symbol on
    # a uniform rule with 8 times the panels: the flat-top ramp, which
    # starts at s = 1/(2 lambda), is integrated as finely as the
    # oscillation (uniform 2.5 rad panels left it 1.1e-13 off at lambda
    # 0.5 and 2.1e-12 at 0.6, the laplace preset's bandwidth at n = 256)
    off = build_lattice(grid, laplace_noise(2.0), 0.41).kernel.offsets[0]
    cases = [(lam, build_deconvolution_kernel(build_base_kernel(base_kind, grid, offsets=off),
                                              noise, lam)) for lam in (0.1, 0.41, 0.5, 0.6)]
    if noise.kind == "dirac":
        cases.append((1.0, build_base_kernel(base_kind, grid)))  # read at bandwidth 1
    for lam, kernel in cases:
        (o,), (got,) = kernel.offsets, kernel.values
        panels = len(_panel_rule(base_kind, 1.0 / lam, float(np.max(np.abs(o))))[0]) // 16
        want = _finer_rule_inversion(
            lambda s: base_symbol(base_kind, lam * s) / noise.fourier(s), 1.0 / lam,
            8 * panels, o)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), lam


def test_one_offset_grid_rejected():
    # one offset has no spacing: the base is refused where its offsets are
    # checked, not with an IndexError in a later inversion or integral
    with pytest.raises(ConfigurationError, match="two points"):
        build_base_kernel("sinc", Grid(points_per_dim=1024), offsets=[0.0])
    for off in ([], [[-1.0, 0.0, 1.0]]):
        with pytest.raises(ConfigurationError, match="two points"):
            build_base_kernel("sinc", Grid(points_per_dim=1024), offsets=off)
    # a zero or negative spacing (equal or decreasing offsets) is no grid either
    for off in ([0.0, 0.0], [1.0, 0.0, -1.0]):
        with pytest.raises(ConfigurationError, match="increasing"):
            build_base_kernel("sinc", Grid(points_per_dim=1024), offsets=off)


@pytest.mark.parametrize("length", [1, 2, 21, 64, 125, 126])
def test_inversion_of_a_partial_chunk_matches_cos_sum(grid, length):
    # fewer than 2R upper offsets: one block, cut short of its 2R values
    assert length - length // 2 < 2 * _HALF_BLOCK
    off = (np.arange(length) - (length - 1) / 2) * grid.spacing
    s_nodes, s_weights = _panel_rule("sinc", 1.0 / 0.1, float(np.max(np.abs(off))))
    symbol = base_symbol("sinc", 0.1 * s_nodes) / laplace_noise(2.0).fourier(s_nodes)
    got = _invert_symbol(symbol, s_nodes, s_weights, off)
    want = _cos_sum_inversion(symbol, s_nodes, s_weights, off)
    assert len(got) == length
    np.testing.assert_array_equal(got, got[::-1])
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_panel_rule_takes_numpys_gauss_legendre_rule():
    # the 16-point rule is held as constants, bit for bit leggauss(16):
    # on 4 panels of width 2 each panel's nodes are its midpoint plus the
    # rule's nodes, and its weights are the rule's weights
    x, w = np.polynomial.legendre.leggauss(16)
    nodes, weights = _gauss_rule(np.array([0.0, 2.0, 4.0, 6.0, 8.0]))
    assert np.array_equal(nodes, (np.array([1.0, 3.0, 5.0, 7.0])[:, None] + x).ravel())
    assert np.array_equal(weights, np.tile(w, 4))


def test_inversion_holds_no_offsets_by_nodes_block(grid):
    # the products run over chunks of T block centres, so no array spans
    # both the offsets and the nodes: the traced peak stays below 1.5 times
    # the M/64 x S block of a split over every 64th offset (which held 2.9)
    lam = 0.1
    off = build_lattice(grid, laplace_noise(2.0), lam).kernel.offsets[0]
    s_nodes, s_weights = _panel_rule("sinc", 1.0 / lam, float(np.max(np.abs(off))))
    symbol = base_symbol("sinc", lam * s_nodes) / laplace_noise(2.0).fourier(s_nodes)
    block = -(-(len(off) - len(off) // 2) // 64) * len(s_nodes) * 8
    tracemalloc.start()
    try:
        _invert_symbol(symbol, s_nodes, s_weights, off)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * block


def test_nonuniform_offsets_rejected(grid):
    # symmetric, but with a wide gap in each half, or a narrow one in the middle
    for units in ([-5.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 5.0],
                  [-2.25, -1.25, -0.25, 0.25, 1.25, 2.25]):
        off = grid.spacing * np.array(units)
        with pytest.raises(ConfigurationError, match="uniform"):
            build_base_kernel("sinc", grid, offsets=off)
    # a symmetric shift of two offsets: the tolerance is 1e-9 of the spacing
    h = grid.spacing
    for shift, ok in ((0.5e-9, True), (2e-9, False)):
        off = h * np.arange(-4.0, 5.0)
        off[1] += shift * h
        off[-2] -= shift * h
        if ok:
            build_base_kernel("sinc", grid, offsets=off)
        else:
            with pytest.raises(ConfigurationError, match="uniform"):
                build_base_kernel("sinc", grid, offsets=off)


def test_nonfinite_offsets_rejected(grid):
    # with the documented error, before the panel count is sized from the
    # largest offset, which would raise a bare ValueError or OverflowError
    h = grid.spacing
    for units in ([-1.0, np.nan, 1.0], [-np.inf, 0.0, np.inf]):
        with pytest.raises(ConfigurationError, match="finite"):
            build_base_kernel("sinc", grid, offsets=h * np.array(units))


def test_fft_roundtrip_of_tables(grid):
    base = build_base_kernel("sinc", grid)
    vals = base.values[0]
    roundtrip = np.fft.ifft(np.fft.fft(vals)).real
    assert np.abs(roundtrip - vals).max() < 1e-10


# ---------------------------------------------------------------------------
# Fourier-domain diagnostics
# ---------------------------------------------------------------------------

def test_fourier_sup_dirac():
    assert abs(kernel_fourier_sup("sinc", dirac_noise(), 0.3) - 1.0) < 1e-10


def test_fourier_sup_laplace_value():
    # sup over the band of (1 + t^2) = 1 + lam^(-2)
    val = kernel_fourier_sup("sinc", laplace_noise(2.0), 0.1)
    assert abs(val - 101.0) < 1e-6
    assert 50.0 < val < 200.0  # within a factor 2 of lam^(-2)


def test_fourier_sup_halving_scaling():
    noise = laplace_noise(2.0)
    lams = np.array([0.4, 0.2, 0.1, 0.05])
    vals = np.array([kernel_fourier_sup("sinc", noise, l) for l in lams])
    slopes = np.diff(np.log(vals)) / np.diff(np.log(lams))
    assert np.all(np.abs(slopes + 2.0) < 0.3)


def test_fourier_sup_loglog_slope_matches_decay():
    for beta in (2.0, 4.0):
        noise = laplace_noise(beta)
        lams = np.array([0.3, 0.2, 0.12, 0.08])
        vals = np.array([kernel_fourier_sup("sinc", noise, l) for l in lams])
        slope = np.polyfit(np.log(lams), np.log(vals), 1)[0]
        assert abs(slope + beta) < 0.3


def test_fourier_l2_scaling():
    # L2 norm of the corrected kernel grows like lam^-(beta + 1/2)
    noise = laplace_noise(2.0)
    lams = np.array([0.2, 0.1, 0.05, 0.025])
    vals = np.array([kernel_fourier_l2("sinc", noise, l) for l in lams])
    slope = np.polyfit(np.log(lams), np.log(vals), 1)[0]
    assert abs(slope + 2.5) < 0.3


def test_csv_export(tmp_path, grid):
    base = build_base_kernel("sinc", grid)
    path = tmp_path / "kernel.csv"
    base.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "axis,offset,value"
    assert len(rows) == 1 + len(base.offsets[0])
