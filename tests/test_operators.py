import numpy as np
import pytest

from indirect_erm import (
    ModelError,
    NoisySample,
    SpectralOperator,
    SvdBackend,
    apply_operator,
    contaminate,
    dirac_noise,
    laplace_noise,
    make_margin_scenario,
    sample_density,
    sampler_table,
    threshold_grid,
)
from indirect_erm import operators
from indirect_erm.operators import cosine_basis
from oracles import reference_basis, reference_quantile, reference_sample_density


def uniform_coeffs(k_max=64):
    vals = np.zeros(k_max + 1)
    vals[0] = 1.0
    return vals


# ---------------------------------------------------------------------------
# contamination
# ---------------------------------------------------------------------------

def test_dirac_contamination_identity(rng):
    x = rng.random(1000)
    z = contaminate(x, dirac_noise(), 7)
    assert np.array_equal(z, x)


def test_laplace_contamination_moments():
    x = np.zeros(200_000)
    z = contaminate(x, laplace_noise(2.0), 7)
    n = z.size
    assert abs(z.mean()) < 3.0 * np.sqrt(2.0 / n)
    assert abs(z.var() - 2.0) < 3.0 * 20.0 / np.sqrt(n)


def test_contamination_seed_determinism():
    x = np.linspace(0, 1, 512)
    a = contaminate(x, laplace_noise(4.0), 42)
    b = contaminate(x, laplace_noise(4.0), 42)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# spectral operator
# ---------------------------------------------------------------------------

def test_basis_orthonormal_under_quadrature(grid):
    x, w = grid.axis(), grid.weights()
    phi = cosine_basis(x, 64)
    gram = (phi * w) @ phi.T
    assert np.abs(gram - np.eye(65)).max() < 1e-6


def test_basis_matches_direct_cosines():
    # the Chebyshev recurrence against sqrt(2) cos(pi k x), endpoints included
    x = np.concatenate([np.linspace(0.0, 1.0, 1025),
                        np.random.default_rng(5).random(4000)])
    phi = cosine_basis(x, 64)
    assert phi.shape == (65, x.size)
    assert np.all(phi[0] == 1.0)
    assert np.abs(phi - reference_basis(x, 64)).max() < 1e-12


def test_basis_edge_cases():
    x = np.array([0.0, 0.3, 1.0])
    assert np.array_equal(cosine_basis(x, 0), np.ones((1, 3)))
    assert cosine_basis(np.array([]), 5).shape == (6, 0)  # a label with no draws
    assert cosine_basis(np.array([]), 0).shape == (1, 0)


def test_basis_takes_one_cos_per_point(monkeypatch, grid):
    # the basis, and the spectral Lipschitz step's Gram matrix of the
    # pooled draws, which reads the cosine sums up to 2N off N + 1 rows
    sizes = []
    original = np.cos

    def counted(arg, *args, **kwargs):
        sizes.append(np.size(arg))
        return original(arg, *args, **kwargs)

    monkeypatch.setattr(operators.np, "cos", counted)
    x = np.random.default_rng(2).random(300)
    cosine_basis(x, 6)
    assert sizes == [x.size]
    backend = SvdBackend(operator=SpectralOperator(k_max=64), cutoff=64, grid=grid)
    sizes.clear()
    backend.squared_differences(threshold_grid(9, grid), [0, 2], [1, 8],
                                NoisySample((x[:120], x[120:])))
    assert sizes == [x.size]


def test_singular_values():
    op = SpectralOperator(decay=1.0, k_max=8)
    b = op.singular_values
    assert b[0] == 1.0
    assert abs(b[3] - 1.0 / 3.0) < 1e-15
    assert np.all(np.diff(b) <= 0) and np.all(b > 0)


def test_apply_operator_uniform_identity(grid):
    op = SpectralOperator(decay=1.0, k_max=64)
    vals = apply_operator(uniform_coeffs(), op, grid)
    assert np.abs(vals - 1.0).max() < 1e-12


def test_apply_operator_scales_coefficients(grid):
    op = SpectralOperator(decay=1.0, k_max=64)
    coeffs = np.zeros(65)
    coeffs[0] = 1.0
    coeffs[3] = 0.1
    vals = apply_operator(coeffs, op, grid)
    x, w = grid.axis(), grid.weights()
    phi3 = np.sqrt(2.0) * np.cos(3.0 * np.pi * x)
    extracted = float(np.dot(w, vals * phi3))
    assert abs(extracted - 0.1 / 3.0) < 1e-10
    assert abs(grid.integrate(vals) - 1.0) < 1e-6


def test_apply_operator_positivity_guard(grid):
    op = SpectralOperator(decay=1.0, k_max=64)
    coeffs = np.zeros(65)
    coeffs[0] = 1.0
    coeffs[1] = 0.9  # sqrt(2) * 0.9 > 1 violates the guard
    with pytest.raises(ModelError):
        apply_operator(coeffs, op, grid)


@pytest.mark.parametrize("k, value", [(0, 0.5), (3, np.nan), (3, np.inf)])
def test_apply_operator_rejects_bad_coefficients(grid, k, value):
    # theta_0 other than 1 is not unit mass; coefficients must be finite
    coeffs = np.zeros(65)
    coeffs[0] = 1.0
    coeffs[k] = value
    with pytest.raises(ModelError):
        apply_operator(coeffs, SpectralOperator(decay=1.0, k_max=64), grid)


def test_self_adjoint_roundtrip(grid, linear_scenario):
    # coefficients of the operator image are b_k theta_k
    op = SpectralOperator(decay=1.0, k_max=64)
    theta = linear_scenario.cosine_coefficients(1, 64)
    vals = apply_operator(theta, op, grid)
    x, w = grid.axis(), grid.weights()
    phi = cosine_basis(x, 64)
    extracted = (phi * w) @ vals
    assert np.abs(extracted - op.singular_values * theta).max() < 1e-8


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_density_uniform_ks(grid):
    values = np.ones(grid.points_per_dim)
    draws = sample_density(sampler_table(values, grid), 10_000, 5)
    ecdf_dev = np.abs(np.sort(draws) - (np.arange(1, 10_001) - 0.5) / 10_000).max()
    assert ecdf_dev < 1.36 / np.sqrt(10_000)  # 95% band


def test_sample_density_spike(grid):
    values = np.zeros(grid.points_per_dim)
    values[500] = 1.0
    values[501] = 1.0
    draws = sample_density(sampler_table(values, grid), 200, 5)
    x = grid.axis()
    assert np.all((draws >= x[499]) & (draws <= x[502]))


def test_sample_density_determinism(grid):
    values = np.ones(grid.points_per_dim)
    a = sample_density(sampler_table(values, grid), 100, 11)
    b = sample_density(sampler_table(values, grid), 100, 11)
    assert np.array_equal(a, b)


def test_sample_density_negative_rejected(grid):
    values = -np.ones(grid.points_per_dim)
    with pytest.raises(ModelError):
        sample_density(sampler_table(values, grid), 10, 0)


def test_sampler_table_zero_mass_rejected(grid):
    with pytest.raises(ModelError):
        sampler_table(np.zeros(grid.points_per_dim), grid)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sampler_table_non_finite_rejected(grid, bad):
    # NaN passes both a sign test and a mass test, and would make every draw NaN
    values = np.ones(grid.points_per_dim)
    values[7] = bad
    with pytest.raises(ModelError):
        sampler_table(values, grid)


def sampler_densities(grid):
    """Densities that stress the guide table, by name."""
    op = SpectralOperator(decay=1.0, k_max=64)
    linear = make_margin_scenario(1, op, grid=grid)
    out = {f"svd image {y}": apply_operator(linear.cosine_coefficients(y, 64), op, grid)
           for y in (0, 1)}
    # near-zero tails put many CDF nodes in one guide cell; x_star tilts the
    # priors, so both crossings give the same pair of densities
    for x_star in (0.5, 0.3):
        smooth = make_margin_scenario(1, dirac_noise(), family="smooth", x_star=x_star,
                                      grid=grid)
        out.update({f"smooth {x_star} {y}": smooth.density_values(y) for y in (0, 1)})
    spike = np.zeros(grid.points_per_dim)
    spike[500:502] = 1.0  # flat CDF stretches on both sides
    out["spike"] = spike
    out["underflowing tail"] = np.exp(-((grid.axis() - 0.5) / 0.01) ** 2)
    out["uniform"] = np.ones(grid.points_per_dim)
    return out


@pytest.mark.parametrize("n", [1, 256, 16384, 200_000])
def test_sample_density_matches_reference(grid, n):
    for name, values in sampler_densities(grid).items():
        table = sampler_table(values, grid)
        for seed in (0, 7, 2024):
            assert np.array_equal(sample_density(table, n, seed),
                                  reference_sample_density(values, grid, n, seed)), name


def test_sampler_quantile_matches_reference_at_edges(grid):
    # every guide-cell edge, every CDF node value and its two neighbours,
    # and the largest uniform below 1
    densities = sampler_densities(grid)
    assert (densities["underflowing tail"] == 0).sum() > 400
    crowded = max(np.diff(sampler_table(densities[f"smooth {x_star} 1"], grid).guide).max()
                  for x_star in (0.5, 0.3))
    assert crowded > 60  # CDF nodes inside the most crowded guide cell
    for name, values in densities.items():
        table = sampler_table(values, grid)
        edges = np.arange(len(table.guide)) / len(table.guide)
        u = np.concatenate([edges, table.cdf, np.nextafter(table.cdf, 0.0),
                            np.nextafter(table.cdf, 1.0), [np.nextafter(1.0, 0.0)]])
        u = u[(u >= 0.0) & (u < 1.0)]
        assert np.array_equal(table.quantile(u), reference_quantile(values, grid, u)), name


# ---------------------------------------------------------------------------
# coefficient estimation: the spectral backend's features are the
# estimates b_k^(-1) * mean(phi_k(Z_i)), k = 0..cutoff
# ---------------------------------------------------------------------------

def svd_features(z, op, cutoff, grid):
    # every draw labeled 0, so the signed statistic is that label's estimates
    backend = SvdBackend(operator=op, cutoff=cutoff, grid=grid)
    return backend.features(None, NoisySample((z, np.empty(0))))[0]


def test_estimate_uniform_coefficients(rng, grid):
    op = SpectralOperator(decay=1.0, k_max=16)
    z = rng.random(50_000)
    est = svd_features(z, op, 8, grid)
    assert est[0] == 1.0  # phi_0 = 1 exactly
    n = z.size
    for k in range(1, 9):
        band = 3.0 * (k ** 1.0) * np.sqrt(1.0 / n)
        assert abs(est[k]) < band


def test_estimate_single_point(grid):
    op = SpectralOperator(decay=0.0, k_max=4)
    est = svd_features(np.array([0.5]), op, 1, grid)
    assert abs(est[1] - np.sqrt(2.0) * np.cos(np.pi / 2.0)) < 1e-12


def test_unbiasedness_under_operator_image(grid, linear_scenario):
    # E theta_hat_k = theta_k when Z is drawn from the operator image
    op = SpectralOperator(decay=1.0, k_max=64)
    theta = linear_scenario.cosine_coefficients(1, 64)
    image = apply_operator(theta, op, grid)
    n = 100_000
    z = sample_density(sampler_table(image, grid), n, 17)
    est = svd_features(z, op, 8, grid)
    for k in (1, 2, 3):
        phi_k = np.sqrt(2.0) * np.cos(np.pi * k * z)
        se = phi_k.std(ddof=1) / np.sqrt(n) * k  # b_k^(-1) rescale
        assert abs(est[k] - theta[k]) < 3.0 * se + 1e-4


def test_beta_zero_is_projection(rng, grid):
    # identity operator: estimates are plain projection coefficients
    op = SpectralOperator(decay=0.0, k_max=16)
    z = rng.random(20_000)
    est = svd_features(z, op, 6, grid)
    phi = cosine_basis(z, 6)
    assert np.allclose(est, phi.mean(axis=1), atol=1e-12)
