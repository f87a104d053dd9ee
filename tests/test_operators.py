import numpy as np
import pytest

from indirect_erm import (
    CoefficientVector,
    LossSpec,
    ModelError,
    SpectralOperator,
    SvdBackend,
    apply_operator,
    contaminate,
    dirac_noise,
    laplace_noise,
    sample_density,
)


def uniform_coeffs(k_max=64):
    vals = np.zeros(k_max + 1)
    vals[0] = 1.0
    return CoefficientVector(vals)


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
    op = SpectralOperator(decay=1.0, k_max=64)
    x, w = grid.axis(), grid.weights()
    phi = op.basis(x)
    gram = (phi * w) @ phi.T
    assert np.abs(gram - np.eye(65)).max() < 1e-6


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
    vals = apply_operator(CoefficientVector(coeffs), op, grid)
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
        apply_operator(CoefficientVector(coeffs), op, grid)


def test_self_adjoint_roundtrip(grid, linear_scenario):
    # coefficients of the operator image are b_k theta_k
    op = SpectralOperator(decay=1.0, k_max=64)
    theta = linear_scenario.cosine_coefficients(1, 64)
    vals = apply_operator(CoefficientVector(theta), op, grid)
    x, w = grid.axis(), grid.weights()
    phi = op.basis(x)
    extracted = (phi * w) @ vals
    assert np.abs(extracted - op.singular_values * theta).max() < 1e-8


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_density_uniform_ks(grid):
    values = np.ones(grid.points_per_dim)
    draws = sample_density(values, grid, 10_000, 5)
    ecdf_dev = np.abs(np.sort(draws) - (np.arange(1, 10_001) - 0.5) / 10_000).max()
    assert ecdf_dev < 1.36 / np.sqrt(10_000)  # 95% band


def test_sample_density_spike(grid):
    values = np.zeros(grid.points_per_dim)
    values[500] = 1.0
    values[501] = 1.0
    draws = sample_density(values, grid, 200, 5)
    x = grid.axis()
    assert np.all((draws >= x[499]) & (draws <= x[502]))


def test_sample_density_determinism(grid):
    values = np.ones(grid.points_per_dim)
    a = sample_density(values, grid, 100, 11)
    b = sample_density(values, grid, 100, 11)
    assert np.array_equal(a, b)


def test_sample_density_negative_rejected(grid):
    values = -np.ones(grid.points_per_dim)
    with pytest.raises(ModelError):
        sample_density(values, grid, 10, 0)


# ---------------------------------------------------------------------------
# coefficient estimation: the spectral backend's features are the
# estimates b_k^(-1) * mean(phi_k(Z_i)), k = 0..cutoff
# ---------------------------------------------------------------------------

def svd_features(z, op, cutoff, grid):
    return SvdBackend(operator=op, cutoff=cutoff, grid=grid, loss=LossSpec()).features(z)


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
    image = apply_operator(CoefficientVector(theta), op, grid)
    n = 100_000
    z = sample_density(image, grid, n, 17)
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
    phi = op.basis(z, 6)
    assert np.allclose(est, phi.mean(axis=1), atol=1e-12)
