"""Build smoothing kernels and their noise-corrected versions.

Walks through the kernel toolbox: band-limited base kernels, Laplace-type
noise models, Fourier-domain correction at a chosen bandwidth, and the
closed-form oracle available for the sinc/Laplace pair.
"""

import numpy as np

from indirect_erm import (
    Grid,
    build_base_kernel,
    build_deconvolution_kernel,
    dirac_noise,
    kernel_fourier_sup,
    laplace_noise,
)


def closed_form(u, lam):
    """(1/pi) int_0^1 (1 + t^2/lam^2) cos(t u) dt; below |u| = 1, where the
    closed form cancels, its cosine series to 20 terms."""
    small = np.abs(u) < 1.0
    safe = np.where(small, 1.0, u)
    s, c = np.sin(safe), np.cos(safe)
    val = s / (np.pi * safe) + (1.0 / (2.0 * np.pi * lam ** 2)) * (
        2.0 * s / safe + 4.0 * c / safe ** 2 - 4.0 * s / safe ** 3)
    k = np.arange(20)
    signed = np.cumprod(np.r_[1.0, -1.0 / ((2 * k[1:] - 1) * 2 * k[1:])])  # (-1)^k / (2k)!
    series = np.polynomial.polynomial.polyval(
        u * u, signed * (1.0 / (2 * k + 1) + 1.0 / (lam ** 2 * (2 * k + 3)))) / np.pi
    return np.where(small, series, val)


def main():
    grid = Grid(points_per_dim=1024)
    print("== base kernels ==")
    for kind in ("sinc", "order_m_flat_top"):
        base = build_base_kernel(kind, grid)
        center = base.evaluate(np.array([0.0]))[0]
        print(f"{kind:18s} K(0) = {center:.5f}   windowed integral = {base.integral():.4f}")

    print("\n== noise models ==")
    for beta in (2.0, 4.0, 6.0):
        noise = laplace_noise(beta)
        print(f"laplace decay {beta}: std = {noise.std:.3f}, "
              f"F[eta](1) = {noise.fourier(np.array([1.0]))[0]:.4f}")

    print("\n== corrected kernel vs closed form (sinc + Laplace decay 2) ==")
    base = build_base_kernel("sinc", grid)
    noise = laplace_noise(2.0)
    for lam in (1.0, 0.5, 0.25):
        corrected = build_deconvolution_kernel(base, noise, lam)
        off = corrected.offsets[0]
        err = np.abs(corrected.values - closed_form(off / lam, lam) / lam).max()
        sup = kernel_fourier_sup("sinc", noise, lam)
        print(f"lam = {lam:4.2f}: sup err vs closed form = {err:.2e}, "
              f"band amplification = {sup:8.2f}")

    corrected = build_deconvolution_kernel(base, noise, 0.5)
    corrected.to_csv("corrected_kernel.csv")
    print("\nwrote corrected_kernel.csv (offset, value) for plotting")

    identity = build_deconvolution_kernel(base, dirac_noise(), 1.0)
    drift = np.abs(identity.values - base.values).max()
    print(f"dirac noise sanity: corrected == base kernel to {drift:.1e}")


if __name__ == "__main__":
    main()
