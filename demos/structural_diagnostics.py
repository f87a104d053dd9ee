"""Measure the structural constants behind the convergence rates.

Sweeps the smoothing parameter and fits log-log slopes of the measured
Lipschitz constant, the certified uniform bound, and the approximation
(bias) function, for the kernel and the spectral-cutoff routes; also
reports the Bernstein ratio of the excess-loss class and the root-n decay
of the empirical-process modulus.
"""

import numpy as np

from indirect_erm import (
    Grid,
    LossSpec,
    SpectralOperator,
    Scenario,
    build_lattice,
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
    sup_bound_deconv,
    sup_bound_svd,
)
from indirect_erm.hypotheses import (
    HypothesisClass,
    ThresholdClassifier,
    bayes_in_class,
    snap_to_cell_midpoint,
    structural_pair_priors,
    _TENT_CROSSING,
)
from indirect_erm.erm import DeconvolutionBackend, SvdBackend


def neighbor_pairs(hclass, per_scale=5):
    """Index pairs of neighbors at geometric spacings."""
    pairs, step = [], 1
    while step < len(hclass):
        for i in range(0, len(hclass) - step, max(1, (len(hclass) - step) // per_scale)):
            pairs.append((i, i + step))
        step *= 2
    return pairs


def scan_class(grid, center):
    offsets = [0.0015 * 1.3 ** j for j in range(15)]
    clfs = [ThresholdClassifier(snap_to_cell_midpoint(center + s * sign, grid))
            for s in offsets for sign in (1, -1)]
    clfs.append(ThresholdClassifier(snap_to_cell_midpoint(center, grid)))
    return HypothesisClass(tuple(clfs)), len(clfs) - 1


def slope(xs, vals):
    return fit_rate_slope([(x, v, 0.0) for x, v in zip(xs, vals)])[0]


def main():
    grid = Grid(points_per_dim=1024)
    loss = LossSpec("hard")
    noise = laplace_noise(2.0)
    scenario = Scenario(priors=structural_pair_priors(), densities="tent_pair",
                        contamination=noise, alpha=1.0, gamma=1.0, domain=grid)
    hclass = threshold_grid(33, grid)
    pairs = neighbor_pairs(hclass)
    probe, probe_star = scan_class(grid, _TENT_CROSSING)

    print("== kernel route (Laplace noise, total decay 2) ==")
    lams = [0.05, 0.075, 0.11, 0.17, 0.25]
    lips, bounds = [], []
    for lam in lams:
        lattice = build_lattice(grid, noise, lam)
        backend = DeconvolutionBackend(lattice=lattice, loss=loss)
        lips.append(float(empirical_lipschitz(scenario, backend, hclass, pairs,
                                              10_000, seed=5).max()))
        bounds.append(sup_bound_deconv(lattice, hclass, loss, grid))
    bias_lams = [0.02, 0.03, 0.045, 0.068, 0.1]
    bias = [empirical_bias_deconv(scenario, build_lattice(grid, noise, lam),
                                  probe, probe_star, loss)
            for lam in bias_lams]
    print(f"Lipschitz slope {slope(lams, lips):+.2f} (theory -2)")
    print(f"uniform-bound slope {slope(lams, bounds):+.2f} (theory -2.5)")
    print(f"bias slope {slope(bias_lams, bias):+.2f} (theory +2)")

    print("\n== spectral route (operator decay 1) ==")
    op = SpectralOperator(decay=1.0, k_max=64)
    sc_linear = make_margin_scenario(1, op, grid=grid)
    sc_tent = Scenario(priors=structural_pair_priors(), densities="tent_pair",
                       contamination=op, alpha=1.0, gamma=1.0, domain=grid)
    cutoffs = [4, 6, 9, 14, 21, 32]
    lips, bounds = [], []
    for cutoff in cutoffs:
        backend = SvdBackend(operator=op, cutoff=cutoff, grid=grid, loss=loss)
        lips.append(float(empirical_lipschitz(sc_linear, backend, hclass, pairs,
                                              10_000, seed=5).max()))
        bounds.append(sup_bound_svd(op, cutoff, hclass, loss, grid))
    bias_cutoffs = [6, 9, 14, 21, 32, 48]
    bias = [empirical_bias_svd(sc_tent, op, cutoff, probe, probe_star, loss)
            for cutoff in bias_cutoffs]
    print(f"Lipschitz slope {slope(cutoffs, lips):+.2f} (theory +1)")
    print(f"uniform-bound slope {slope(cutoffs, bounds):+.2f} (theory +1.5)")
    print(f"bias slope {slope(bias_cutoffs, bias):+.2f} (theory -2)")

    print("\n== excess-loss geometry ==")
    sc_lin = make_margin_scenario(1, laplace_noise(2.0), grid=grid)
    star, _, _ = bayes_in_class(hclass, sc_lin, loss)
    print(f"Bernstein ratio (linear margin family): "
          f"{bernstein_ratio(sc_lin, hclass, star, loss):.3f}")

    backend = DeconvolutionBackend(lattice=build_lattice(grid, noise, 0.25), loss=loss)
    small = threshold_grid(9, grid)
    ns = (200, 800, 3200)
    values = [empirical_modulus(sc_lin, backend, small, 0.6, n, 20, seed=7) for n in ns]
    print(f"modulus decay in n: slope {slope(ns, values):+.2f} (theory -0.5)")


if __name__ == "__main__":
    main()
