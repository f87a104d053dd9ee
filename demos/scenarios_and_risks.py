"""Classification scenarios, exact risk quadrature, and in-class oracles.

Shows the shipped density families, how priors move the regression
crossing, and how the exhaustive in-class risk minimizer recovers it.
"""

import numpy as np

from indirect_erm import (
    Grid,
    bayes_in_class,
    laplace_noise,
    make_margin_scenario,
    threshold_grid,
)
from indirect_erm.hypotheses import (
    HypothesisClass,
    ThresholdClassifier,
    snap_to_cell_midpoint,
    true_risks,
)


def main():
    grid = Grid(points_per_dim=1024)

    print("== linear margin scenario (closed-form risks) ==")
    scenario = make_margin_scenario(1, laplace_noise(2.0), grid=grid)
    thresholds = [snap_to_cell_midpoint(t, grid) for t in (0.3, 0.5, 0.7)]
    risks = true_risks(HypothesisClass([ThresholdClassifier(s) for s in thresholds]), scenario)
    for t, snapped, risk in zip((0.3, 0.5, 0.7), thresholds, risks):
        exact = (snapped ** 2 + (1 - snapped) ** 2) / 2
        print(f"threshold {t:.1f}: quadrature risk {risk:.6f}, exact {exact:.6f}")

    print("\n== oracle recovery across crossing locations ==")
    hclass = threshold_grid(201, grid)
    for x_star in (0.3, 0.5, 0.65):
        scenario = make_margin_scenario(1, laplace_noise(2.0), x_star=x_star, grid=grid)
        idx, star, risk = bayes_in_class(hclass, scenario)
        print(f"crossing at {x_star:4.2f}: oracle threshold {star.threshold:.4f}, "
              f"risk {risk:.4f}")

    print("\n== smooth family (edge-vanishing Beta pair) ==")
    scenario = make_margin_scenario(1, laplace_noise(2.0), family="smooth",
                                    gamma=2.0, sharpness=1.3, grid=grid)
    x = grid.axis()
    for label in (0, 1):
        dens = scenario.density(label, x)
        print(f"f_{label}: mass {grid.integrate(dens):.6f}, peak {dens.max():.3f}, "
              f"edge values ({dens[0]:.1e}, {dens[-1]:.1e})")
    idx, star, risk = bayes_in_class(threshold_grid(201, grid), scenario)
    print(f"oracle threshold {star.threshold:.4f}, in-class risk {risk:.5f}")

    print("\n== margin calibration (exponent 1) ==")
    rng = np.random.default_rng(0)
    draws = rng.random(200_000)  # marginal is uniform for the linear member
    for t in (0.1, 0.2, 0.4):
        prop = np.mean(np.abs(2 * draws - 1) <= t)
        print(f"P(|2 eta(X) - 1| <= {t:.1f}) = {prop:.4f} (linear margin: = {t:.1f})")


if __name__ == "__main__":
    main()
