"""One end-to-end fit from contaminated observations, both backends.

Draws a labeled sample whose inputs are hidden behind additive Laplace
noise (or behind a compact operator), builds the regularized empirical
risk at the rule-selected smoothing parameter, scans a threshold family,
and compares the chosen classifier with the in-class oracle.
"""

import json

import numpy as np

from indirect_erm import (
    DeconvolutionBackend,
    Grid,
    RateConfig,
    SpectralOperator,
    SvdBackend,
    bayes_in_class,
    build_lattice,
    laplace_noise,
    make_margin_scenario,
    minimize,
    select_bandwidth,
    select_cutoff,
    threshold_grid,
)
from indirect_erm.hypotheses import true_risks
from indirect_erm.simulation import generate_sample


def main():
    grid = Grid(points_per_dim=1024)
    hclass = threshold_grid(101, grid)
    n = 16384  # single fits scatter widely at smaller n under heavy noise

    print("== kernel backend: additive Laplace noise ==")
    noise = laplace_noise(2.0)
    scenario = make_margin_scenario(1, noise, family="smooth", gamma=2.0,
                                    sharpness=1.3, grid=grid)
    cfg = RateConfig(kappa=2.0, rho=0.5, gamma=2.0, beta_bar=2.0,
                     bias_variant="squared_loss")
    bandwidth = select_bandwidth(cfg, n)
    print(f"rule-selected bandwidth at n={n}: {bandwidth:.4f}")
    sample = generate_sample(scenario, n, np.random.default_rng(42))
    lattice = build_lattice(grid, noise, bandwidth, base_kind="order_m_flat_top")
    fit = minimize(hclass, sample, DeconvolutionBackend(lattice=lattice))
    _, star, star_risk = bayes_in_class(hclass, scenario)
    chosen_risk = true_risks(hclass, scenario)[fit.index]
    print(f"chosen threshold {fit.classifier.threshold:.4f} "
          f"(oracle {star.threshold:.4f})")
    print(f"excess risk {chosen_risk - star_risk:.5f}; "
          f"empirical risk at the minimum {fit.empirical_risk:.5f}")
    print("fit record:", json.dumps(fit.to_json(), sort_keys=True))

    print("\n== spectral backend: operator-contaminated observations ==")
    operator = SpectralOperator(decay=1.0, k_max=64)
    scenario = make_margin_scenario(1, operator, grid=grid)
    cfg = RateConfig(kappa=2.0, rho=0.5, gamma=1.0, beta_bar=1.0)
    cutoff = select_cutoff(cfg, n)
    print(f"rule-selected cutoff at n={n}: {cutoff}")
    sample = generate_sample(scenario, n, np.random.default_rng(43))
    fit = minimize(hclass, sample,
                   SvdBackend(operator=operator, cutoff=cutoff, grid=grid))
    _, star, star_risk = bayes_in_class(hclass, scenario)
    chosen_risk = true_risks(hclass, scenario)[fit.index]
    print(f"chosen threshold {fit.classifier.threshold:.4f} "
          f"(oracle {star.threshold:.4f}); excess {chosen_risk - star_risk:.5f}")


if __name__ == "__main__":
    main()
