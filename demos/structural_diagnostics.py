"""Measure the structural constants behind the convergence rates.

Sweeps the smoothing parameter and fits log-log slopes of the measured
Lipschitz constant, the certified uniform bound, and the approximation
(bias) function, for the kernel and the spectral-cutoff routes; also
reports the Bernstein ratio of the excess-loss class and the root-n decay
of the empirical-process modulus.

``structural_pair_priors`` and ``empirical_modulus`` live here, with this
script as their one caller; no command of the package reaches them.
"""

import logging

import numpy as np

from indirect_erm import (
    Grid,
    SpectralOperator,
    Scenario,
    build_lattice,
    laplace_noise,
    make_margin_scenario,
    threshold_grid,
)
from indirect_erm.diagnostics import (
    _loss_distance_sq,
    bernstein_ratio,
    empirical_bias_deconv,
    empirical_bias_svd,
    empirical_lipschitz,
    fit_rate_slope,
    sup_bound_deconv,
    sup_bound_svd,
)
from indirect_erm.errors import ConfigurationError
from indirect_erm.hypotheses import (
    HypothesisClass,
    ThresholdClassifier,
    _density_tent_pair,
    bayes_in_class,
    snap_to_cell_midpoint,
)
from indirect_erm.erm import DeconvolutionBackend, SvdBackend, empirical_risks, expected_risks
from indirect_erm.simulation import generate_sample

logger = logging.getLogger(__name__)

# the regression crossing of the ``tent_pair`` family: the peak of its
# label-0 tent
_TENT_CROSSING = 0.45


def structural_pair_priors() -> tuple[float, float]:
    """Priors putting the structural-pair regression crossing at its design point."""
    xc = np.array([_TENT_CROSSING])
    f1 = float(_density_tent_pair(1, xc, {})[0])
    f0 = float(_density_tent_pair(0, xc, {})[0])
    p1 = f0 / (f0 + f1)
    return (1.0 - p1, p1)


def empirical_modulus(scenario, backend, hclass, delta: float, n: int, mc_reps: int,
                      seed) -> float:
    """Monte-Carlo modulus of continuity of the centered empirical process.

    Average over replications of the sup, over classifier pairs whose raw
    loss distance under nu_y is at most delta, of |empirical - expected|
    regularized risk difference. Both risks come from the backend; the
    expected ones (``expected_risks``) are exact on the spectral backend and
    the deconvolution identity's lattice quadrature on the kernel backend.
    """
    if delta < 0:
        raise ConfigurationError("delta must be nonnegative")
    i, j = np.triu_indices(len(hclass), 1)
    near = np.sqrt(_loss_distance_sq(scenario, hclass, i, j)) <= delta
    i, j = i[near], j[near]
    if not i.size:
        logger.warning("no classifier pair within delta=%g; modulus is 0", delta)
        return 0.0
    expected = expected_risks(hclass, scenario, backend)
    rng = np.random.default_rng(seed)
    sups = []
    for _ in range(mc_reps):
        emp = empirical_risks(hclass, generate_sample(scenario, n, rng), backend)
        sups.append(float(np.max(np.abs((emp[i] - emp[j]) - (expected[i] - expected[j])))))
    return float(np.mean(sups))


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
    noise = laplace_noise(2.0)
    scenario = Scenario(priors=structural_pair_priors(), densities="tent_pair",
                        contamination=noise, alpha=1.0, gamma=1.0, domain=grid)
    hclass = threshold_grid(33, grid)
    pairs = neighbor_pairs(hclass)
    probe, probe_star = scan_class(grid, _TENT_CROSSING)

    def deconv(lam):
        return DeconvolutionBackend(lattice=build_lattice(grid, noise, lam))

    print("== kernel route (Laplace noise, total decay 2) ==")
    lams = [0.05, 0.075, 0.11, 0.17, 0.25]
    lips, bounds = [], []
    mc_sample = generate_sample(scenario, 10_000, np.random.default_rng(5))
    for lam in lams:
        backend = deconv(lam)
        lips.append(float(empirical_lipschitz(scenario, backend, hclass, pairs, mc_sample).max()))
        bounds.append(sup_bound_deconv(backend, hclass))
    bias_lams = [0.02, 0.03, 0.045, 0.068, 0.1]
    bias = [empirical_bias_deconv(scenario, deconv(lam), probe, probe_star)
            for lam in bias_lams]
    print(f"Lipschitz slope {slope(lams, lips):+.2f} (theory -2)")
    print(f"uniform-bound slope {slope(lams, bounds):+.2f} (theory -2.5)")
    print(f"bias slope {slope(bias_lams, bias):+.2f} (theory +2)")

    print("\n== spectral route (operator decay 1) ==")
    op = SpectralOperator(decay=1.0, k_max=64)
    sc_linear = make_margin_scenario(1, op, grid=grid)
    sc_tent = Scenario(priors=structural_pair_priors(), densities="tent_pair",
                       contamination=op, alpha=1.0, gamma=1.0, domain=grid)

    def svd(cutoff):
        return SvdBackend(operator=op, cutoff=cutoff, grid=grid)

    cutoffs = [4, 6, 9, 14, 21, 32]
    lips, bounds = [], []
    mc_sample = generate_sample(sc_linear, 10_000, np.random.default_rng(5))
    for cutoff in cutoffs:
        backend = svd(cutoff)
        lips.append(float(empirical_lipschitz(sc_linear, backend, hclass, pairs,
                                              mc_sample).max()))
        bounds.append(sup_bound_svd(backend, hclass))
    bias_cutoffs = [6, 9, 14, 21, 32, 48]
    bias = [empirical_bias_svd(sc_tent, svd(cutoff), probe, probe_star)
            for cutoff in bias_cutoffs]
    print(f"Lipschitz slope {slope(cutoffs, lips):+.2f} (theory +1)")
    print(f"uniform-bound slope {slope(cutoffs, bounds):+.2f} (theory +1.5)")
    print(f"bias slope {slope(bias_cutoffs, bias):+.2f} (theory -2)")

    print("\n== excess-loss geometry ==")
    sc_lin = make_margin_scenario(1, laplace_noise(2.0), grid=grid)
    star, _, _ = bayes_in_class(hclass, sc_lin)
    print(f"Bernstein ratio (linear margin family): "
          f"{bernstein_ratio(sc_lin, hclass, star):.3f}")

    backend = deconv(0.25)
    small = threshold_grid(9, grid)
    ns = (200, 800, 3200)
    values = [empirical_modulus(sc_lin, backend, small, 0.6, n, 20, seed=7) for n in ns]
    print(f"modulus decay in n: slope {slope(ns, values):+.2f} (theory -0.5)")


if __name__ == "__main__":
    main()
