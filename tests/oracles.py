"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (per-observation quadrature, direct
summation) and shares no code path with the package internals it checks.
"""

import numpy as np

from indirect_erm.grid import trapezoid_weights
from indirect_erm.hypotheses import loss_values, window_mask
from indirect_erm.noisy_risk import plug_in_density


def closed_form_corrected_sinc(u, lam):
    """Closed-form noise-corrected sinc kernel for Laplace (decay 2) noise.

    Verified independently against high-precision quadrature of
    (1/pi) * int_0^1 (1 + t^2/lam^2) cos(t u) dt before freezing.
    """
    u = np.asarray(u, dtype=float)
    safe = np.where(u == 0.0, 1.0, u)
    s, c = np.sin(safe), np.cos(safe)
    val = s / (np.pi * safe) + (1.0 / (2.0 * np.pi * lam ** 2)) * (
        2.0 * s / safe + 4.0 * c / safe ** 2 - 4.0 * s / safe ** 3)
    center = 1.0 / np.pi + 1.0 / (3.0 * np.pi * lam ** 2)
    return np.where(np.abs(u) < 1e-9, center, val)


def reference_quantile(values, grid, u):
    """Inverse CDF of tabulated density values at uniforms u: the CDF built
    afresh, then a binary search of every u in it."""
    vals = np.asarray(values, dtype=float)
    x = grid.axis()
    h = grid.spacing
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * h * (vals[1:] + vals[:-1]))])
    cdf /= cdf[-1]
    idx = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, len(x) - 2)
    gap = cdf[idx + 1] - cdf[idx]
    frac = np.where(gap > 0, (u - cdf[idx]) / np.where(gap > 0, gap, 1.0), 0.0)
    return x[idx] + frac * h


def reference_sample_density(values, grid, n, seed):
    """n draws by ``reference_quantile`` of the seed's first n uniforms."""
    return reference_quantile(values, grid, np.random.default_rng(seed).random(n))


def reference_plug_in_features(z, backend):
    """One label's kernel-backend statistic on every lattice node: the
    full-lattice plug-in density of its draws times the quadrature weights,
    zeroed outside the backend's window."""
    lattice = backend.lattice
    w = lattice.weights
    if backend.window is not None:
        w = np.where(window_mask(lattice.nodes, backend.window), w, 0.0)
    return w * plug_in_density(z, lattice)


def reference_empirical_risks(hclass, sample, backend):
    """Kernel-backend empirical risks in the per-label order: for each label
    present, its full-lattice plug-in features scanned against its own class
    matrix, weighted by n_y / n.

    Also returns the scale of the summed terms, (|M_0| + |M_1|) @ |features|
    with each label's features weighted by n_y / n. Under the hard loss the
    two rows of a classifier add up to one, and the signed order sums every
    label-1 feature in its shared term, so the scale is the same for every
    classifier; a classifier whose own label-1 row is zero where the draws
    lie still gets its risk as a difference of terms of this size.
    """
    risks = np.zeros(len(hclass))
    scale = 0.0
    for label in np.unique(sample.y):
        label = int(label)
        z_y = sample.z[sample.y == label]
        features = reference_plug_in_features(z_y, backend)
        weight = z_y.size / sample.n
        risks += weight * backend.scan(hclass, label, features)
        scale += weight * np.abs(features).sum()
    return risks, np.full(len(hclass), scale)


def naive_empirical_risk(clf, loss, lattice, sample):
    """Per-observation quadrature of the regularized loss, summed directly.

    For each observation: interpolate the tabulated kernel at (z_i - x_l)
    for every quadrature node x_l and integrate the raw loss against it.
    No convolution, no plug-in density - an independent evaluation order.
    """
    x = lattice.nodes
    w = trapezoid_weights(len(x), lattice.spacing)
    off = lattice.kernel.offsets[0]
    kv = lattice.kernel.values[0]
    total = 0.0
    for z_i, y_i in zip(sample.z, sample.y):
        kcol = np.interp(z_i - x, off, kv, left=0.0, right=0.0)
        lv = loss_values(clf, loss, int(y_i), x)
        total += float(np.sum(w * lv * kcol))
    return total / sample.n


def naive_minimize_index(hclass, loss, lattice, sample):
    """Exhaustive scan with the naive risk; first minimizer wins."""
    risks = [naive_empirical_risk(clf, loss, lattice, sample) for clf in hclass]
    return int(np.argmin(risks))


def linear_threshold_risk(t):
    """Exact risk of the threshold classifier under the linear pair."""
    return (t ** 2 + (1.0 - t) ** 2) / 2.0


def smooth_threshold_risk(t, sharpness=1.0):
    """Exact risk of threshold classifiers under the Beta-pair scenario.

    For sharpness 1 the conditionals are Beta(5, 4) and Beta(4, 5), whose
    polynomial antiderivatives are frozen here; general sharpness uses the
    regularized incomplete beta function.
    """
    from scipy.special import betainc

    m = sharpness
    # crossing 0.5, priors 1/2 each for the symmetric member
    f1_cdf = betainc(4.0 + m, 4.0, t)
    f0_cdf = betainc(4.0, 4.0 + m, t)
    return 0.5 * (f1_cdf + 1.0 - f0_cdf)


def _bias_from_risks(risks, reg, star_index, kappa, bias_variant):
    r = 1.0 / kappa if bias_variant == "squared_loss" else 1.0 / (2.0 * kappa)
    excess = risks - risks[star_index]
    bias = excess - (reg - reg[star_index])
    return float(max((bias - r * excess).max(), 0.0))


def naive_bias_deconv(scenario, lattice, hclass, star_index, loss,
                      bias_variant="squared_loss"):
    """Approximation function of the kernel route, one classifier at a time.

    Per label and classifier, the raw node losses are integrated against the
    zero-extended density (exact risk) and against the base-smoothed density
    (expected regularized risk) with the lattice weights.
    """
    from indirect_erm.noisy_risk import base_smoothed_density, zero_extended_density

    nodes, w = lattice.nodes, lattice.weights
    risks = np.zeros(len(hclass))
    reg = np.zeros(len(hclass))
    for label in scenario.labels:
        f = zero_extended_density(scenario, lattice, label)
        f_smooth = base_smoothed_density(scenario, lattice, label)
        prior = scenario.priors[label]
        for i, clf in enumerate(hclass):
            lv = loss_values(clf, loss, label, nodes)
            risks[i] += prior * float(np.dot(w, lv * f))
            reg[i] += prior * float(np.dot(w, lv * f_smooth))
    return _bias_from_risks(risks, reg, star_index, scenario.kappa, bias_variant)


def naive_bias_svd(scenario, op, cutoff, hclass, star_index, loss,
                   bias_variant="squared_loss"):
    """Approximation function of the spectral route: exact risks against the
    pairing of each classifier's loss coefficients with the density's
    cosine coefficients, one classifier at a time."""
    from indirect_erm.hypotheses import true_risk
    from indirect_erm.noisy_risk import svd_loss_coefficients

    risks = np.array([true_risk(c, scenario, loss) for c in hclass])
    reg = np.array([
        sum(scenario.priors[y] * float(np.dot(
            svd_loss_coefficients(c, loss, op, cutoff, scenario.domain, y),
            scenario.cosine_coefficients(y, cutoff))) for y in scenario.labels)
        for c in hclass])
    return _bias_from_risks(risks, reg, star_index, scenario.kappa, bias_variant)
