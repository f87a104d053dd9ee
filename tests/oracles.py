"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (per-observation quadrature, direct
summation) and shares no code path with the package internals it checks.
"""

import numpy as np

from indirect_erm.grid import trapezoid_weights
from indirect_erm.hypotheses import HypothesisClass, ThresholdClassifier, loss_values, window_mask
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


def reference_basis(x, n_funcs):
    """The cosine basis evaluated directly: row 0 is ones and row k is
    sqrt(2) cos(pi k x), one ``cos`` per point and frequency."""
    k = np.arange(n_funcs + 1)[:, None]
    out = np.sqrt(2.0) * np.cos(np.pi * k * np.asarray(x, dtype=float)[None, :])
    out[0] = 1.0
    return out


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


def mixed_threshold_class(grid):
    """Both orientations at thresholds left of, right of and across the
    domain: on nodes, at the end nodes and inside cells."""
    x = grid.axis()
    thresholds = [*np.linspace(grid.lower - 0.2, grid.upper + 0.2, 23),
                  x[0], x[100], x[-1], 0.5 * (x[3] + x[4]), grid.lower - 5.0, grid.upper + 5.0]
    return HypothesisClass(tuple(ThresholdClassifier(float(t), o)
                                 for t in thresholds for o in (1, -1)))


def _domain_weights(scenario, window=None):
    x, w = scenario.domain.axis(), scenario.domain.weights()
    if window is not None:
        w = np.where(window_mask(x, window), w, 0.0)
    return x, w


def reference_true_risk(clf, scenario, window=None):
    """One classifier's risk by trapezoid quadrature of each label's loss,
    evaluated on every domain node, against its density and prior."""
    x, w = _domain_weights(scenario, window)
    return sum(scenario.priors[y] * float(np.dot(w, loss_values(clf, y, x)
                                                 * scenario.density(y, x))) for y in (0, 1))


def reference_loss_distance_sq(scenario, clf_a, clf_b):
    """Squared L2(nu_y) distance of two classifiers' raw losses: each label's
    loss difference squared on every domain node, weighted by its prior."""
    x, w = _domain_weights(scenario)
    return sum(scenario.priors[y] * float(np.dot(w, (loss_values(clf_a, y, x)
                                                     - loss_values(clf_b, y, x)) ** 2))
               for y in (0, 1))


def reference_runs(hclass, nodes):
    """The label-0 class matrix and its run starts, found by evaluating
    every classifier's loss on every node: a run starts at node 0 and
    wherever some classifier's loss changes."""
    change = np.zeros(len(nodes), dtype=bool)
    change[0] = True
    for clf in hclass:
        row = loss_values(clf, 0, nodes)
        change[1:] |= row[1:] != row[:-1]
    starts = np.flatnonzero(change)
    return np.vstack([loss_values(clf, 0, nodes[starts]) for clf in hclass]), starts


def reference_loss_coefficients(clf, label, lo, hi, cutoff):
    """Basis coefficients of one threshold classifier's label loss over
    [lo, hi]: the loss on each side of the threshold (read off a prediction
    there) times the basis integrals over that side, sqrt(2) sin(pi k x)
    / (pi k) between its ends (x itself for k = 0)."""
    t = min(max(clf.threshold, lo), hi)
    k = np.arange(1, cutoff + 1, dtype=float)

    def integrals(a, b):
        return np.r_[b - a, np.sqrt(2.0) * (np.sin(np.pi * k * b) - np.sin(np.pi * k * a))
                     / (np.pi * k)]

    left, right = np.abs(label - clf.predict(np.array([lo, hi])))
    return left * integrals(lo, t) + right * integrals(t, hi)


def reference_svd_losses(clf, label, z, op, cutoff, grid):
    """One classifier's spectral-cutoff regularized loss at the points z,
    sum_k b_k^(-1) c_k phi_k(z): its loss coefficients over the domain
    (``reference_loss_coefficients``) against the directly evaluated basis
    (``reference_basis``)."""
    inv_b = 1.0 / op.singular_values[: cutoff + 1]
    coefficients = reference_loss_coefficients(clf, label, grid.lower, grid.upper, cutoff)
    return (inv_b * coefficients) @ reference_basis(z, cutoff)


def reference_empirical_risks(hclass, sample, backend):
    """Kernel-backend empirical risks in the per-label order: for each label
    present, its full-lattice plug-in features summed over the runs of
    ``reference_runs`` and paired with that label's run losses, weighted by
    n_y / n. The label-1 run losses are 1 - M_0, exact for 0/1 entries.

    Also returns the scale of the summed terms, (|M_0| + |M_1|) @ |features|
    with each label's features weighted by n_y / n. Under the hard loss the
    two rows of a classifier add up to one, and the signed order sums every
    label-1 feature in its shared term, so the scale is the same for every
    classifier; a classifier whose own label-1 row is zero where the draws
    lie still gets its risk as a difference of terms of this size.
    """
    matrix, starts = reference_runs(hclass, backend.lattice.nodes)
    risks = np.zeros(len(hclass))
    scale = 0.0
    for label in np.unique(sample.y):
        label = int(label)
        z_y = sample.z[sample.y == label]
        features = reference_plug_in_features(z_y, backend)
        weight = z_y.size / sample.n
        losses = matrix if label == 0 else 1.0 - matrix
        risks += weight * (losses @ np.add.reduceat(features, starts))
        scale += weight * np.abs(features).sum()
    return risks, np.full(len(hclass), scale)


def naive_empirical_risk(clf, lattice, sample):
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
        lv = loss_values(clf, int(y_i), x)
        total += float(np.sum(w * lv * kcol))
    return total / sample.n


def naive_minimize_index(hclass, lattice, sample):
    """Exhaustive scan with the naive risk; first minimizer wins."""
    risks = [naive_empirical_risk(clf, lattice, sample) for clf in hclass]
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


def naive_bias_deconv(scenario, lattice, hclass, star_index, bias_variant="squared_loss"):
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
            lv = loss_values(clf, label, nodes)
            risks[i] += prior * float(np.dot(w, lv * f))
            reg[i] += prior * float(np.dot(w, lv * f_smooth))
    return _bias_from_risks(risks, reg, star_index, scenario.kappa, bias_variant)


def naive_bias_svd(scenario, cutoff, hclass, star_index, bias_variant="squared_loss"):
    """Approximation function of the spectral route: exact risks against the
    pairing of each classifier's loss coefficients with the density's
    cosine coefficients, one classifier at a time."""
    lo, hi = scenario.domain.lower, scenario.domain.upper
    risks = np.array([reference_true_risk(c, scenario) for c in hclass])
    reg = np.array([
        sum(scenario.priors[y] * float(np.dot(
            reference_loss_coefficients(c, y, lo, hi, cutoff),
            scenario.cosine_coefficients(y, cutoff))) for y in scenario.labels)
        for c in hclass])
    return _bias_from_risks(risks, reg, star_index, scenario.kappa, bias_variant)
