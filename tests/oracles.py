"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (per-observation quadrature, direct
summation) and shares no code path with the package internals it checks,
apart from the cut rule and the two-level cumulative sum that
``reference_tables`` takes from the package to pin its bits.
"""

import importlib.util
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from indirect_erm.erm import _cumulative
from indirect_erm.grid import trapezoid_weights
from indirect_erm.hypotheses import (HypothesisClass, ThresholdClassifier, _cuts, loss_values,
                                     window_mask)
from indirect_erm.noisy_risk import NoisySample, _next_fast_len, plug_in_density
from indirect_erm.operators import SpectralOperator, apply_operator

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@lru_cache(maxsize=None)
def structural_demo():
    """``demos/structural_diagnostics.py`` as a module, imported from its
    file: ``structural_pair_priors``, ``_TENT_CROSSING`` and
    ``empirical_modulus`` live there."""
    spec = importlib.util.spec_from_file_location("structural_diagnostics",
                                                  DEMOS / "structural_diagnostics.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def labelled_sample(z, y):
    """The sample of draws z under 0/1 labels y: its two label groups, each
    in draw order."""
    z, y = np.asarray(z, dtype=float), np.asarray(y)
    return NoisySample((z[y == 0], z[y == 1]))


def closed_form_corrected_sinc(u, lam):
    """Closed-form noise-corrected sinc kernel for Laplace (decay 2) noise.

    Verified independently against high-precision quadrature of
    (1/pi) * int_0^1 (1 + t^2/lam^2) cos(t u) dt before freezing. Below
    |u| = 1 the closed form cancels in 4c/u^2 - 4s/u^3 (up to 8.8e-10 near
    0 at lam = 0.1), so there the integral is the cosine series, 20 terms:
    (1/pi) sum_k (-1)^k u^2k / (2k)! (1/(2k + 1) + 1/(lam^2 (2k + 3))).
    """
    u = np.asarray(u, dtype=float)
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


def reference_basis(x, n_funcs):
    """The cosine basis evaluated directly: row 0 is ones and row k is
    sqrt(2) cos(pi k x), one ``cos`` per point and frequency."""
    k = np.arange(n_funcs + 1)[:, None]
    out = np.sqrt(2.0) * np.cos(np.pi * k * np.asarray(x, dtype=float)[None, :])
    out[0] = 1.0
    return out


def reference_gram(z, cutoff):
    """The basis Gram matrix at the draws z, sum_i phi_k(z_i) phi_l(z_i) for
    k, l = 0..cutoff, as one ``einsum`` over the directly evaluated basis
    (``reference_basis``), O(cutoff^2 n)."""
    phi = reference_basis(z, cutoff)
    return np.einsum("kn,ln->kl", phi, phi)


def longdouble_gram(z, cutoff):
    """``reference_gram`` with every cosine, product and sum in
    ``np.longdouble``."""
    k = np.arange(cutoff + 1)[:, None]
    phi = np.sqrt(np.longdouble(2)) * np.cos(np.arccos(np.longdouble(-1)) * k
                                             * np.asarray(z, dtype=np.longdouble))
    phi[0] = 1
    return np.einsum("kn,ln->kl", phi, phi)


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


def reference_interleaved_sample(scenario, n, seed):
    """(z, y) of an n-draw sample, drawn interleaved: uniform labels against
    the label-1 prior, then per label, label 0 first, the quantiles
    (``reference_quantile``) of its sampling density, the operator image or
    the clean density, plus the noise summed over a (folds, count) Laplace
    draw, scattered into z through a boolean mask of the labels."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < scenario.priors[1]).astype(int)
    z = np.empty(n)
    op = scenario.contamination
    for label in (0, 1):
        mask = y == label
        count = int(mask.sum())
        if count == 0:
            continue
        if isinstance(op, SpectralOperator):
            values = apply_operator(scenario.cosine_coefficients(label, op.k_max), op,
                                    scenario.domain)
        else:
            values = scenario.density_values(label)
        draws = reference_quantile(values, scenario.domain, rng.random(count))
        if not isinstance(op, SpectralOperator):
            folds = 0 if op.kind == "dirac" else int(op.beta / 2)
            draws = draws + rng.laplace(0.0, 1.0, size=(folds, count)).sum(axis=0)
        z[mask] = draws
    return z, y


def reference_labelled_binning(z, y, lattice):
    """The label rows P_0 and P_1 of linear binning, made as one
    ``bincount`` over the interleaved draws with each label-1 bin one row
    down: every node adds its draws in draw order, the 1 - frac weights
    before the frac ones. Cells by ``searchsorted``, draws clamped."""
    nodes, p = lattice.nodes, len(lattice.nodes)
    z = np.clip(z, nodes[0], nodes[-1])
    idx = np.clip(np.searchsorted(nodes, z) - 1, 0, p - 2)
    frac = (z - nodes[idx]) / lattice.spacing
    rows = idx + p * np.asarray(y)
    binned = np.bincount(np.concatenate([rows, rows + 1]),
                         weights=np.concatenate([1.0 - frac, frac]), minlength=2 * p)
    return binned.reshape(2, p) / z.size


def direct_run_vectors(backend, hclass, at):
    """The kernel convolved with the weights over a class's first run, its
    last run and the whole lattice (``DeconvolutionBackend._signed_runs``)
    at the nodes ``at``, summed directly in ``np.longdouble``: at node i,
    the sum of w_l K[i - l + P - 1] over the run's nodes l, with w the
    backend's weights (zero outside its window). The runs are those of
    ``reference_runs``; a class with one run has it as its first and its
    last."""
    lattice = backend.lattice
    p = len(lattice.nodes)
    starts = reference_runs(hclass, lattice.nodes)[1]
    kernel = lattice.kernel.values.astype(np.longdouble)
    w = backend._weights.astype(np.longdouble)
    a = starts[1] if len(starts) > 1 else p
    rows = np.empty((3, len(at)), dtype=np.longdouble)
    for row, (lo, hi) in zip(rows, ((0, a), (starts[-1], p), (0, p))):
        for k, i in enumerate(at):
            row[k] = np.dot(w[lo:hi], kernel[i + p - hi: i + p - lo][::-1])
    return rows


def reference_plug_in_features(z, backend):
    """One label's kernel-backend statistic on every lattice node: the
    full-lattice plug-in density of its draws times the quadrature weights,
    zeroed outside the backend's window."""
    lattice = backend.lattice
    w = lattice.weights
    if backend.window is not None:
        w = np.where(window_mask(lattice.nodes, backend.window), w, 0.0)
    return w * plug_in_density(z, lattice)


def reference_tables(backend, hclass):
    """A kernel backend's regularized losses on the lattice nodes as one
    (count + 1) x P table: row j for the loss 1{x > t_j} and a last row for
    the loss 1, zero outside the window. The loss 1 on nodes lo .. hi gives
    h (CK[i - lo + P] - CK[i - hi + P - 1]) at node i, less h/2 times the
    kernel at each lattice end node in lo .. hi; CK[u] sums the kernel's
    first u offsets, in the backend's two levels (``erm._cumulative``). Row
    j runs from s_j. Every row is gathered whole from a sliding window of
    CK: the bits that the backend's row-at-a-time evaluation must
    reproduce."""
    lattice = backend.lattice
    p, h = len(lattice.nodes), lattice.spacing
    kernel = lattice.kernel.values
    first, last = np.flatnonzero(backend._weights)[[0, -1]]  # the window's end nodes
    lo = np.clip(np.r_[_cuts(hclass, lattice.nodes), first], first, last + 1)
    ck = sliding_window_view(_cumulative(kernel), p)  # ck[k] = CK[k: k + P]
    tables = ck[p - lo]
    tables -= ck[p - 1 - last]
    tables *= h
    if first == 0:
        tables[lo == 0] -= h / 2 * kernel[p - 1:]
    if last == p - 1:
        tables[lo <= last] -= h / 2 * kernel[:p]
    return tables


def abs_copy_table_sup(tables):
    """The largest |loss| over kernel loss tables (a row per threshold, the
    loss 1's row last), from the absolute values of the rows and of the loss
    1's row minus each."""
    return float(max(np.abs(tables[:-1]).max(), np.abs(tables[-1] - tables[:-1]).max()))


def mixed_threshold_class(grid):
    """Thresholds left of, right of and across the domain: on nodes, at the
    end nodes and inside cells."""
    x = grid.axis()
    thresholds = [*np.linspace(grid.lower - 0.2, grid.upper + 0.2, 23),
                  x[0], x[100], x[-1], 0.5 * (x[3] + x[4]), grid.lower - 5.0, grid.upper + 5.0]
    return HypothesisClass(tuple(ThresholdClassifier(float(t)) for t in thresholds))


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
    for label, z_y in enumerate(sample.groups):
        if not z_y.size:
            continue
        features = reference_plug_in_features(z_y, backend)
        weight = z_y.size / sample.n
        losses = matrix if label == 0 else 1.0 - matrix
        risks += weight * (losses @ np.add.reduceat(features, starts))
        scale += weight * np.abs(features).sum()
    return risks, np.full(len(hclass), scale)


def empirical_risk(table, sample):
    """Mean of a ``ModifiedLossTable``'s lookups at the sample points."""
    return sum(float(np.sum(table.evaluate(z, label)))
               for label, z in enumerate(sample.groups) if z.size) / sample.n


def naive_empirical_risk(clf, lattice, sample):
    """Per-observation quadrature of the regularized loss, summed directly.

    For each observation: interpolate the tabulated kernel at (z_i - x_l)
    for every quadrature node x_l and integrate the raw loss against it.
    No convolution, no plug-in density - an independent evaluation order.
    """
    x = lattice.nodes
    w = trapezoid_weights(len(x), lattice.spacing)
    off = lattice.kernel.offsets[0]
    kv = lattice.kernel.values
    total = 0.0
    for label, z in enumerate(sample.groups):
        lv = w * loss_values(clf, label, x)
        for z_i in z:
            total += float(np.sum(lv * np.interp(z_i - x, off, kv, left=0.0, right=0.0)))
    return total / sample.n


def plain_erm_index(hclass, sample):
    """Plain ERM on the contaminated inputs: the hard loss at the raw draws,
    no deconvolution. Each label group is sorted once, and a threshold's
    label-0 errors (draws right of it) and label-1 errors (draws at or left
    of it) are counted by ``searchsorted``; the lowest index wins ties, as
    in ``minimize``."""
    t = np.array([c.threshold for c in hclass])
    z0, z1 = (np.sort(z) for z in sample.groups)
    errors = z0.size - np.searchsorted(z0, t, side="right") + np.searchsorted(z1, t, side="right")
    return int(np.argmin(errors))


def plain_erm_population_index(hclass, scenario):
    """The argmin of plain ERM's expected risk, p_0 P(Z_0 > t) + p_1
    P(Z_1 <= t), lowest index on ties: each label's density on the domain
    nodes, by the trapezoid rule, against the survival function
    S(t - x) = P(eps > t - x) of the contaminated input Z = x + eps. S is
    the cumulative trapezoid sum of ``NoiseModel.density`` from the right
    on [-40, 40] at step 1e-3, interpolated linearly."""
    u = np.linspace(-40.0, 40.0, 80_001)
    dens = scenario.contamination.density(u)
    survival = np.r_[np.cumsum((0.5e-3 * (dens[1:] + dens[:-1]))[::-1])[::-1], 0.0]
    x, w = scenario.domain.axis(), scenario.domain.weights()
    s = np.interp(np.array([c.threshold for c in hclass])[:, None] - x, u, survival)
    (p0, p1), f0, f1 = scenario.priors, w * scenario.density(0, x), w * scenario.density(1, x)
    return int(np.argmin(p0 * (s @ f0) + p1 * ((1.0 - s) @ f1)))


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


def zero_extended_density(scenario, lattice, label):
    """A label's density on every lattice node, zero off the domain: the
    nodes within h/2 of the domain, found by coordinate, get the density at
    the domain's own nodes (``domain.axis()``)."""
    domain, half = scenario.domain, lattice.spacing / 2
    inside = (lattice.nodes > domain.lower - half) & (lattice.nodes < domain.upper + half)
    f = np.zeros(len(lattice.nodes))
    f[inside] = scenario.density(label, domain.axis())
    return f


def base_smoothed_density(scenario, lattice, label):
    """A label's zero-extended density, weighted, smoothed by the
    bandwidth-scaled base kernel (``lattice.base_scaled``) at every lattice
    node, by the FFT route: a 'valid' convolution (P values) through one
    ``rfft``/``irfft`` pair at the shortest 5-smooth length free of
    wraparound, 2P - 1 or more. The expected regularized risk is the
    quadrature of the raw loss against it: the reference of
    ``DeconvolutionBackend.expected_features``, which reads the same sums off
    the base kernel's cumulative sum."""
    f = lattice.weights * zero_extended_density(scenario, lattice, label)
    p = len(f)
    length = _next_fast_len(2 * p - 1)
    spectrum = np.fft.rfft(lattice.base_scaled.values, length)
    return np.fft.irfft(spectrum * np.fft.rfft(f, length), length)[p - 1: 2 * p - 1]


def naive_bias_deconv(scenario, lattice, hclass, star_index, bias_variant="squared_loss"):
    """Approximation function of the kernel route, one classifier at a time.

    Per label and classifier, the raw node losses are integrated against the
    zero-extended density (exact risk) and against the base-smoothed density
    (expected regularized risk) with the lattice weights.
    """
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
