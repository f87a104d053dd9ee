"""Hypothesis classes, bounded losses, scenarios, and exact risk quadrature.

Classifier parameters snap to grid-cell midpoints so that hard-loss jumps
fall strictly between quadrature nodes; the trapezoid rule then evaluates
risks of piecewise-linear scenario densities to second order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ModelError
from .grid import Grid, _one_number
from .kernels import NoiseModel, dirac_noise, laplace_noise
from .operators import SpectralOperator
from .reader import ConfigReader

__all__ = [
    "LossSpec",
    "ThresholdClassifier",
    "HypothesisClass",
    "Scenario",
    "loss_values",
    "true_risk",
    "true_risks",
    "bayes_in_class",
    "make_margin_scenario",
    "threshold_grid",
    "snap_to_cell_midpoint",
    "grid_from_json",
    "contamination_from_json",
]

LOSS_KINDS = ("hard",)
DENSITY_FAMILIES = ("linear", "smooth", "uniform", "tent_pair")


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

# kept only for perfbench/child.py, which passes one; ROADMAP item 1 deletes it
@dataclass(frozen=True)
class LossSpec:
    """The hard loss |y - g(x)| on 0/1 predictions and labels.

    ``hard`` is the only kind: a misclassification costs 1 and a correct
    prediction costs 0.
    """

    kind: str = "hard"

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ConfigurationError(f"unknown loss kind {self.kind!r}")


# ---------------------------------------------------------------------------
# classifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdClassifier:
    """Predict 1 where x > threshold (orientation +1) or x <= threshold (-1)."""

    threshold: float
    orientation: int = 1

    def __post_init__(self):
        if self.orientation not in (1, -1):
            raise ConfigurationError(f"orientation must be +1 or -1, got {self.orientation!r}")

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        above = (x > self.threshold).astype(float)
        return above if self.orientation == 1 else 1.0 - above


@dataclass(frozen=True)
class HypothesisClass:
    """Finite ordered family of classifiers over binary labels."""

    classifiers: tuple
    # hashing walks every classifier, so it is done once; caches key on the class
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "classifiers", tuple(self.classifiers))
        if len(self.classifiers) == 0:
            raise ConfigurationError("hypothesis class must be nonempty")
        object.__setattr__(self, "_hash", hash(self.classifiers))

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.classifiers)

    def __iter__(self):
        return iter(self.classifiers)

    def __getitem__(self, idx):
        return self.classifiers[idx]


def snap_to_cell_midpoint(value: float, grid: Grid) -> float:
    """Nearest grid-cell midpoint; keeps jump points strictly between nodes."""
    h = grid.spacing
    lo = grid.lower
    cells = grid.points_per_dim - 1
    j = int(np.clip(np.floor((value - lo) / h), 0, cells - 1))
    return lo + (j + 0.5) * h


def threshold_grid(count: int, grid: Grid, orientation: int = 1) -> HypothesisClass:
    """Equally spaced threshold classifiers snapped to cell midpoints."""
    if count < 1:
        raise ConfigurationError("need at least one threshold")
    raw = np.linspace(grid.lower, grid.upper, count)
    clfs = tuple(
        ThresholdClassifier(snap_to_cell_midpoint(t, grid), orientation) for t in raw
    )
    return HypothesisClass(clfs)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _density_linear(label: int, x: np.ndarray, params: dict) -> np.ndarray:
    return 2.0 * x if label == 1 else 2.0 * (1.0 - x)


def _beta_4(m: float) -> float:
    """B(4+m, 4) = 3! Gamma(4+m) / Gamma(8+m) = 6 / ((4+m)(5+m)(6+m)(7+m)),
    by the recurrence Gamma(s+1) = s Gamma(s)."""
    return 6.0 / ((4.0 + m) * (5.0 + m) * (6.0 + m) * (7.0 + m))


def _density_smooth(label: int, x: np.ndarray, params: dict) -> np.ndarray:
    """Beta-pair conditionals Beta(4+m, 4) against Beta(4, 4+m).

    Both densities vanish to third order at the edges, so their zero
    extensions keep three Lipschitz derivatives; the regression function
    crosses 1/2 linearly with slope controlled by ``sharpness`` = m. Both
    normalizers are B(4+m, 4) = B(4, 4+m).
    """
    m = float(params.get("sharpness", 1.0))
    if label == 1:
        return x ** (3.0 + m) * (1.0 - x) ** 3 / _beta_4(m)
    return x ** 3 * (1.0 - x) ** (3.0 + m) / _beta_4(m)


def _density_uniform(label: int, x: np.ndarray, params: dict) -> np.ndarray:
    return np.ones_like(x)


# Structural pair for scaling diagnostics: the label-0 density is a wide
# tent whose peak (a slope break) sits exactly at the regression crossing,
# while the label-1 density is an infinitely smooth polynomial bump. The
# pair is exactly Lipschitz and no smoother (declared gamma = 1 is tight),
# the crossing kink is the only roughness within 0.4 of the crossing, and
# both supports have the whole class of localized kernels decay before the
# domain edges matter. The crossing sits at 0.45 to avoid phase locking of
# the cosine basis at half-period points. Pieces are (lo, hi, coeffs) with
# f(x) = sum_j coeffs[j] x^j; canonical priors put the regression crossing
# at _TENT_CROSSING (see structural_pair_priors).
_TENT_PIECES = {
    1: ((0.0, 1.0, (0.0, 0.0, 0.0, 0.0, 105.0, -210.0, 105.0)),),
    0: ((0.05, 0.45, (-0.3125, 6.25)),
        (0.45, 0.85, (5.3125, -6.25))),
}
_TENT_CROSSING = 0.45


def _eval_pieces(pieces, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    for lo, hi, coeffs in pieces:
        mask = (x >= lo) & (x <= hi)
        out = np.where(mask, np.polynomial.polynomial.polyval(x, coeffs), out)
    return out


def _density_tent_pair(label: int, x: np.ndarray, params: dict) -> np.ndarray:
    return _eval_pieces(_TENT_PIECES[label], x)


def _piecewise_cosine_coefficients(pieces, k_max: int) -> np.ndarray:
    """Exact cosine-basis coefficients of a piecewise polynomial.

    Uses the recursion int x^j e^{iwx} dx = x^j e^{iwx}/(iw)
    - (j/(iw)) int x^{j-1} e^{iwx} dx per piece, so no quadrature error
    enters even at high frequencies.
    """
    out = np.zeros(k_max + 1)
    omega = np.pi * np.arange(1, k_max + 1, dtype=float)
    for lo, hi, coeffs in pieces:
        poly = np.polynomial.polynomial.Polynomial(coeffs)
        out[0] += float((poly.integ()(hi) - poly.integ()(lo)))
        iw = 1j * omega
        moments = []  # moments[j][k-1] = int_lo^hi x^j e^{i w x} dx
        base = (np.exp(iw * hi) - np.exp(iw * lo)) / iw
        moments.append(base)
        for j in range(1, len(coeffs)):
            term = (hi ** j * np.exp(iw * hi) - lo ** j * np.exp(iw * lo)) / iw
            moments.append(term - (j / iw) * moments[j - 1])
        total = np.zeros_like(base)
        for j, c in enumerate(coeffs):
            if c != 0.0:
                total = total + c * moments[j]
        out[1:] += np.sqrt(2.0) * total.real
    return out


def structural_pair_priors() -> tuple[float, float]:
    """Priors putting the structural-pair regression crossing at its design point."""
    xc = np.array([_TENT_CROSSING])
    f1 = float(_density_tent_pair(1, xc, {})[0])
    f0 = float(_density_tent_pair(0, xc, {})[0])
    p1 = f0 / (f0 + f1)
    return (1.0 - p1, p1)


_DENSITY_FUNCS = {
    "linear": _density_linear,
    "smooth": _density_smooth,
    "uniform": _density_uniform,
    "tent_pair": _density_tent_pair,
}


@dataclass(frozen=True)
class Scenario:
    """Binary classification scenario with known conditional densities.

    ``contamination`` is either a NoiseModel (additive errors, Z = X + eps)
    or a SpectralOperator (observations drawn from the operator image of the
    conditional density). ``alpha`` is the margin exponent of the regression
    crossing; ``gamma`` the declared smoothness of the densities. ``domain``
    is a grid on [0, 1], where every density family and the cosine basis
    live.
    """

    priors: tuple[float, float]
    densities: str
    contamination: NoiseModel | SpectralOperator
    alpha: float = 1.0
    gamma: float = 1.0
    domain: Grid = field(default_factory=Grid)
    density_params: dict = field(default_factory=dict)
    # sample-independent arrays built on first use, keyed by value (see
    # ``simulation._sampling_density``); a rebuilt scenario starts empty
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        p = tuple(float(v) for v in self.priors)
        object.__setattr__(self, "priors", p)
        if len(p) != 2 or not (min(p) >= 0 and abs(sum(p) - 1.0) <= 1e-9):  # NaN fails
            raise ModelError(f"priors must be two nonnegative numbers summing to 1, got {p}")
        if self.densities not in DENSITY_FAMILIES:
            raise ConfigurationError(f"unknown density family {self.densities!r}")
        if not self.alpha > 0:  # NaN fails too
            raise ConfigurationError("margin parameter alpha must be positive")
        if not self.gamma > 0:
            raise ConfigurationError("declared smoothness gamma must be positive")
        if (self.domain.lower, self.domain.upper) != (0.0, 1.0):
            raise ConfigurationError(f"the scenario domain must be [0, 1], got "
                                     f"[{self.domain.lower}, {self.domain.upper}]")

    @property
    def labels(self) -> tuple[int, int]:
        return (0, 1)

    @property
    def kappa(self) -> float:
        """Bernstein exponent (alpha + 1) / alpha from the margin parameter."""
        return (self.alpha + 1.0) / self.alpha

    def density(self, label: int, x: np.ndarray) -> np.ndarray:
        return _DENSITY_FUNCS[self.densities](label, np.asarray(x, dtype=float),
                                              self.density_params)

    def density_values(self, label: int) -> np.ndarray:
        return self.density(label, self.domain.axis())

    def cosine_coefficients(self, label: int, k_max: int) -> np.ndarray:
        """Coefficients of f_y in the cosine basis.

        Closed form for the uniform and linear families, exact piecewise
        integration for the tent pair, grid quadrature against the one
        basis (``SpectralOperator.basis``) for the smooth family.
        """
        if self.densities == "tent_pair":
            return _piecewise_cosine_coefficients(_TENT_PIECES[label], k_max)
        if self.densities == "smooth":
            x, w = self.domain.axis(), self.domain.weights()
            return SpectralOperator(k_max=k_max).basis(x) @ (w * self.density(label, x))
        out = np.zeros(k_max + 1)
        out[0] = 1.0
        if self.densities == "linear":
            odd = np.arange(1, k_max + 1, 2)
            vals = -4.0 * np.sqrt(2.0) / (np.pi ** 2 * odd ** 2)
            out[odd] = vals if label == 1 else -vals
        return out

    @staticmethod
    def from_json(doc: dict) -> "Scenario":
        """A scenario from its config block: ``priors`` and ``densities`` in
        full, or the margin shorthand ``family`` (see ``make_margin_scenario``)."""
        r = ConfigReader(doc, "scenario")
        contamination = contamination_from_json(r.get("contamination", dict))
        domain = grid_from_json(r.get("grid", dict, {}))
        alpha = r.get("alpha", float, 1.0)
        gamma = r.get("gamma", float, None)
        if "family" in doc:
            scenario = make_margin_scenario(
                alpha, contamination, x_star=r.get("x_star", float, 0.5),
                family=r.get("family", str), gamma=gamma, grid=domain,
                sharpness=r.get("sharpness", float, 1.0))
        else:
            densities = r.get("densities", str, allowed=DENSITY_FAMILIES)
            scenario = Scenario(
                priors=tuple(r.get("priors", [float])),
                densities=densities,
                contamination=contamination, alpha=alpha,
                gamma=1.0 if gamma is None else gamma, domain=domain,
                density_params=_density_params_from_json(
                    densities, r.get("density_params", dict, {})))
        r.done()
        return scenario


_NUMBER = (float, [float])  # a number, or a one-element list as configs write it


def _density_params_from_json(densities: str, doc: dict) -> dict:
    """A scenario's ``density_params`` block: the ``smooth`` family reads
    ``sharpness``, the other families read nothing."""
    r = ConfigReader(doc, "scenario.density_params")
    params = {}
    if densities == "smooth" and "sharpness" in doc:
        params["sharpness"] = r.get("sharpness", float)
    r.done()
    return params


def grid_from_json(doc: dict) -> Grid:
    """The domain grid of a scenario's ``grid`` block."""
    r = ConfigReader(doc, "scenario.grid")
    grid = Grid(lower=r.get("lower", _NUMBER, 0.0), upper=r.get("upper", _NUMBER, 1.0),
                points_per_dim=r.get("points", int, 1024))
    r.done()
    return grid


def contamination_from_json(doc: dict) -> NoiseModel | SpectralOperator:
    """The noise model or spectral operator of a scenario's ``contamination`` block."""
    r = ConfigReader(doc, "scenario.contamination")
    kind = r.get("kind", str, allowed=("svd_operator", "dirac", "laplace"))
    if kind == "svd_operator":
        out = SpectralOperator(decay=r.get("beta", float, 1.0), k_max=r.get("k_max", int, 64))
    elif kind == "dirac":
        out = dirac_noise()
    else:
        out = laplace_noise(_one_number(r.get("beta", _NUMBER, 2.0), "laplace beta"))
    r.done()
    return out


def make_margin_scenario(alpha: float, contamination, x_star: float = 0.5,
                         family: str = "linear", gamma: float | None = None,
                         grid: Grid | None = None,
                         sharpness: float = 1.0) -> Scenario:
    """Scenario whose regression function crosses 1/2 linearly at ``x_star``.

    Only ``alpha == 1`` generators ship in this release. The conditional
    density ratio is (x / (1 - x))^sharpness, and the class priors are
    tilted so the crossing sits at ``x_star``. The ``smooth`` family uses
    the edge-vanishing Beta pair so the declared smoothness also holds for
    the zero-extension beyond the domain; ``linear`` keeps the closed-form
    triangular densities (sharpness fixed at 1).
    """
    if alpha != 1:
        raise ConfigurationError("only the alpha = 1 margin generator is shipped")
    if not 0.0 < x_star < 1.0:
        raise ConfigurationError("crossing point must be interior to (0, 1)")
    if family not in ("linear", "smooth"):
        raise ConfigurationError(f"unsupported margin family {family!r}")
    if gamma is None:
        gamma = 1.0 if family == "linear" else 2.0
    if gamma < 1.0:
        raise ConfigurationError("declared smoothness must be at least 1")
    if family == "smooth" and gamma > 3.0:
        raise ConfigurationError("smooth family supports declared gamma up to 3")
    params: dict = {}
    if family == "linear":
        if sharpness != 1.0:
            raise ConfigurationError("linear family has fixed sharpness 1")
    else:
        if not 1.0 <= sharpness <= 3.0:
            raise ConfigurationError("smooth-family sharpness must lie in [1, 3]")
        params = {"sharpness": float(sharpness)}
    # density ratio f1/f0 = (x/(1-x))^m: priors with p0/p1 = (x*/(1-x*))^m
    # put the regression crossing at x*
    ratio = ((1.0 - x_star) / x_star) ** sharpness
    p1 = ratio / (1.0 + ratio)
    return Scenario(
        priors=(1.0 - p1, p1),
        densities=family,
        contamination=contamination,
        alpha=alpha,
        gamma=float(gamma),
        domain=grid or Grid(),
        density_params=params,
    )


# ---------------------------------------------------------------------------
# risk functionals
# ---------------------------------------------------------------------------

def loss_values(clf, label: int, x: np.ndarray) -> np.ndarray:
    """Node values of the hard loss x -> |label - g(x)|; labels must be 0 or 1."""
    if label not in (0, 1):
        raise ConfigurationError(f"label {label} out of range for binary losses")
    return np.abs(label - clf.predict(x))


def window_mask(x: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    """Nodes of x inside a compact restriction window [a, b]."""
    a, b = window
    if b <= a:
        raise ConfigurationError("restriction window must have positive length")
    mask = (x >= a) & (x <= b)
    if not np.any(mask):
        raise ConfigurationError("restriction window contains no grid nodes")
    return mask


def _thresholds(hclass: HypothesisClass) -> np.ndarray:
    """The thresholds (row 0) and the orientations (row 1, +1 or -1) of a class."""
    return np.array([(c.threshold, c.orientation) for c in hclass], dtype=float).T


def _cuts(hclass: HypothesisClass, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s_j, the first node right of threshold j (len(nodes) if none is), and
    the orientations: the label-0 loss is 1 from s_j on for orientation +1,
    and before s_j for -1."""
    thresholds, orientations = _thresholds(hclass)
    return np.searchsorted(nodes, thresholds, "right"), orientations


def true_risks(hclass: HypothesisClass, scenario: Scenario,
               window: tuple[float, float] | None = None) -> np.ndarray:
    """Risks sum_y p(y) integral loss(g(x), y) f_y(x) by trapezoid quadrature
    (clipped to ``window``): w (p_0 f_0 - p_1 f_1) summed from or before each
    cut (``_cuts``), where the label-0 loss is 1, plus p_1 sum w f_1. The sums
    do not depend on the class, so ``true_risk`` equals each entry bit for bit."""
    x, w = scenario.domain.axis(), scenario.domain.weights()
    if window is not None:
        w = np.where(window_mask(x, window), w, 0.0)
    (p0, p1), f1 = scenario.priors, w * scenario.density(1, x)
    signed = p0 * w * scenario.density(0, x) - p1 * f1
    head = np.r_[0.0, np.cumsum(signed)]              # sum before node s
    tail = np.r_[np.cumsum(signed[::-1])[::-1], 0.0]  # sum from node s on
    cuts, orientations = _cuts(hclass, x)
    risks = np.where(orientations == 1, tail[cuts], head[cuts]) + p1 * f1.sum()
    if not np.all((risks >= -1e-9) & (risks <= 1.0 + 1e-9)):  # NaN fails too
        raise ModelError(f"a risk escaped [0, 1]: {risks.min()} .. {risks.max()}")
    return np.clip(risks, 0.0, 1.0)


# ``loss`` is unread; kept for perfbench/child.py, which passes one, until ROADMAP item 1
def true_risk(clf, scenario: Scenario, loss: LossSpec,
              window: tuple[float, float] | None = None) -> float:
    """The risk of one classifier: ``true_risks`` of the class holding it."""
    return float(true_risks(HypothesisClass((clf,)), scenario, window)[0])


def bayes_in_class(hclass: HypothesisClass, scenario: Scenario):
    """Exhaustive in-class risk minimizer; ties break to the lowest index.

    Returns ``(index, classifier, risk)``.
    """
    risks = true_risks(hclass, scenario)
    idx = int(np.argmin(risks))  # argmin returns the first minimizer
    return idx, hclass[idx], float(risks[idx])
