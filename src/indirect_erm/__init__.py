"""Classification from indirect observations by smoothed risk minimization.

The package builds noise-corrected smoothing kernels and spectral-cutoff
projections, turns them into regularized empirical risks for finite
classifier families, selects the smoothing parameter from structural
exponents, and ships a Monte-Carlo harness that measures excess-risk
convergence rates against their theoretical values.
"""

from .diagnostics import fit_rate_slope, hard_loss_exponent, rate_exponent
from .erm import (
    DeconvolutionBackend,
    FitResult,
    RateConfig,
    SvdBackend,
    minimize,
    select_bandwidth,
    select_cutoff,
)
from .errors import (
    ConfigurationError,
    DataError,
    IllPosednessError,
    IndirectErmError,
    ModelError,
    SimulationError,
)
from .grid import Grid
from .hypotheses import (
    HypothesisClass,
    LossSpec,
    Scenario,
    ThresholdClassifier,
    bayes_in_class,
    make_margin_scenario,
    threshold_grid,
    true_risk,
)
from .kernels import (
    NoiseModel,
    TabulatedKernel,
    build_base_kernel,
    build_deconvolution_kernel,
    dirac_noise,
    kernel_fourier_sup,
    laplace_noise,
)
from .noisy_risk import (
    ModifiedLossTable,
    NoisySample,
    ObservationLattice,
    build_lattice,
    modified_loss_deconv,
    plug_in_density,
)
from .operators import (
    SpectralOperator,
    apply_operator,
    contaminate,
    sample_density,
    sampler_table,
)
from .simulation import (
    ExperimentPlan,
    RateReport,
    generate_sample,
    run_rate_experiment,
)

__version__ = "0.1.0"
