"""levyaug: data augmentation by thinning exponential-family processes.

Observed feature vectors are modeled as a fixed-time slice of a process
with independent, stationary increments; pseudo-examples are draws of an
earlier slice conditional on the observed one, which for the four built-in
families (Poisson counts, Gaussian sums, Gamma scatter, Wishart scatter
matrices) is possible in closed form without knowing the generative
parameters.  On top of the samplers the package provides a calibrated
ridge logistic-regression pipeline with origin-grouped cross-validation,
the analytic maximum-thinning limit of that pipeline, and a benchmark
simulation harness with a CLI.
"""

__version__ = "0.1.0"

from .errors import (
    DataFormatError,
    DecompositionError,
    DegenerateDataError,
    LevyAugError,
    OptimizationError,
    ParameterError,
    ShapeError,
    SupportError,
)
from .families import (
    Example,
    ExampleBatch,
    FamilyKind,
    LevyFamily,
    PseudoBatch,
    PseudoExample,
    check_example,
    gamma_family,
    gaussian_family,
    poisson_family,
    thinning_log_density,
    wishart_family,
)
from .logistic import (
    FeatureMap,
    LogisticModel,
    TrainConfig,
    calibrate,
    fit_logistic,
    fit_logistic_detailed,
    load_model,
    predict,
    save_model,
)
from .rng import RngState
from .simulation import (
    GaussianSimSpec,
    PoissonSimSpec,
    SweepResult,
    SweepRow,
    gen_gaussian_sim,
    gen_poisson_sim,
    render_sweep_svg,
    run_alpha_sweep,
    write_sweep_csv,
)
from .strong_thinning import (
    fit_strong_thinning,
    naive_bayes_poisson_fit,
)
from .thinning import (
    ThinningConfig,
    generate_pseudo_examples,
    thin_gamma,
    thin_gaussian,
    thin_poisson,
    thin_wishart,
)
