"""Iterative importance sampling for Bayesian parameter estimation.

Iteratively refit Gaussian / multivariate-t proposal distributions from
weighted samples while monitoring the weight-variance quality measure R,
with initialization by short ensemble MCMC runs or Gaussian mixtures built
from multistart optimization.
"""

from .ensemble import (
    QualityReport,
    WeightedEnsemble,
    estimate_r,
    gaussian_mismatch_r,
    self_normalize,
    weighted_covariance,
    weighted_mean,
)
from .errors import (
    AllWeightsZero,
    ChainTooShort,
    ConfigError,
    DegenerateEnsemble,
    DomainError,
    EmptyInput,
    EvaluationFailed,
    InitializationFailed,
    IsaError,
)
from .init import (
    McmcChain,
    ModeSet,
    build_gmm,
    dedup_modes,
    mcmc_init_ensemble,
    multistart,
    stretch_move_run,
)
from .isa import IsaConfig, IterationTrace, isa_run, isa_step
from .optimize import (
    OptimizationResult,
    OptSettings,
    OptStatus,
    fd_hessian,
    finite_diff_gradient,
    gauss_newton_hessian,
    minimize,
)
from .proposals import (
    GaussianMixtureProposal,
    GaussianProposal,
    StudentTProposal,
    fit_gaussian,
    fit_student_t,
    gmm_weights,
)
from .targets import (
    FAILURE,
    Failure,
    GaussianTarget,
    RegressionTarget,
    Toy2DTarget,
    is_failure,
    make_synthetic_regression,
    toy2d_log_density,
)

__version__ = "0.1.0"
