"""Gibbs samplers for three Bayesian penalized-regression models (fused,
group, and sparse-group lasso) with their geometric-ergodicity machinery
exposed as computable diagnostics."""

from .distributions import (
    RngStream,
    sample_gaussian_regression_conditional,
    sample_inverse_gamma,
    sample_inverse_gaussian,
)
from .ergodicity import (
    DriftReport,
    build_drift_report,
    drift_constant,
    drift_rate,
    drift_value,
    empirical_drift_check,
    log_minorization_epsilon,
    minorization_epsilon,
    small_set_radius,
)
from .gibbs import (
    ChainConfig,
    ChainOutput,
    bfl_full_conditional_params,
    bfl_step,
    bgl_full_conditional_params,
    bgl_step,
    bsgl_full_conditional_params,
    bsgl_step,
    run_chain,
)
from .model_core import (
    Dataset,
    FusedState,
    GroupState,
    GroupStructure,
    Hyperparameters,
    SparseGroupState,
    SymTridiagonal,
    build_fused_precision,
    build_group_precision,
    build_sparse_precision,
    fused_quadratic_form,
)
from .output_analysis import (
    SummaryReport,
    batch_means_cov,
    effective_sample_size,
    monte_carlo_mean,
    summarize,
)
from .solvers import (
    PenalizedSolution,
    default_start_bfl,
    default_start_bgl,
    default_start_bsgl,
    fused_lasso_solve,
    group_lasso_solve,
    sparse_group_lasso_solve,
)

__version__ = "0.1.0"
