"""Finite mixtures of Cox proportional-hazards models for censored data.

Fits K-component mixtures by penalized EM, selects K automatically by
pruning components whose mixing proportions are driven to zero under a
folded-concave (SCAD/MCP) or logarithmic penalty, tunes the penalty level by
a modified BIC, and evaluates fitted risk markers with time-dependent
ROC/AUC.
"""

from .coxfit import (
    BaselineHazard,
    ComponentFit,
    DegenerateComponentError,
    NumericalError,
    component_log_density,
    cumulative_hazard,
    fit_weighted_cox,
    partial_loglik_gradient,
    partial_loglik_hessian,
    smooth_baseline_hazard,
    weighted_partial_loglik,
)
from .data import (
    DataError,
    Dataset,
    load_dataset,
    save_dataset,
    standardize_covariates,
)
from .em import (
    EMConfig,
    FittedModel,
    MixtureParams,
    check_convergence,
    e_step,
    fit_mixture,
    load_model,
    model_from_json,
    model_to_json,
    monotonicity_failures,
    observed_loglik,
    penalized_observed_loglik,
    save_model,
    update_mixing_proportions,
)
from .penalties import (
    PenaltySpec,
    lla_coefficient,
    log_scale_term,
    penalty_derivative,
    penalty_value,
)
from .simgen import (
    SimConfig,
    StudyResult,
    StudyRow,
    ar1_covariates,
    calibrate_censoring,
    generate_dataset,
    run_study,
    study_to_csv,
)
from .tdroc import (
    RocCurve,
    auc,
    censoring_weights,
    compute_marker,
    conditional_survival,
    default_marker_bandwidth,
    roc_curve,
)
from .tuning import (
    TuningReport,
    TuningRow,
    bic_score,
    default_c_grid,
    level_from_c,
    select_tuning,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BaselineHazard",
    "ComponentFit",
    "DataError",
    "Dataset",
    "DegenerateComponentError",
    "EMConfig",
    "FittedModel",
    "MixtureParams",
    "NumericalError",
    "PenaltySpec",
    "RocCurve",
    "SimConfig",
    "StudyResult",
    "StudyRow",
    "TuningReport",
    "TuningRow",
    "ar1_covariates",
    "auc",
    "bic_score",
    "calibrate_censoring",
    "censoring_weights",
    "check_convergence",
    "component_log_density",
    "compute_marker",
    "conditional_survival",
    "cumulative_hazard",
    "default_c_grid",
    "default_marker_bandwidth",
    "e_step",
    "fit_mixture",
    "fit_weighted_cox",
    "generate_dataset",
    "level_from_c",
    "lla_coefficient",
    "load_dataset",
    "load_model",
    "log_scale_term",
    "model_from_json",
    "model_to_json",
    "monotonicity_failures",
    "observed_loglik",
    "partial_loglik_gradient",
    "partial_loglik_hessian",
    "penalized_observed_loglik",
    "penalty_derivative",
    "penalty_value",
    "roc_curve",
    "run_study",
    "save_dataset",
    "save_model",
    "select_tuning",
    "smooth_baseline_hazard",
    "standardize_covariates",
    "study_to_csv",
    "update_mixing_proportions",
    "weighted_partial_loglik",
]
