"""Finite mixtures of Cox proportional-hazards models for censored data.

Fits K-component mixtures by penalized EM, selects K automatically by
pruning components whose mixing proportions are driven to zero under a
folded-concave (SCAD/MCP) or logarithmic penalty, tunes the penalty level by
a modified BIC, and evaluates fitted risk markers with time-dependent
ROC/AUC.
"""

from .coxfit import (
    DegenerateComponentError,
    NumericalError,
    component_log_density,
    cumulative_hazard,
    smooth_baseline_hazard,
)
from .data import DataError, Dataset, load_dataset, save_dataset
from .em import (
    EMConfig,
    FittedModel,
    MixtureParams,
    e_step,
    fit_mixture,
    load_model,
    model_from_json,
    model_to_json,
    observed_loglik,
    save_model,
)
from .penalties import PenaltySpec
from .simgen import (
    SimConfig,
    StudyResult,
    StudyRow,
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
from .tuning import TuningReport, TuningRow, level_from_c, select_tuning

__version__ = "0.1.0"

__all__ = [
    "__version__",
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
    "auc",
    "censoring_weights",
    "component_log_density",
    "compute_marker",
    "conditional_survival",
    "cumulative_hazard",
    "default_marker_bandwidth",
    "e_step",
    "fit_mixture",
    "generate_dataset",
    "level_from_c",
    "load_dataset",
    "load_model",
    "model_from_json",
    "model_to_json",
    "observed_loglik",
    "roc_curve",
    "run_study",
    "save_dataset",
    "save_model",
    "select_tuning",
    "smooth_baseline_hazard",
    "study_to_csv",
]
