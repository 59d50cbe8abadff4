"""Interpretable ANOVA approximation of high-dimensional scattered data.

Fit truncated ANOVA expansions in orthonormal bases by damped iterative
least squares, read off global sensitivity indices and attribute rankings,
and refine the active term set.
"""

from .basis import BasisKind, eval_1d, eval_tensor, full_grid_1d
from .bench import EvaluationSummary, median_evaluate
from .datasets import (
    Dataset,
    FriedmanSpec,
    Normalization,
    SplitPlan,
    apply_normalization,
    friedman_eval,
    friedman_sample,
    load_csv,
    normalize,
    rng_stream,
    split,
)
from .errors import (
    AnovaFitError,
    ConfigError,
    DataError,
    DegenerateModelError,
    DomainError,
    NumericalError,
)
from .model import (
    Model,
    SensitivityReport,
    analyze,
    attribute_ranking,
    drop_variables,
    fit,
    gsi,
    incremental_expand,
    load_model,
    mse,
    predict,
    predict_term,
    relative_error,
    rmse,
    save_model,
    threshold_active_set,
    variance,
)
from .operators import DesignOperator, dense_design_matrix
from .solver import LsqrResult, SolverConfig, direct_solve, lsqr_solve
from .terms import (
    BandwidthProfile,
    FrequencyIndexUnion,
    TermSet,
    build_index_union,
    load_termset,
    save_termset,
    superposition_terms,
)

__version__ = "0.1.0"

__all__ = [
    "AnovaFitError",
    "BandwidthProfile",
    "BasisKind",
    "ConfigError",
    "DataError",
    "Dataset",
    "DegenerateModelError",
    "DesignOperator",
    "DomainError",
    "EvaluationSummary",
    "FrequencyIndexUnion",
    "FriedmanSpec",
    "LsqrResult",
    "Model",
    "Normalization",
    "NumericalError",
    "SensitivityReport",
    "SolverConfig",
    "SplitPlan",
    "TermSet",
    "analyze",
    "apply_normalization",
    "attribute_ranking",
    "build_index_union",
    "dense_design_matrix",
    "direct_solve",
    "drop_variables",
    "eval_1d",
    "eval_tensor",
    "fit",
    "friedman_eval",
    "friedman_sample",
    "full_grid_1d",
    "gsi",
    "incremental_expand",
    "load_csv",
    "load_model",
    "load_termset",
    "lsqr_solve",
    "median_evaluate",
    "mse",
    "normalize",
    "predict",
    "predict_term",
    "relative_error",
    "rmse",
    "rng_stream",
    "save_model",
    "save_termset",
    "split",
    "superposition_terms",
    "threshold_active_set",
    "variance",
]
