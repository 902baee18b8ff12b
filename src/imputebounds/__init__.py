"""imputebounds: what missing data can and cannot tell you about a
conditional mean.

The package computes assumption-free identification intervals for
E(y | x) (missing outcomes) and E(y | x, w) (missing covariates, binary y),
the exact probability limits of random-imputation estimators against finite
populations, and seeded Monte Carlo experiments confirming that imputation
converges to those limits: biased in general, consistent only when the
imputation distribution matches the truth in mean (outcomes) or in joint
mass and mean (covariates).
"""

__version__ = "0.1.0"

from . import errors
from .domain import (
    CategoricalDomain,
    CellSelector,
    FinitePopulation,
    Interval,
    ObservationTable,
    OutcomeDomain,
    load_population,
    population_from_json,
    population_to_json,
    save_population,
)
from .ecological import (
    ShortDistributions,
    duncan_davis_bounds,
    duncan_davis_oracle,
    ecological_plim,
)
from .missing_covariate import (
    binary_bounds_closed_form,
    binary_bounds_oracle,
    imputed_cell_share,
    imputed_long_mean,
    matching_conditions,
    midpoint_long_estimate,
    mixture_conditional_mean,
    mixture_joint_estimate,
    plim_imputed_long_mean,
    true_long_mean,
)
from .missing_outcome import (
    RestrictionGamma,
    consistency_condition,
    identification_interval_pop,
    imputation_mean,
    midpoint_estimate,
    plim_imputation_mean,
    q_mean_estimate,
    restricted_interval_pop,
    sample_interval,
    true_mean,
)
from .models import (
    ImputationModel,
    QCovariateModel,
    true_covariate_model,
    true_outcome_model,
)
from .rmi import (
    EstimatorSpec,
    MultipleImputationResult,
    draw_completion,
    fit_model,
    run_multiple_imputation,
)
from .simlab import (
    BiasGapReport,
    ExperimentSpec,
    MissingnessMechanism,
    apply_mechanism,
    bias_gap,
    convergence_experiment,
    joint_population,
    random_population,
    sample_table,
)

__all__ = [
    "__version__",
    "errors",
    # domain
    "CategoricalDomain", "CellSelector", "FinitePopulation", "Interval",
    "ObservationTable", "OutcomeDomain", "load_population", "population_from_json",
    "population_to_json", "save_population",
    # missing outcomes
    "RestrictionGamma", "consistency_condition", "identification_interval_pop",
    "imputation_mean", "midpoint_estimate", "plim_imputation_mean",
    "q_mean_estimate", "restricted_interval_pop", "sample_interval", "true_mean",
    # missing covariates
    "QCovariateModel", "binary_bounds_closed_form", "binary_bounds_oracle",
    "imputed_cell_share", "imputed_long_mean", "matching_conditions",
    "midpoint_long_estimate", "mixture_conditional_mean",
    "mixture_joint_estimate", "plim_imputed_long_mean", "true_long_mean",
    # ecological
    "ShortDistributions", "duncan_davis_bounds", "duncan_davis_oracle",
    "ecological_plim",
    # imputation models and pooling
    "EstimatorSpec", "ImputationModel", "MultipleImputationResult",
    "draw_completion", "fit_model", "run_multiple_imputation",
    "true_covariate_model", "true_outcome_model",
    # simulation lab
    "BiasGapReport", "ExperimentSpec", "MissingnessMechanism",
    "apply_mechanism", "bias_gap", "convergence_experiment",
    "joint_population", "random_population", "sample_table",
]
