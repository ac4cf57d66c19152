"""Sharpened two-sided bounds on the Jensen gap E[phi(X)] - phi(E[X]).

The gap is squeezed between inf h and sup h of the curvature ratio
h(x; mu) = (phi(x) - phi(mu))/(x - mu)**2 - phi'(mu)/(x - mu), scaled by
var(X).  The package provides a function catalog, a distribution layer,
the bounds engine (full-support, sample, curvature, and partition-refined
variants), power-mean and generalized-mean applications, an independent
gap oracle, and a CLI.
"""

from .bounds import (
    BoundMethod,
    GapBounds,
    HEvaluation,
    HMethod,
    PowerMeanBounds,
    curvature_bounds,
    generalized_mean_bounds,
    h_endpoint_limit,
    h_eval,
    h_extrema,
    jensen_bounds,
    power_mean_bounds,
    sample_bounds,
    switch_radius,
)
from .distributions import (
    CustomPdf,
    Discrete,
    DistributionSpec,
    Empirical,
    Exponential,
    Normal,
    PowerTransform,
    TruncatedStats,
    Uniform,
    empirical_from_file,
    equal_probability_cuts,
    load_samples,
    transform_power,
)
from .errors import (
    DomainError,
    EmptyCellError,
    EvaluationError,
    JensenSharpError,
    LimitUndeterminedError,
    NumericError,
    ParameterError,
)
from .functions import (
    FunctionSpec,
    Shape,
    SupportInterval,
    exp_scaled,
    make_catalog_function,
    neg_log,
    power,
    quadratic,
)
from .oracle import (
    DEFAULT_MC_BUDGET,
    DEFAULT_SEED,
    GapEstimate,
    OracleMethod,
    estimate_conditional_gap,
    estimate_gap,
)
from .partition import (
    PartitionPlan,
    build_partition,
    cell_h_extrema,
    partition_bounds,
    positivity_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "BoundMethod",
    "CustomPdf",
    "DEFAULT_MC_BUDGET",
    "DEFAULT_SEED",
    "Discrete",
    "DistributionSpec",
    "DomainError",
    "Empirical",
    "EmptyCellError",
    "EvaluationError",
    "Exponential",
    "FunctionSpec",
    "GapBounds",
    "GapEstimate",
    "HEvaluation",
    "HMethod",
    "JensenSharpError",
    "LimitUndeterminedError",
    "Normal",
    "NumericError",
    "OracleMethod",
    "ParameterError",
    "PartitionPlan",
    "PowerMeanBounds",
    "PowerTransform",
    "Shape",
    "SupportInterval",
    "TruncatedStats",
    "Uniform",
    "build_partition",
    "cell_h_extrema",
    "curvature_bounds",
    "empirical_from_file",
    "equal_probability_cuts",
    "estimate_conditional_gap",
    "estimate_gap",
    "exp_scaled",
    "generalized_mean_bounds",
    "h_endpoint_limit",
    "h_eval",
    "h_extrema",
    "jensen_bounds",
    "load_samples",
    "make_catalog_function",
    "neg_log",
    "partition_bounds",
    "positivity_certificate",
    "power",
    "power_mean_bounds",
    "quadratic",
    "sample_bounds",
    "switch_radius",
    "transform_power",
]
