"""The public surface: the exported names and the signatures stay put.

A change to a pinned name or signature is a change to the public API; it must come
with the README, the tests and CHANGES.md updated in the same change.
"""

import dataclasses
import inspect
import math

import pytest

import jensen_sharp
from jensen_sharp import (
    NumericError,
    bounds,
    cli,
    distributions,
    extreal,
    functions,
    oracle,
    partition,
    quadrature,
)

PINNED_EXPORTS = [
    "BoundMethod", "CustomPdf", "DEFAULT_MC_BUDGET", "DEFAULT_SEED", "Discrete",
    "DistributionSpec", "DomainError", "Empirical", "EmptyCellError", "EvaluationError",
    "Exponential", "FunctionSpec", "GapBounds", "GapEstimate", "HEvaluation", "HMethod",
    "JensenSharpError", "LimitUndeterminedError", "Normal", "NumericError", "OracleMethod",
    "ParameterError", "PartitionPlan", "PowerMeanBounds", "PowerTransform", "Shape",
    "SupportInterval", "TruncatedStats", "Uniform", "build_partition", "cell_h_extrema",
    "curvature_bounds", "empirical_from_file", "equal_probability_cuts",
    "estimate_conditional_gap", "estimate_gap", "exp_scaled", "generalized_mean_bounds",
    "h_endpoint_limit", "h_eval", "h_extrema", "jensen_bounds", "load_samples",
    "make_catalog_function", "neg_log", "partition_bounds", "positivity_certificate", "power",
    "power_mean_bounds", "quadratic", "sample_bounds", "switch_radius", "transform_power",
]

PINNED_SIGNATURES = {
    "functions.exp_scaled": "(t: 'float') -> 'FunctionSpec'",
    "functions.power": "(p: 'float') -> 'FunctionSpec'",
    "functions.neg_log": "() -> 'FunctionSpec'",
    "functions.quadratic": "(a: 'float', b: 'float' = 0.0, c: 'float' = 0.0) -> 'FunctionSpec'",
    "functions.make_catalog_function": "(kind: 'str', **params: 'float') -> 'FunctionSpec'",
    "distributions.equal_probability_cuts": (
        "(d: 'DistributionSpec', m: 'int') -> 'list[float]'"
    ),
    "distributions.transform_power": (
        "(d: 'DistributionSpec', r: 'float') -> 'DistributionSpec'"
    ),
    "distributions.load_samples": "(path: 'str | Path') -> 'list[float]'",
    "distributions.empirical_from_file": "(path: 'str | Path') -> 'Empirical'",
    "bounds.h_eval": "(f: 'FunctionSpec', nu: 'float', x: 'float') -> 'HEvaluation'",
    "bounds.h_endpoint_limit": "(f: 'FunctionSpec', nu: 'float', endpoint: 'float') -> 'float'",
    "bounds.h_extrema": (
        "(f: 'FunctionSpec', interval: 'SupportInterval', nu: 'float')"
        " -> 'tuple[HEvaluation, HEvaluation]'"
    ),
    "bounds.jensen_bounds": "(f: 'FunctionSpec', d: 'DistributionSpec') -> 'GapBounds'",
    "bounds.sample_bounds": "(f: 'FunctionSpec', xs) -> 'GapBounds'",
    "bounds.curvature_bounds": "(f: 'FunctionSpec', d: 'DistributionSpec') -> 'GapBounds'",
    "bounds.power_mean_bounds": (
        "(d: 'DistributionSpec', r: 'float', s: 'float') -> 'PowerMeanBounds'"
    ),
    "bounds.generalized_mean_bounds": (
        "(f: 'FunctionSpec', f_inverse: 'Callable[[float], float]', d: 'DistributionSpec')"
        " -> 'tuple[float, float]'"
    ),
    "bounds.switch_radius": "(nu: 'float') -> 'float'",
    "partition.build_partition": (
        "(d: 'DistributionSpec', cuts: 'Sequence[float]') -> 'PartitionPlan'"
    ),
    "partition.partition_bounds": "(f: 'FunctionSpec', plan: 'PartitionPlan') -> 'GapBounds'",
    "partition.cell_h_extrema": (
        "(f: 'FunctionSpec', plan: 'PartitionPlan')"
        " -> 'list[tuple[HEvaluation, HEvaluation]]'"
    ),
    "partition.positivity_certificate": (
        "(f: 'FunctionSpec', d: 'DistributionSpec', window: 'SupportInterval') -> 'bool'"
    ),
    "oracle.estimate_gap": (
        "(f: 'FunctionSpec', d: 'DistributionSpec', budget: 'int' = 1000000,"
        " method: 'str' = 'auto', seed: 'int | None' = None) -> 'GapEstimate'"
    ),
    "oracle.estimate_conditional_gap": (
        "(f: 'FunctionSpec', d: 'DistributionSpec', cell: 'SupportInterval',"
        " budget: 'int' = 1000000, method: 'str' = 'auto', seed: 'int | None' = None)"
        " -> 'GapEstimate'"
    ),
    "quadrature.expectation": (
        "(integrand: 'Callable[[float], float]', support: 'SupportInterval',"
        " anchor: 'float', scale: 'float') -> 'tuple[float, float]'"
    ),
    "cli.parse_args": "(argv: 'list[str] | None' = None) -> 'RunConfig'",
    "cli.run": "(config: 'RunConfig') -> 'tuple[int, dict]'",
    "cli.paper_report": "() -> 'dict'",
    "cli.main": "(argv: 'list[str] | None' = None) -> 'int'",
    "extreal.ext_mul": "(a: 'float', b: 'float') -> 'float'",
    "extreal.ext_sum": "(terms: 'Iterable[float]') -> 'float'",
    "extreal.encode": "(x: 'float') -> 'float | str'",
}

PINNED_FIELDS = {
    "GapBounds": (
        "lower", "upper", "lower_detail", "upper_detail", "variance_used", "method",
        "cell_extrema",
    ),
    "CustomPdf": ("pdf", "support_interval", "label"),
    "PartitionPlan": ("cells", "source"),
    "PowerTransform": ("source", "r"),
}

EXPECT_SIGNATURE = (
    "(self, g: 'Callable[[float], float]', cell: 'SupportInterval | None' = None)"
    " -> 'tuple[float, float]'"
)


def _public_functions() -> dict[str, object]:
    found = {}
    for mod in (functions, distributions, bounds, partition, oracle, quadrature, cli, extreal):
        short = mod.__name__.rsplit(".", 1)[1]
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj):
                found[f"{short}.{name}"] = obj
    return found


def test_every_exported_name_resolves():
    for name in jensen_sharp.__all__:
        assert getattr(jensen_sharp, name) is not None, name
    assert len(set(jensen_sharp.__all__)) == len(jensen_sharp.__all__)


def test_package_exports_are_exactly_the_pinned_ones():
    assert sorted(jensen_sharp.__all__) == PINNED_EXPORTS


def test_public_functions_are_exactly_the_pinned_ones():
    assert sorted(_public_functions()) == sorted(PINNED_SIGNATURES)


@pytest.mark.parametrize("name", sorted(PINNED_SIGNATURES))
def test_public_signature_is_pinned(name):
    assert str(inspect.signature(_public_functions()[name])) == PINNED_SIGNATURES[name]


@pytest.mark.parametrize("cls", sorted(PINNED_FIELDS))
def test_result_and_law_fields_are_pinned(cls):
    fields = tuple(f.name for f in dataclasses.fields(getattr(jensen_sharp, cls)))
    assert fields == PINNED_FIELDS[cls]


def test_expect_signature_is_pinned():
    assert str(inspect.signature(jensen_sharp.DistributionSpec.expect)) == EXPECT_SIGNATURE


@pytest.mark.parametrize("cls", ["Normal", "CustomPdf", "Empirical", "Discrete", "PowerTransform"])
def test_every_law_takes_the_same_expect_arguments(cls):
    params = inspect.signature(getattr(jensen_sharp, cls).expect).parameters
    assert list(params) == ["self", "g", "cell"]
    assert params["cell"].default is None


def test_encode_passes_finite_values_and_spells_out_infinities():
    assert extreal.encode(-2.5) == -2.5
    assert extreal.encode(0.0) == 0.0
    assert extreal.encode(math.inf) == "inf"
    assert extreal.encode(-math.inf) == "-inf"
    with pytest.raises(NumericError):
        extreal.encode(math.nan)
