"""One assembly path: the sample and partition bounds reuse the distribution machinery."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jensen_sharp import (
    BoundMethod,
    Empirical,
    FunctionSpec,
    JensenSharpError,
    Normal,
    Shape,
    Uniform,
    build_partition,
    cell_h_extrema,
    curvature_bounds,
    equal_probability_cuts,
    exp_scaled,
    jensen_bounds,
    neg_log,
    partition_bounds,
    power,
    quadratic,
    sample_bounds,
)


def _outcome(fn, *args):
    """The result of a call, or the type of the library error it raised."""
    try:
        return fn(*args)
    except JensenSharpError as exc:
        return type(exc)


def _scan_only(f: FunctionSpec) -> FunctionSpec:
    # without its shape tag the function takes the scan path
    return dataclasses.replace(f, phi_prime_shape=Shape.UNKNOWN)


FUNCTIONS = [
    neg_log(),
    exp_scaled(0.05),
    power(-1.0),
    power(0.5),
    quadratic(1.5, -2.0, 0.3),
    _scan_only(power(3.0)),
]


@given(
    xs=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=40),
    k=st.integers(0, len(FUNCTIONS) - 1),
)
@settings(max_examples=150, deadline=None)
def test_sample_bounds_are_the_distribution_bounds_of_the_empirical_law(xs, k):
    f = FUNCTIONS[k]
    sb = _outcome(sample_bounds, f, xs)
    jb = _outcome(lambda: jensen_bounds(f, Empirical(xs)))
    if isinstance(sb, type):
        assert sb is jb
        return
    assert sb.method is BoundMethod.SAMPLE
    assert dataclasses.replace(sb, method=BoundMethod.DISTRIBUTION) == jb


def test_sample_bounds_accepts_any_iterable_of_numbers():
    xs = [12.0, 47.0, 80.0, 33.0, 95.0]
    expected = sample_bounds(neg_log(), xs)
    assert sample_bounds(neg_log(), iter(xs)) == expected
    assert sample_bounds(neg_log(), tuple(xs)) == expected
    assert sample_bounds(neg_log(), np.array(xs)) == expected
    assert sample_bounds(neg_log(), Empirical(xs)) == expected


def _plans():
    normal = Normal(0.0, 1.0)
    uniform = Uniform(1.0, 9.0)
    emp = Empirical(np.random.default_rng(3).exponential(2.0, 400) + 0.5)
    return [
        (exp_scaled(1.0), build_partition(normal, equal_probability_cuts(normal, 3))),
        (neg_log(), build_partition(uniform, [2.5, 5.0])),
        (neg_log(), build_partition(uniform, [])),
        (_scan_only(power(3.0)), build_partition(emp, equal_probability_cuts(emp, 5))),
    ]


@pytest.mark.parametrize("case", range(4))
def test_partition_keeps_the_cell_extrema_it_computed(case):
    f, plan = _plans()[case]
    pb = partition_bounds(f, plan)
    assert len(pb.cell_extrema) == plan.m
    assert pb.cell_extrema == tuple(cell_h_extrema(f, plan))
    assert "cell_extrema" not in pb.to_json_dict()


def test_single_interval_bounds_keep_no_cell_extrema():
    d = Uniform(1.0, 9.0)
    for gb in (
        jensen_bounds(neg_log(), d),
        curvature_bounds(neg_log(), d),
        sample_bounds(neg_log(), [1.0, 2.0, 4.0]),
    ):
        assert gb.cell_extrema == ()
