"""Function catalog: derivatives, shape tags, and hints."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jensen_sharp import (
    Exponential,
    ParameterError,
    Shape,
    SupportInterval,
    exp_scaled,
    h_endpoint_limit,
    make_catalog_function,
    neg_log,
    power,
    power_mean_bounds,
    quadratic,
)
from jensen_sharp.functions import FunctionSpec, guarded

EPS_CBRT = float(np.finfo(float).eps) ** (1.0 / 3.0)

T_GRID = (-1.0, -0.5, 0.5, 1.0, 2.0)
P_GRID = (-2.0, -1.0, 0.5, 1.0, 1.5, 2.0, 3.0)


def catalog_grid():
    """Catalog entries with finite probe windows inside their domains."""
    entries = []
    for t in T_GRID:
        entries.append((exp_scaled(t), (-4.0, 4.0)))
    for p in P_GRID:
        entries.append((power(p), (0.1, 20.0)))
    entries.append((neg_log(), (0.1, 20.0)))
    entries.append((quadratic(1.0, 0.0, 0.0), (-6.0, 6.0)))
    entries.append((quadratic(-0.7, 2.0, -1.0), (-6.0, 6.0)))
    return entries


def central_diff(fn, x: float) -> float:
    h = EPS_CBRT * max(1.0, abs(x))
    return (float(fn(x + h)) - float(fn(x - h))) / (2.0 * h)


@pytest.mark.parametrize("f,window", catalog_grid(), ids=lambda e: getattr(e, "label", str(e)))
def test_derivatives_match_finite_differences(f, window):
    rng = np.random.default_rng(1234)
    xs = rng.uniform(window[0], window[1], 100)
    for x in xs:
        fd1 = central_diff(f.func, x)
        d1 = float(f.deriv1(x))
        assert abs(fd1 - d1) <= 1e-5 * max(1.0, abs(d1)), f"phi' off at x={x} for {f.label}"
        fd2 = central_diff(f.deriv1, x)
        d2 = float(f.deriv2(x))
        assert abs(fd2 - d2) <= 1e-5 * max(1.0, abs(d2)), f"phi'' off at x={x} for {f.label}"


def assert_tag_matches_deriv2(f, window):
    """phi' is convex exactly when phi'' is nondecreasing: check the tag on 32 interior
    points of the window."""
    xs = np.linspace(window[0], window[1], 34)[1:-1]
    steps = np.diff([float(f.deriv2(x)) for x in xs])
    if f.phi_prime_shape is Shape.CONVEX:
        assert np.all(steps >= 0.0), f.label
    else:
        assert f.phi_prime_shape is Shape.CONCAVE
        assert np.all(steps <= 0.0), f.label


@pytest.mark.parametrize("t", T_GRID)
def test_exp_shape_tag_and_classification_agree(t):
    f = exp_scaled(t)
    expected = Shape.CONVEX if t > 0 else Shape.CONCAVE
    assert f.phi_prime_shape is expected
    assert_tag_matches_deriv2(f, (-8.0, 8.0))


@pytest.mark.parametrize(
    "p,expected",
    [
        (-2.0, Shape.CONCAVE),
        (-1.0, Shape.CONCAVE),
        (0.5, Shape.CONVEX),
        (1.0, Shape.CONVEX),
        (1.5, Shape.CONCAVE),
        (2.0, Shape.CONVEX),
        (3.0, Shape.CONVEX),
    ],
)
def test_power_shape_tag_and_classification_agree(p, expected):
    f = power(p)
    assert f.phi_prime_shape is expected
    assert_tag_matches_deriv2(f, (0.0, 16.0))


def test_neglog_and_quadratic_classification():
    assert neg_log().phi_prime_shape is Shape.CONCAVE
    assert_tag_matches_deriv2(neg_log(), window=(0.1, 10.0))
    assert quadratic(2.0, -1.0, 5.0).phi_prime_shape is Shape.CONVEX
    assert_tag_matches_deriv2(quadratic(2.0, -1.0, 5.0), (-8.0, 8.0))


def test_exp_scaled_values_and_hint():
    f = exp_scaled(0.5)
    assert float(f.deriv2(2.0)) == pytest.approx(0.25 * math.exp(1.0), rel=1e-14)
    assert f.natural_domain.lower == -math.inf and f.natural_domain.upper == math.inf
    assert f.h_limit_hint(-math.inf, 1.0) == 0.0
    assert f.h_limit_hint(math.inf, 1.0) == math.inf
    assert f.h_limit_hint(3.0, 1.0) is None
    g = exp_scaled(-0.5)
    assert g.h_limit_hint(-math.inf, 1.0) == math.inf
    assert g.h_limit_hint(math.inf, 1.0) == 0.0


def test_neglog_hint_and_domain():
    f = neg_log()
    assert f.natural_domain.lower == 0.0 and not f.natural_domain.lower_closed
    assert f.h_limit_hint(math.inf, 1.0) == 0.0
    assert f.h_limit_hint(0.0, 1.0) == math.inf
    assert f.h_limit_hint(5.0, 1.0) is None


def test_power_hint_gives_closed_form_limits():
    # probing misses the slowest limits: p near 0 toward 0, p near 2 toward +inf
    nu = 1.18
    assert h_endpoint_limit(power(0.25), nu, 0.0) == pytest.approx(-0.75 * nu**-1.75, abs=1e-12)
    moment_lower = power_mean_bounds(Exponential(1.3), r=2, s=0.5).moment_lower
    assert math.isfinite(moment_lower)
    assert moment_lower <= math.gamma(1.5) / math.sqrt(1.3)  # E[X**0.5]
    assert power(-1.0).h_limit_hint(0.0, nu) == math.inf
    assert power(3.0).h_limit_hint(math.inf, nu) == math.inf
    assert power(2.0).h_limit_hint(math.inf, nu) == 1.0
    assert power(1.75).h_limit_hint(math.inf, nu) == 0.0
    assert power(0.5).h_limit_hint(5.0, nu) is None


def test_power_negative_exponent_is_concave_on_positive_half_line():
    f = power(-1.0)
    assert f.phi_prime_shape is Shape.CONCAVE
    assert f.natural_domain.lower == 0.0 and f.natural_domain.upper == math.inf


@pytest.mark.parametrize("coeffs", [(math.inf,), (1.0, math.nan), (1.0, 0.0, -math.inf)],
                         ids=["a", "b", "c"])
def test_quadratic_refuses_a_coefficient_that_is_not_finite(coeffs):
    name = "abc"[len(coeffs) - 1]
    with pytest.raises(ParameterError, match=f"quad coefficient {name} must be finite"):
        quadratic(*coeffs)


def test_quadratic_second_derivative_is_constant():
    f = quadratic(1.0, 0.0, 0.0)
    for x in (-10.0, 0.0, 3.7):
        assert float(f.deriv2(x)) == 2.0


def test_make_catalog_function_dispatch_and_errors():
    assert make_catalog_function("exp", t=0.5).label == "exp:t=0.5"
    assert make_catalog_function("power", p=-1).label == "power:p=-1"
    assert make_catalog_function("neglog").label == "neglog"
    assert make_catalog_function("quad", a=1, b=0, c=0).label == "quad:a=1,b=0,c=0"
    with pytest.raises(ParameterError):
        make_catalog_function("exp", t=0.0)
    with pytest.raises(ParameterError):
        make_catalog_function("power", p=0.0)
    with pytest.raises(ParameterError):
        make_catalog_function("sinh")
    with pytest.raises(ParameterError):
        make_catalog_function("exp")
    with pytest.raises(ParameterError):
        make_catalog_function("neglog", t=1.0)


def test_support_interval_validation():
    with pytest.raises(ParameterError):
        SupportInterval(2.0, 2.0)
    with pytest.raises(ParameterError):
        SupportInterval(3.0, 1.0)
    with pytest.raises(ParameterError):
        SupportInterval(-math.inf, 1.0, lower_closed=True)
    with pytest.raises(ParameterError):
        SupportInterval(0.0, math.inf, upper_closed=True)
    with pytest.raises(ParameterError):
        SupportInterval(math.nan, 1.0)


def test_support_interval_contains_flags():
    half_open = SupportInterval(0.0, 1.0, lower_closed=True, upper_closed=False)
    assert half_open.contains(0.0) and not half_open.contains(1.0)
    assert half_open.contains(0.5) and not half_open.contains(-0.1)
    open_iv = SupportInterval(0.0, math.inf)
    assert not open_iv.contains(0.0) and open_iv.contains(1e300)
    assert not open_iv.contains(math.inf)


def test_contains_interval_is_flag_aware():
    domain = SupportInterval(0.0, math.inf)
    assert domain.contains_interval(SupportInterval(1.0, 5.0, True, True))
    assert domain.contains_interval(SupportInterval(0.0, 5.0))  # open at the shared edge
    assert not domain.contains_interval(SupportInterval(0.0, 5.0, lower_closed=True))
    closed = SupportInterval(0.0, 10.0, True, True)
    assert closed.contains_interval(SupportInterval(0.0, 10.0, True, True))


@given(
    lo=st.floats(-1e6, 1e6),
    width=st.floats(1e-6, 1e6),
    x=st.floats(-2e6, 2e6),
)
@settings(max_examples=200, deadline=None)
def test_contains_respects_ordering(lo, width, x):
    iv = SupportInterval(lo, lo + width, lower_closed=True, upper_closed=True)
    if iv.contains(x):
        assert iv.lower <= x <= iv.upper
    else:
        assert x < iv.lower or x > iv.upper or math.isnan(x)


def test_guarded_array_gives_nan_only_where_a_scalar_callable_fails():
    xs = np.array([0.0, 1.0, 800.0, -2.0, 1000.0])
    v = guarded(math.exp, xs)  # math.exp raises TypeError on an ndarray
    assert v.dtype == float and v.shape == xs.shape
    assert np.array_equal(np.isnan(v), [False, False, True, False, True])
    assert v[1] == math.exp(1.0) and v[3] == math.exp(-2.0)


def test_guarded_array_calls_a_broadcasting_callable_once():
    calls = []

    def fn(x):
        calls.append(x)
        return np.exp(x)

    xs = np.linspace(-1.0, 1000.0, 7)
    # guarded runs under its caller's error state, so the caller holds one, as every loop does
    with np.errstate(over="ignore"):
        v = guarded(fn, xs)
        assert np.array_equal(v, np.exp(xs)) and np.isinf(v[-1])
    assert len(calls) == 1 and calls[0] is xs


@pytest.mark.parametrize("x", [0.5, np.linspace(0.0, 1.0, 5)], ids=["float", "array"])
def test_guarded_evaluates_under_its_callers_error_state(x):
    seen = []

    def fn(t):
        seen.append(np.geterr())
        return np.exp(t)

    with np.errstate(over="ignore", divide="raise", invalid="warn", under="print"):
        guarded(fn, x)
        assert seen == [np.geterr()]


def test_guarded_array_falls_back_when_the_shape_is_wrong():
    xs = np.array([1.0, 2.0, 3.0])
    calls = []

    def first_only(x):
        calls.append(x)
        return float(np.ravel(x)[0]) * 2.0

    v = guarded(first_only, xs)
    assert v.tolist() == [2.0, 4.0, 6.0]
    assert len(calls) == 4  # the whole array once, then each point


def test_guarded_float_input_returns_a_float():
    v = guarded(lambda x: np.exp(x), 1.5)
    assert type(v) is float and v == math.exp(1.5)
    assert math.isnan(guarded(math.exp, 1000.0))


@pytest.mark.parametrize(
    "iv",
    [
        SupportInterval(0.0, 1.0, True, True),
        SupportInterval(0.0, 1.0, True, False),
        SupportInterval(0.0, 1.0, False, True),
        SupportInterval(0.0, 1.0),
        SupportInterval(-math.inf, 1.0, False, True),
        SupportInterval(0.0, math.inf, True, False),
        SupportInterval(-math.inf, math.inf),
    ],
    ids=str,
)
def test_contains_on_an_array_agrees_with_the_scalar_form(iv):
    xs = np.array([-math.inf, -1.0, -0.0, 0.0, 1e-300, 0.5, 1.0, 1.0 + 1e-15, 2.0, math.inf, math.nan])
    mask = iv.contains(xs)
    assert mask.dtype == bool and mask.shape == xs.shape
    assert mask.tolist() == [iv.contains(x) for x in xs.tolist()]
    assert not mask[-1]
