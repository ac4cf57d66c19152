"""One extrema path: the shape tag settles the extrema of h and phi''/2 alike."""

import dataclasses
import math

import pytest

from jensen_sharp import (
    Empirical,
    Exponential,
    FunctionSpec,
    Normal,
    Shape,
    SupportInterval,
    Uniform,
    exp_scaled,
    neg_log,
    positivity_certificate,
    power,
    quadratic,
)
from jensen_sharp.bounds import curvature_extrema, h_extrema, switch_radius
from jensen_sharp.cli import reference_sample

from _support import ext_close

TAGGED = [
    exp_scaled(1.0),
    exp_scaled(-0.7),
    exp_scaled(0.05),
    neg_log(),
    power(3.0),
    power(2.5),
    power(2.0),
    power(1.5),
    power(1.0),
    power(0.5),
    power(-1.0),
    quadratic(1.5, -2.0, 0.3),
]

LAWS = [
    Normal(0.0, 1.0),
    Exponential(1.3),
    Uniform(1.0, 4.0),
    Empirical(reference_sample()),
]

CASES = [
    (f, d) for f in TAGGED for d in LAWS if f.natural_domain.contains_interval(d.support)
]


def _label(v):
    return getattr(v, "label", None) or type(v).__name__


@pytest.mark.parametrize("f, d", CASES, ids=_label)
def test_tagged_curvature_extrema_equal_the_scan_of_a_shape_stripped_copy(f, d):
    """Within 1e-8 of scale, twice that where the endpoint path probed a limit."""
    assert f.phi_prime_shape is not Shape.UNKNOWN
    stripped = dataclasses.replace(f, phi_prime_shape=Shape.UNKNOWN)
    tagged = curvature_extrema(f, d.support, d.mean())
    scanned = curvature_extrema(stripped, d.support, d.mean())
    scale = max([1.0] + [abs(e.value) for e in tagged if math.isfinite(e.value)])
    for ev, scan_ev in zip(tagged, scanned):
        at = ev.attained_at
        probed = not (math.isfinite(at) and f.natural_domain.contains(at))
        tol = (2e-8 if probed else 1e-8) * scale
        assert ext_close(ev.value, scan_ev.value, tol), (ev, scan_ev)


def _counting_deriv2(f: FunctionSpec) -> tuple[FunctionSpec, list[float]]:
    calls: list[float] = []

    def counted(x):
        calls.append(x)
        return f.deriv2(x)

    return dataclasses.replace(f, deriv2=counted), calls


@pytest.mark.parametrize(
    "f, d",
    [
        (exp_scaled(1.0), Normal(0.0, 1.0)),
        (neg_log(), Exponential(1.3)),
        (power(3.0), Uniform(1.0, 4.0)),
        (quadratic(1.5, -2.0, 0.3), Normal(0.0, 1.0)),
    ],
    ids=_label,
)
def test_tagged_curvature_extrema_take_the_endpoints_without_a_scan(f, d):
    counted, calls = _counting_deriv2(f)
    curvature_extrema(counted, d.support, d.mean())
    assert len(calls) < 64  # a scan evaluates phi'' at 480 grid points or more


@pytest.mark.parametrize("f", TAGGED, ids=_label)
def test_tagged_h_extrema_outside_the_switch_radius_read_no_phi_second_derivative(f):
    """Ends outside the radius take the direct formula (or a hint), which needs no phi''."""
    counted, calls = _counting_deriv2(f)
    h_extrema(counted, SupportInterval(1.0, 3.0, True, False), 2.0)
    assert calls == []


@pytest.mark.parametrize("f", [exp_scaled(1.0), neg_log(), power(3.0)], ids=_label)
def test_tagged_h_extrema_within_the_switch_radius_read_phi_second_derivative_at_nu_once(f):
    """Ends within the radius take the second-order rule: phi'' at each end, and at nu once."""
    counted, calls = _counting_deriv2(f)
    nu = 2.0
    lo, hi = nu - 0.5 * switch_radius(nu), nu + 0.25 * switch_radius(nu)
    h_extrema(counted, SupportInterval(lo, hi, True, True), nu)
    assert sorted(calls) == [lo, nu, hi]


@pytest.mark.parametrize(
    "f, d, window",
    [
        (exp_scaled(1.0), Normal(0.0, 1.0), SupportInterval(0.0, 1.0)),
        (neg_log(), Exponential(1.3), SupportInterval(0.5, 2.0, True, False)),
    ],
    ids=_label,
)
def test_tagged_positivity_certificate_takes_the_endpoints_without_a_scan(f, d, window):
    counted, calls = _counting_deriv2(f)
    assert positivity_certificate(counted, d, window)
    assert len(calls) < 64
