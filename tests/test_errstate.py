"""numpy's error state: set once per loop that evaluates points, never leaked.

Integrals, extrema searches and endpoint rules evaluate phi one point at a
time, and entering ``np.errstate`` costs more than one such evaluation.  So
each loop holds one error state around all its points, and an overflow
anywhere on those scalar paths gives inf or a typed error without a warning.
"""

import dataclasses
import math

import numpy as np
import pytest

from jensen_sharp import (
    EvaluationError,
    FunctionSpec,
    Normal,
    Shape,
    SupportInterval,
    Uniform,
    estimate_gap,
    exp_scaled,
    generalized_mean_bounds,
    h_endpoint_limit,
    h_eval,
    h_extrema,
)
from jensen_sharp import bounds, quadrature
from jensen_sharp.quadrature import expectation


@pytest.fixture
def errstates(monkeypatch) -> list[int]:
    """One entry for each ``with np.errstate(...)`` entered while the test runs."""
    entered = []

    class Counted(np.errstate):
        def __enter__(self):
            entered.append(1)
            return super().__enter__()

    monkeypatch.setattr(np, "errstate", Counted)
    return entered


def test_one_integral_enters_one_error_state(errstates, monkeypatch):
    # the direct pass over the whole line is not trusted, so the core and
    # both walks run too: several QUADPACK passes, over a thousand nodes
    passes, nodes = [], []
    quad = quadrature._quad

    def counted_quad(fn, lo, hi):
        passes.append((lo, hi))
        return quad(fn, lo, hi)

    def integrand(x):
        nodes.append(x)
        z = (x + 0.851) / 0.684
        return math.exp(0.553 * x) * math.exp(-0.5 * z * z) / (0.684 * math.sqrt(2.0 * math.pi))

    monkeypatch.setattr(quadrature, "_quad", counted_quad)
    value, _ = expectation(integrand, SupportInterval(-math.inf, math.inf), -0.851, 0.684)
    assert value == pytest.approx(math.exp(0.553 * -0.851 + 0.5 * (0.553 * 0.684) ** 2), rel=1e-9)
    assert len(passes) > 2
    assert len(nodes) > 1000
    assert len(errstates) == 1


_SIN = FunctionSpec(
    func=np.sin,
    deriv1=np.cos,
    deriv2=lambda x: -np.sin(x),
    natural_domain=SupportInterval(-math.inf, math.inf),
    label="sin",
)


@pytest.mark.parametrize("law", [Normal(0.3, 2.0), Uniform(-20.0, 20.0)], ids=repr)
def test_one_extrema_search_enters_a_fixed_number_of_error_states(law, errstates, monkeypatch):
    # h of sin(x) has a well at every multiple of pi, so the scan starts
    # golden-section searches, more of them the wider the law
    searches, points = [], []
    search = bounds._golden_section

    def recorded(fn, a, b, tol):
        searches.append((a, b))
        return search(fn, a, b, tol)

    def counted(x):
        points.append(np.size(x))
        return np.sin(x)

    monkeypatch.setattr(bounds, "_golden_section", recorded)
    h_extrema(dataclasses.replace(_SIN, func=counted), law.support, law.mean())
    assert searches
    assert sum(points) > 600
    # the centre values, the ends with the scan, and the grid's one array call of phi
    assert len(errstates) == 3


def _overflowing_quadrature():
    # exp(3x) overflows past x = 236, where the normal's tail nodes still carry mass
    assert estimate_gap(exp_scaled(3.0), Normal(0.0, 40.0), method="quad").value == math.inf


def _overflowing_endpoint_probe():
    # with no hint and no shape tag, the first probe from nu = 500 lands at
    # x = 1000, where exp(1.3 x) overflows
    stripped = dataclasses.replace(exp_scaled(1.3), phi_prime_shape=Shape.UNKNOWN, h_limit_hint=None)
    assert h_endpoint_limit(stripped, 500.0, math.inf) == math.inf


def _overflowing_extrema_scan():
    # the same probe at the upper end, then grid points and searches out to 500 + 500 * 2**42
    stripped = dataclasses.replace(exp_scaled(1.3), phi_prime_shape=Shape.UNKNOWN, h_limit_hint=None)
    inf_ev, sup_ev = h_extrema(stripped, SupportInterval(-math.inf, math.inf), 500.0)
    assert math.isfinite(inf_ev.value)
    assert sup_ev.value == math.inf


def _overflowing_h_eval():
    with pytest.raises(EvaluationError, match="not finite"):
        h_eval(exp_scaled(1.3), 0.0, 1000.0)


def _overflowing_inverse():
    # exp(1000 v) overflows at both ends of the bracket on E[e**X], which lie
    # above e**0.5, so each maps to the upper end of the domain
    lo, hi = generalized_mean_bounds(exp_scaled(1.0), lambda v: np.exp(1000.0 * v), Uniform(0.0, 1.0))
    assert (lo, hi) == (math.inf, math.inf)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "path",
    [
        _overflowing_quadrature,
        _overflowing_endpoint_probe,
        _overflowing_extrema_scan,
        _overflowing_h_eval,
        _overflowing_inverse,
    ],
    ids=lambda p: p.__name__.removeprefix("_overflowing_"),
)
def test_an_overflow_on_a_scalar_path_stays_silent_and_typed(path):
    path()
