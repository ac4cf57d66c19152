"""numpy's error state: set once per loop that evaluates points, never leaked.

Each loop that evaluates phi (an integral, an extrema search, an endpoint rule,
an exact sum, a Monte Carlo run) holds one error state around all its points,
and nothing beneath it enters another.  An overflow anywhere on those paths
gives inf or a typed error, without a warning, whatever the caller's state.
"""

import dataclasses
import math

import numpy as np
import pytest

from jensen_sharp import (
    Discrete,
    Empirical,
    EvaluationError,
    FunctionSpec,
    NumericError,
    Normal,
    Shape,
    SupportInterval,
    Uniform,
    build_partition,
    cell_h_extrema,
    equal_probability_cuts,
    estimate_conditional_gap,
    estimate_gap,
    exp_scaled,
    generalized_mean_bounds,
    h_endpoint_limit,
    h_eval,
    h_extrema,
    power_mean_bounds,
    quadratic,
    sample_bounds,
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
    # 1/(1 + |x|) diverges like a logarithm on both sides: the split direct
    # pass is not trusted, so the core and both walks run too, several
    # QUADPACK passes over a thousand nodes
    passes, nodes = [], []
    quad = quadrature._quad

    def counted_quad(fn, lo, hi):
        passes.append((lo, hi))
        return quad(fn, lo, hi)

    def integrand(x):
        nodes.append(x)
        return 1.0 / (1.0 + abs(x))

    monkeypatch.setattr(quadrature, "_quad", counted_quad)
    value, _ = expectation(integrand, SupportInterval(-math.inf, math.inf), 0.0, 1.0)
    assert value == math.inf
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
    # the objective, the ends, the scan and the grid's one array call of phi, all under one
    assert len(errstates) == 1


@pytest.mark.parametrize(
    "law",
    [Normal(0.3, 2.0), Empirical(np.random.default_rng(5).lognormal(0.0, 0.5, 1000))],
    ids=["normal", "empirical"],
)
def test_the_cell_extrema_of_a_partition_enter_one_error_state(law, errstates):
    # exp has a convex phi', so each cell's search reads its two ends and nothing else
    plan = build_partition(law, equal_probability_cuts(law, 16))
    errstates.clear()
    assert len(cell_h_extrema(exp_scaled(0.7), plan)) == 16
    assert len(errstates) == 1


def test_a_sample_law_is_built_without_an_error_state(errstates):
    # its least and greatest sample bound every term of its moment sums
    Empirical(np.random.default_rng(5).lognormal(0.0, 0.5, 1000))
    assert len(errstates) == 0


def test_a_sample_partition_is_built_without_an_error_state(errstates):
    # the cells' moments and the coarse law's weighted ones are all bounded by their atoms
    law = Empirical(np.random.default_rng(5).lognormal(0.0, 0.5, 1000))
    cuts = equal_probability_cuts(law, 16)
    errstates.clear()
    assert len(build_partition(law, cuts).cells) == 16
    assert len(errstates) == 0


def test_a_monte_carlo_run_enters_three_error_states(errstates):
    # the block loop, the helper thread that draws, and phi of the mean: none per block
    estimate_gap(exp_scaled(0.5), Normal(0.0, 1.0), budget=1_000_000, method="mc")
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


def _overflowing_slope_at_the_mean():
    # every atom's phi is finite, but phi' = 2 exp(2x) overflows at the cell's mean 354.6
    cell = SupportInterval(354.5, 354.7, True, True)
    with pytest.raises(EvaluationError, match="phi' is not finite"):
        estimate_conditional_gap(exp_scaled(2.0), Discrete([354.5, 354.7], [0.5, 0.5]), cell)


_SCALAR_PATHS = [
    _overflowing_quadrature,
    _overflowing_endpoint_probe,
    _overflowing_extrema_scan,
    _overflowing_h_eval,
    _overflowing_inverse,
    _overflowing_slope_at_the_mean,
]


def _overflowing_monte_carlo():
    with pytest.raises(NumericError, match="non-finite phi values"):
        estimate_gap(exp_scaled(3.0), Normal(0.0, 40.0), budget=50_000, method="mc")


def _overflowing_exact_sum():
    with pytest.raises(NumericError, match="not finite at a mass point"):
        estimate_gap(exp_scaled(2.0), Empirical([1.0, 400.0]))


def _overflowing_sample_sum():
    with pytest.raises(NumericError, match="the atoms sum past the float range"):
        Empirical([1e308, 1e308])


def _overflowing_sample_squares():
    with pytest.raises(NumericError, match="variance inf, past the float range"):
        Empirical(np.tile([1e308, -1e308], 500))


def _overflowing_sample_power():
    # every sample is finite, but X**3 is 1e450
    with pytest.raises(NumericError, match="past the float range"):
        power_mean_bounds(Empirical([1e150, 1.1e150]), 3.0, 1.0)


_TINY = [1e-200, 2e-200, 3e-200]  # their squared deviations, 1e-400, underflow to 0


def _underflowing_sample_moments():
    assert Empirical(_TINY).variance() == 0.0


def _underflowing_discrete_moments():
    assert Discrete(_TINY, [0.25, 0.5, 0.25]).variance() == 0.0


def _underflowing_sample_bounds():
    assert sample_bounds(quadratic(1.0), _TINY).lower == 0.0


def _path_id(path) -> str:
    return path.__name__.removeprefix("_overflowing_").removeprefix("_underflowing_")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("path", _SCALAR_PATHS, ids=_path_id)
def test_an_overflow_on_a_scalar_path_stays_silent_and_typed(path):
    path()


@pytest.mark.parametrize(
    "path",
    [*_SCALAR_PATHS, _overflowing_monte_carlo, _overflowing_exact_sum, _overflowing_sample_sum,
     _overflowing_sample_squares, _overflowing_sample_power, _underflowing_sample_moments,
     _underflowing_discrete_moments, _underflowing_sample_bounds],
    ids=_path_id,
)
def test_a_callers_error_state_never_reaches_an_evaluation(path):
    # under "raise" an overflow or underflow outside a loop's own state would raise
    # FloatingPointError
    with np.errstate(all="raise"):
        path()
