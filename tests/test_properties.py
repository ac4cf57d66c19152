"""Randomized invariants of the engine, hypothesis-driven where natural."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jensen_sharp import (
    Empirical,
    Exponential,
    Normal,
    SupportInterval,
    Uniform,
    build_partition,
    equal_probability_cuts,
    estimate_gap,
    exp_scaled,
    h_eval,
    jensen_bounds,
    neg_log,
    partition_bounds,
    power,
    quadratic,
    sample_bounds,
    switch_radius,
)
from _support import assert_brackets, population_stats


# ---------------------------------------------------------------------------
# h behaves like a mean-value second derivative
# ---------------------------------------------------------------------------


@given(t=st.floats(-2.0, 2.0), nu=st.floats(-3.0, 3.0), x=st.floats(-6.0, 6.0))
@settings(max_examples=300, deadline=None)
def test_h_of_exp_lies_between_curvature_extremes(t, nu, x):
    """h(x; nu) = phi''(g)/2 for some g between x and nu."""
    assume(abs(t) > 1e-3)
    f = exp_scaled(t)
    v = h_eval(f, nu, x).value
    lo_x, hi_x = min(x, nu), max(x, nu)
    curv_lo = 0.5 * t * t * math.exp(t * lo_x if t > 0 else t * hi_x)
    curv_hi = 0.5 * t * t * math.exp(t * hi_x if t > 0 else t * lo_x)
    slack = 1e-7 * max(1.0, curv_hi)
    assert curv_lo - slack <= v <= curv_hi + slack


@given(nu=st.floats(0.1, 50.0), x=st.floats(0.1, 50.0))
@settings(max_examples=300, deadline=None)
def test_h_of_neglog_is_positive_and_decreasing_pair(nu, x):
    f = neg_log()
    v = h_eval(f, nu, x).value
    assert v > 0.0  # phi'' = 1/x^2 > 0 forces h > 0
    # monotone decreasing in x (concave phi'): compare two points
    other = x * 1.5
    w = h_eval(f, nu, other).value
    scale = max(1.0, v, w)
    assert w <= v + 1e-9 * scale


@given(
    t=st.sampled_from([-1.0, -0.5, 0.5, 1.0, 2.0]),
    nu=st.floats(-2.0, 2.0),
    mult=st.floats(1.0, 3.0),
)
@settings(max_examples=200, deadline=None)
def test_h_continuity_at_switch_radius(t, nu, mult):
    f = exp_scaled(t)
    r = switch_radius(nu)
    inside = h_eval(f, nu, nu + r * 0.999).value
    outside = h_eval(f, nu, nu + r * mult).value
    scale = max(1.0, abs(float(f.deriv1(nu))) / r)
    assert abs(inside - outside) <= 1e-6 * scale * mult


# ---------------------------------------------------------------------------
# assembled bounds
# ---------------------------------------------------------------------------


@given(xs=st.lists(st.floats(0.5, 60.0), min_size=3, max_size=40))
@settings(max_examples=120, deadline=None)
def test_sample_bounds_bracket_exact_gap_neglog(xs):
    xbar, s2 = population_stats(xs)
    assume(s2 > 1e-6)
    gb = sample_bounds(neg_log(), xs)
    gap = math.fsum(-math.log(x) for x in xs) / len(xs) + math.log(xbar)
    slack = 1e-10 * max(1.0, abs(gap))
    assert gb.lower - slack <= gap <= gb.upper + slack


@given(
    mu=st.floats(-2.0, 2.0),
    sigma=st.floats(0.2, 2.0),
    t=st.sampled_from([-1.0, -0.25, 0.5, 1.5]),
)
@settings(max_examples=60, deadline=None)
def test_jensen_bounds_bracket_lognormal_gap(mu, sigma, t):
    """Closed form: E[e^{tX}] = exp(t mu + t^2 sigma^2 / 2) for X normal."""
    f = exp_scaled(t)
    d = Normal(mu, sigma)
    gb = jensen_bounds(f, d)
    gap = math.exp(t * mu + 0.5 * t * t * sigma * sigma) - math.exp(t * mu)
    assert gb.lower <= gap + 1e-9 * max(1.0, gap)
    assert gb.upper >= gap - 1e-9 * max(1.0, gap)
    assert gb.lower >= -1e-12  # phi'' > 0 everywhere


@given(
    lo=st.floats(0.5, 20.0),
    width=st.floats(0.5, 50.0),
    p=st.sampled_from([-2.0, -1.0, 0.5, 1.5, 2.0, 3.0]),
)
@settings(max_examples=60, deadline=None)
def test_jensen_bounds_bracket_power_moments_uniform(lo, width, p):
    """Closed form: E[X^p] over uniform(lo, hi) via the antiderivative."""
    hi = lo + width
    f = power(p)
    d = Uniform(lo, hi)
    gb = jensen_bounds(f, d)
    if p == -1.0:
        e_p = math.log(hi / lo) / width
    else:
        e_p = (hi ** (p + 1.0) - lo ** (p + 1.0)) / ((p + 1.0) * width)
    gap = e_p - d.mean() ** p
    scale = max(1.0, abs(gap), abs(e_p))
    assert gb.lower <= gap + 1e-8 * scale
    assert gb.upper >= gap - 1e-8 * scale


@given(cuts=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=6, unique=True))
@settings(max_examples=100, deadline=None)
def test_partition_bounds_bracket_uniform_exp_gap(cuts):
    cuts = sorted(cuts)
    assume(all(b - a > 1e-4 for a, b in zip(cuts, cuts[1:])))
    d = Uniform(0.0, 1.0)
    f = exp_scaled(1.0)
    plan = build_partition(d, cuts)
    pb = partition_bounds(f, plan)
    gap = (math.e - 1.0) - math.exp(0.5)  # E[e^X] - e^{1/2} on uniform(0,1)
    assert pb.lower - 1e-10 <= gap <= pb.upper + 1e-10
    assert pb.lower >= -1e-12


@given(
    n=st.integers(5, 60),
    seed=st.integers(0, 2**16),
    m=st.sampled_from([1, 2, 3, 5]),
)
@settings(max_examples=60, deadline=None)
def test_partition_of_empirical_brackets_exact_sum(n, seed, m):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(1.0, 30.0, n)
    assume(np.unique(xs).size > m)  # nearest-rank ties would collapse cuts
    d = Empirical(xs)
    try:
        cuts = equal_probability_cuts(d, m)
    except Exception:
        assume(False)
    f = neg_log()
    pb = partition_bounds(f, build_partition(d, cuts))
    est = estimate_gap(f, d)
    assert_brackets(est, pb.lower, pb.upper, context=f"empirical n={n} m={m}")


# ---------------------------------------------------------------------------
# misc invariants
# ---------------------------------------------------------------------------


@given(a=st.floats(0.01, 5.0), rate=st.floats(0.2, 4.0))
@settings(max_examples=60, deadline=None)
def test_quadratic_bounds_zero_width_everywhere(a, rate):
    f = quadratic(a, -1.0, 2.0)
    d = Exponential(rate)
    gb = jensen_bounds(f, d)
    expected = a * d.variance()
    assert gb.lower == pytest.approx(expected, rel=1e-10)
    assert gb.upper == pytest.approx(expected, rel=1e-10)


@given(b=st.floats(-5.0, 5.0), c=st.floats(-5.0, 5.0))
@settings(max_examples=40, deadline=None)
def test_linear_phi_gives_zero_bounds(b, c):
    assume(abs(b) > 1e-6)
    f = quadratic(0.0, b, c)
    gb = jensen_bounds(f, Normal(0.0, 1.0))
    assert abs(gb.lower) <= 1e-12 and abs(gb.upper) <= 1e-12


@given(
    lo=st.floats(-100.0, 100.0),
    width=st.floats(1e-3, 100.0),
    closed_lo=st.booleans(),
    closed_hi=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_interval_containment_is_reflexive_and_antisymmetric(lo, width, closed_lo, closed_hi):
    iv = SupportInterval(lo, lo + width, closed_lo, closed_hi)
    assert iv.contains_interval(iv)
    wider = SupportInterval(lo - 1.0, lo + width + 1.0, False, False)
    assert wider.contains_interval(iv)
    assert not iv.contains_interval(wider)


def test_scan_path_handles_nonmonotone_h_rising_and_falling():
    """A genuinely wiggly phi'' must be handled by the global scan."""
    # phi(x) = x^4 - 3 x^2: phi'' = 12 x^2 - 6 changes sign on (-2, 2)
    f = dataclasses.replace(
        quadratic(1.0),
        func=lambda x: x**4 - 3.0 * x * x,
        deriv1=lambda x: 4.0 * x**3 - 6.0 * x,
        deriv2=lambda x: 12.0 * x * x - 6.0,
        phi_prime_shape=__import__("jensen_sharp").Shape.UNKNOWN,
        label="quartic-dip",
    )
    d = Uniform(-2.0, 2.0)
    gb = jensen_bounds(f, d)
    # independent oracle: exact moments of uniform(-2, 2)
    e4 = (2.0**5 - (-2.0) ** 5) / (5.0 * 4.0)  # E[X^4] = 16/5
    e2 = 4.0 / 3.0
    gap = (e4 - 3.0 * e2) - 0.0  # phi(EX) = phi(0) = 0
    assert gb.lower - 1e-9 <= gap <= gb.upper + 1e-9
    # the dip of h at the center must be found: inf h < h at both edges
    edge = min(h_eval(f, 0.0, -2.0).value, h_eval(f, 0.0, 2.0).value)
    assert gb.lower / d.variance() < edge
