"""Bounds engine: h evaluation, endpoint limits, extrema, assembled bounds.

Expected values are produced by independent oracles coded here (closed
forms, dense grid scans, direct summation), never by the code paths under
test.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jensen_sharp import (
    CustomPdf,
    Discrete,
    DomainError,
    Empirical,
    Exponential,
    GapBounds,
    HEvaluation,
    HMethod,
    LimitUndeterminedError,
    Normal,
    NumericError,
    ParameterError,
    Shape,
    SupportInterval,
    Uniform,
    curvature_bounds,
    exp_scaled,
    generalized_mean_bounds,
    h_endpoint_limit,
    h_eval,
    h_extrema,
    jensen_bounds,
    neg_log,
    power,
    power_mean_bounds,
    quadratic,
    sample_bounds,
    switch_radius,
)
from jensen_sharp import quadrature
from jensen_sharp.bounds import BoundMethod
from jensen_sharp.extreal import ext_mul, ext_sum
from jensen_sharp.functions import FunctionSpec
from _support import assert_brackets, ext_close, population_stats


# independent closed forms for h, straight from the definitions
def h_exp(t: float, x: float, nu: float) -> float:
    return (math.exp(t * x) - math.exp(t * nu)) / (x - nu) ** 2 - t * math.exp(t * nu) / (x - nu)


def h_neglog(x: float, nu: float) -> float:
    return (-math.log(x) + math.log(nu)) / (x - nu) ** 2 + 1.0 / (nu * (x - nu))


def h_inverse(x: float, nu: float) -> float:
    return (1.0 / x - 1.0 / nu) / (x - nu) ** 2 + nu**-2.0 / (x - nu)


# ---------------------------------------------------------------------------
# h evaluation
# ---------------------------------------------------------------------------


def test_h_eval_mgf_reference_point():
    f = exp_scaled(0.5)
    ev = h_eval(f, 1.0, 0.0)
    closed_form = (1.0 - math.exp(0.5) + 0.5 * math.exp(0.5)) / 1.0  # (1 - e^{t mu} + t mu e^{t mu}) / mu^2
    assert ev.value == pytest.approx(closed_form, rel=1e-13)
    assert ev.value == pytest.approx(0.1756, abs=1e-4)
    assert ev.method is HMethod.DIRECT


@given(
    a=st.floats(-5.0, 5.0),
    b=st.floats(-5.0, 5.0),
    c=st.floats(-5.0, 5.0),
    nu=st.floats(-20.0, 20.0),
    x=st.floats(-20.0, 20.0),
)
@settings(max_examples=300, deadline=None)
def test_h_of_quadratic_is_leading_coefficient(a, b, c, nu, x):
    f = quadratic(a, b, c)
    ev = h_eval(f, nu, x)
    # rounding in phi is amplified by 1/dx^2; the error scale of evaluating
    # phi itself is the magnitude of its Horner intermediates, not |phi|
    eps = float(np.finfo(float).eps)
    dx = max(abs(x - nu), switch_radius(nu))
    opmax = max(abs(a) * t * t + abs(b) * abs(t) + abs(c) for t in (x, nu))
    noise = 8.0 * eps * max(1e-30, opmax) / (dx * dx) + 4.0 * eps * abs(float(f.deriv1(nu))) / dx
    assert abs(ev.value - a) <= noise + 1e-12 * max(1.0, abs(a))


def test_h_eval_taylor_value_at_center():
    f = exp_scaled(0.5)
    ev = h_eval(f, 1.0, 1.0)
    assert ev.method is HMethod.TAYLOR_NEAR_CENTER
    assert ev.value == pytest.approx(0.125 * math.exp(0.5), rel=1e-14)
    near = h_eval(f, 1.0, 1.0 + 0.5 * switch_radius(1.0))
    assert near.method is HMethod.TAYLOR_NEAR_CENTER


@pytest.mark.parametrize("t", [-2.0, -1.3, -0.7, -0.1, 0.1, 0.55, 1.2, 2.0])
def test_h_of_exp_near_its_centre_matches_mpmath(t):
    """Inside and just outside the switch radius, h lands within 1e-7 of scale."""
    mpmath = pytest.importorskip("mpmath")
    f = exp_scaled(t)
    with mpmath.workdps(50):
        for nu in (-3.0, -1.7, -0.4, 0.0, 1e-5, 0.9, 2.2, 3.0):
            for step in (1e-9, 1e-7, 1e-5, 1e-4, -1e-9, -1e-7, -1e-5, -1e-4):
                x = nu + step * max(1.0, abs(nu))
                d = mpmath.mpf(x) - mpmath.mpf(nu)
                h = float(mpmath.exp(t * mpmath.mpf(nu)) * (mpmath.expm1(t * d) - t * d) / (d * d))
                assert abs(h_eval(f, nu, x).value - h) <= 1e-7 * max(1.0, abs(h)), (nu, x)


def test_h_eval_domain_errors():
    with pytest.raises(DomainError):
        h_eval(neg_log(), 1.0, -2.0)
    with pytest.raises(DomainError):
        h_eval(neg_log(), -1.0, 2.0)


@pytest.mark.parametrize(
    "f,nus",
    [
        (exp_scaled(0.5), (-3.0, 1.0, 4.0)),
        (exp_scaled(2.0), (-2.0, 1.0, 3.0)),
        (exp_scaled(-1.0), (-2.0, 0.5, 3.0)),
        (power(3.0), (0.2, 1.0, 7.0)),
        (power(-2.0), (0.2, 1.0, 7.0)),
        (power(0.5), (0.2, 1.0, 7.0)),
        (neg_log(), (0.2, 1.0, 40.0)),
        (quadratic(1.5, -2.0, 3.0), (-5.0, 0.0, 2.0)),
    ],
    ids=lambda v: getattr(v, "label", ""),
)
def test_h_direct_and_taylor_agree_at_switch_radius(f, nus):
    # The seam check is scaled by the magnitude of the operands the direct
    # formula subtracts (phi'(nu)/r); that is the level of cancellation the
    # direct evaluation can deliver at the switch radius.
    for nu in nus:
        r = switch_radius(nu)
        x = nu + r * 1.0000001
        direct = h_eval(f, nu, x)
        assert direct.method is HMethod.DIRECT
        taylor = 0.5 * float(f.deriv2(nu))
        scale = max(1.0, abs(float(f.deriv1(nu))) / r)
        assert abs(direct.value - taylor) <= 1e-6 * scale


# ---------------------------------------------------------------------------
# endpoint limits
# ---------------------------------------------------------------------------


def test_h_endpoint_limits_for_mgf():
    f = exp_scaled(0.5)
    assert h_endpoint_limit(f, 1.0, -math.inf) == 0.0
    assert h_endpoint_limit(f, 1.0, math.inf) == math.inf
    assert h_endpoint_limit(f, 1.0, 0.0) == pytest.approx(0.1756, abs=1e-4)


def test_h_limit_neglog_at_infinity_decays():
    # independent oracle: direct closed-form h decays through 1e2 .. 1e8
    # (the 1/(nu (x - nu)) term dominates, so the decay is O(1/x))
    vals = [h_neglog(10.0**k, 1.0) for k in range(2, 9)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 2e-8
    assert h_endpoint_limit(neg_log(), 1.0, math.inf) == 0.0


def test_h_limit_probing_without_hints():
    # strip the hints to force the probe machinery
    f = dataclasses.replace(exp_scaled(0.5), h_limit_hint=None)
    assert h_endpoint_limit(f, 1.0, -math.inf) == pytest.approx(0.0, abs=1e-6)
    assert h_endpoint_limit(f, 1.0, math.inf) == math.inf
    g = dataclasses.replace(neg_log(), h_limit_hint=None)
    assert h_endpoint_limit(g, 1.0, math.inf) == pytest.approx(0.0, abs=1e-6)
    assert h_endpoint_limit(g, 1.0, 0.0) == math.inf  # slow log divergence via trend


def test_h_limit_oscillation_raises():
    # phi = x**2 cos(x): h(x; nu) ~ cos(x) for large x, which never settles
    wavy = FunctionSpec(
        func=lambda x: x * x * np.cos(x),
        deriv1=lambda x: 2.0 * x * np.cos(x) - x * x * np.sin(x),
        deriv2=lambda x: (2.0 - x * x) * np.cos(x) - 4.0 * x * np.sin(x),
        natural_domain=SupportInterval(-math.inf, math.inf),
        label="wavy",
    )
    with pytest.raises(LimitUndeterminedError):
        h_endpoint_limit(wavy, 0.5, math.inf)


def _quartic_failing_below(cutoff: float) -> FunctionSpec:
    """x**4 with no hint, whose phi raises (so evaluates to NaN) below the cutoff."""

    def func(x):
        if x < cutoff:
            raise ValueError("below the cutoff")
        return x**4

    return FunctionSpec(
        func=func,
        deriv1=lambda x: 4.0 * x**3,
        deriv2=lambda x: 12.0 * x * x,
        natural_domain=SupportInterval(-math.inf, math.inf),
        label="quartic",
    )


def test_h_limit_follows_the_trend_when_evaluation_breaks_down():
    # h(x; 0) = x**2 over the probes -1, -2, ..., -512; -1024 fails
    assert h_endpoint_limit(_quartic_failing_below(-1000.0), 0.0, -math.inf) == math.inf


@pytest.mark.parametrize("cutoff", [-20.0, -200.0])
def test_h_limit_follows_a_short_trend_when_evaluation_breaks_down(cutoff):
    # 5 (cutoff -20) or 8 (cutoff -200) rising probes before the first failure
    assert h_endpoint_limit(_quartic_failing_below(cutoff), 0.0, -math.inf) == math.inf


@pytest.mark.parametrize("cutoff", [-20.0, -200.0])
@pytest.mark.parametrize("s", [1.0, -1.0])
def test_h_limit_of_a_short_settling_run_is_undetermined(cutoff, s):
    # phi = x**2 + s*(1/(1 - x) - 1 - x), so h(x; 0) = 1 + s/(1 - x): over the probes
    # -1, -2, -4, ... the values move toward 1 by ever smaller steps, then phi fails
    def func(x):
        if x < cutoff:
            raise ValueError("below the cutoff")
        return x * x + s * (1.0 / (1.0 - x) - 1.0 - x)

    settling = FunctionSpec(
        func=func,
        deriv1=lambda x: 2.0 * x + s * (1.0 / (1.0 - x) ** 2 - 1.0),
        deriv2=lambda x: 2.0 + 2.0 * s / (1.0 - x) ** 3,
        natural_domain=SupportInterval(-math.inf, 1.0),
        label="settling",
    )
    with pytest.raises(LimitUndeterminedError):
        h_endpoint_limit(settling, 0.0, -math.inf)


def test_h_limit_with_three_probes_to_follow_is_undetermined():
    # the probes -1, -2, -4 rise, and -8 fails: too short a run to call a trend
    with pytest.raises(LimitUndeterminedError):
        h_endpoint_limit(_quartic_failing_below(-5.0), 0.0, -math.inf)


def test_h_limit_with_no_probe_to_follow_is_undetermined():
    # the first probe, -1, already fails
    with pytest.raises(LimitUndeterminedError):
        h_endpoint_limit(_quartic_failing_below(-0.5), 0.0, -math.inf)


def test_extrema_endpoints_are_the_endpoint_limits_of_quadratics():
    """Every end of a quadratic's h extrema is read as h_endpoint_limit reads it."""
    rng = np.random.default_rng(20170727)
    for _ in range(300):
        a, b, c = rng.normal(size=3)
        lo = rng.uniform(-5.0, 5.0)
        hi = lo + rng.uniform(0.1, 10.0)
        nu = rng.uniform(lo, hi)
        f = quadratic(a, b, c)
        for ev in h_extrema(f, SupportInterval(lo, hi, True, True), nu):
            assert ev.value == h_endpoint_limit(f, nu, ev.attained_at)


@pytest.mark.parametrize(
    "d",
    [Uniform(0.3, 2.7), Empirical(np.random.default_rng(42).uniform(10.0, 100.0, 200))],
    ids=["uniform", "empirical"],
)
def test_quadratic_bounds_are_a_times_the_variance(d):
    a = 0.871
    gb = jensen_bounds(quadratic(a, -0.145, -0.328), d)
    assert gb.lower == gb.upper == ext_mul(a, d.variance())


# ---------------------------------------------------------------------------
# extrema
# ---------------------------------------------------------------------------


def test_h_extrema_mgf_over_positive_half_line():
    f = exp_scaled(0.5)
    inf_ev, sup_ev = h_extrema(f, SupportInterval(0.0, math.inf), 1.0)
    assert inf_ev.value == pytest.approx(1.0 - 0.5 * math.exp(0.5), rel=1e-12)
    assert inf_ev.attained_at == 0.0
    assert sup_ev.value == math.inf
    assert sup_ev.method is HMethod.ENDPOINT_LIMIT


def test_h_extrema_quadratic_everywhere_constant():
    f = quadratic(1.0, 0.0, 0.0)
    for interval in (SupportInterval(-math.inf, math.inf), SupportInterval(-2.0, 5.0, True, True)):
        inf_ev, sup_ev = h_extrema(f, interval, 0.5)
        assert inf_ev.value == 1.0 and sup_ev.value == 1.0


def test_h_extrema_inverse_power_matches_dense_grid_oracle():
    f = power(-1.0)
    nu = 54.83
    interval = SupportInterval(10.0, 100.0, True, True)
    # independent oracle: dense scan of the closed-form h
    xs = np.linspace(10.0, 100.0, 20001)
    hs = np.array([h_inverse(x, nu) for x in xs])
    assert int(hs.argmin()) == len(xs) - 1  # monotone decreasing: min at right end
    assert int(hs.argmax()) == 0
    inf_ev, sup_ev = h_extrema(f, interval, nu)
    assert inf_ev.value == pytest.approx(h_inverse(100.0, nu), rel=1e-12)
    assert inf_ev.attained_at == 100.0 and inf_ev.method is HMethod.DIRECT
    assert sup_ev.value == pytest.approx(h_inverse(10.0, nu), rel=1e-12)
    assert sup_ev.attained_at == 10.0


def test_h_extrema_validates_inputs():
    with pytest.raises(DomainError):
        h_extrema(neg_log(), SupportInterval(-1.0, 5.0), 1.0)
    with pytest.raises(DomainError):
        h_extrema(exp_scaled(1.0), SupportInterval(0.0, 5.0), 7.0)


@pytest.mark.parametrize(
    "f,interval,nu",
    [
        (exp_scaled(0.5), SupportInterval(0.0, math.inf), 1.0),
        (exp_scaled(-1.0), SupportInterval(-math.inf, math.inf), 0.3),
        (power(3.0), SupportInterval(0.5, 9.0, True, True), 2.0),
        (power(-1.0), SupportInterval(10.0, 100.0, True, True), 54.83),
        (neg_log(), SupportInterval(0.0, math.inf), 2.0),
        (quadratic(2.0, 1.0, 0.0), SupportInterval(-4.0, 4.0, True, True), 0.0),
    ],
    ids=lambda v: getattr(v, "label", None) or str(v),
)
def test_unknown_shape_scan_agrees_with_monotone_fast_path(f, interval, nu):
    fast_inf, fast_sup = h_extrema(f, interval, nu)
    scanned = dataclasses.replace(f, phi_prime_shape=Shape.UNKNOWN)
    scan_inf, scan_sup = h_extrema(scanned, interval, nu)
    scale = max(1.0, *(abs(v) for v in (fast_inf.value, fast_sup.value) if math.isfinite(v)))
    assert ext_close(fast_inf.value, scan_inf.value, 1e-8 * scale)
    assert ext_close(fast_sup.value, scan_sup.value, 1e-8 * scale)


# ---------------------------------------------------------------------------
# jensen_bounds
# ---------------------------------------------------------------------------


def test_jensen_bounds_mgf_exponential():
    gb = jensen_bounds(exp_scaled(0.5), Exponential(1.0))
    assert gb.lower == pytest.approx(1.0 - 0.5 * math.exp(0.5), rel=1e-12)
    assert gb.upper == math.inf
    assert gb.method is BoundMethod.DISTRIBUTION
    true_gap = 2.0 - math.sqrt(math.e)
    assert gb.lower <= true_gap <= gb.upper


def test_jensen_bounds_quadratic_is_sharp():
    gb = jensen_bounds(quadratic(1.0, 0.0, 0.0), Normal(0.0, 1.0))
    assert gb.lower == pytest.approx(1.0, rel=1e-12)
    assert gb.upper == pytest.approx(1.0, rel=1e-12)


def test_jensen_bounds_neglog_uniform_brackets_quadrature_gap():
    gb = jensen_bounds(neg_log(), Uniform(10.0, 100.0))
    # independent oracle: antiderivative of log is x log x - x
    e_log = ((100.0 * math.log(100.0) - 100.0) - (10.0 * math.log(10.0) - 10.0)) / 90.0
    gap = math.log(55.0) - e_log  # E[-log X] - (-log E[X])
    assert gb.lower <= gap <= gb.upper
    assert gb.lower > 0.0 and math.isfinite(gb.upper)


def test_jensen_bounds_rejects_domain_mismatch():
    with pytest.raises(DomainError):
        jensen_bounds(neg_log(), Normal(0.0, 1.0))
    with pytest.raises(DomainError):
        jensen_bounds(power(0.5), Empirical([0.0, 1.0, 2.0]))  # closed support hits 0


def test_jensen_bounds_degenerate_law_gives_zero_bounds():
    gb = jensen_bounds(exp_scaled(1.0), Empirical([3.0, 3.0, 3.0]))
    assert gb.lower == 0.0 and gb.upper == 0.0 and gb.variance_used == 0.0


# ---------------------------------------------------------------------------
# sample_bounds
# ---------------------------------------------------------------------------


def test_sample_bounds_quadratic_sharpness_small_sample():
    xs = [1.0, 2.0, 3.0]
    gb = sample_bounds(quadratic(1.0, 0.0, 0.0), xs)
    gap = (1.0 + 4.0 + 9.0) / 3.0 - 4.0  # mean of squares minus square of mean
    assert gb.lower == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert gb.upper == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert gap == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert gb.method is BoundMethod.SAMPLE


def test_sample_bounds_constant_sample():
    gb = sample_bounds(neg_log(), [4.0, 4.0, 4.0])
    assert gb.lower == 0.0 and gb.upper == 0.0 and gb.variance_used == 0.0


def test_sample_bounds_errors():
    with pytest.raises(ParameterError, match="need at least 2 samples"):
        sample_bounds(neg_log(), [1.0])
    with pytest.raises(DomainError):
        sample_bounds(neg_log(), [-1.0, 2.0])
    with pytest.raises(ParameterError):
        sample_bounds(neg_log(), [1.0, math.inf])


def test_sample_bounds_neglog_pinned_sample(pinned_sample):
    xs = pinned_sample
    xbar, s2 = population_stats(xs)
    gm = math.exp(math.fsum(math.log(x) for x in xs) / xs.size)
    gb = sample_bounds(neg_log(), xs)
    # closed-form endpoints straight from the definitions (concave phi':
    # infimum at the sample max, supremum at the sample min)
    assert gb.lower == pytest.approx(h_neglog(xs.max(), xbar) * s2, rel=1e-12)
    assert gb.upper == pytest.approx(h_neglog(xs.min(), xbar) * s2, rel=1e-12)
    ratio = xbar / gm
    assert math.exp(gb.lower) <= ratio <= math.exp(gb.upper)
    # same shape as the published example: a tight two-sided multiplier
    assert 1.0 < math.exp(gb.lower) < ratio < math.exp(gb.upper) < 1.5


@given(xs=st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=30), a=st.floats(0.1, 3.0))
@settings(max_examples=150, deadline=None)
def test_sample_bounds_quadratic_sharpness_property(xs, a):
    f = quadratic(a, 1.0, -2.0)
    gb = sample_bounds(f, xs)
    xbar, s2 = population_stats(xs)
    lo, hi = min(xs), max(xs)
    # the direct h formula cancels catastrophically when the sample range is
    # tiny relative to the magnitude of phi; budget for that explicitly
    eps = float(np.finfo(float).eps)
    r = switch_radius(xbar)
    dx = max(r, min(abs(lo - xbar), abs(hi - xbar)))
    phimax = max(abs(float(f.func(t))) for t in (lo, hi, xbar))
    noise = 256.0 * eps * max(1.0, phimax) / (dx * dx)
    tol = 1e-10 * max(1.0, a * s2) + noise * s2
    assert abs(gb.lower - a * s2) <= tol
    assert abs(gb.upper - a * s2) <= tol
    assert gb.upper - gb.lower <= 2.0 * tol


# ---------------------------------------------------------------------------
# curvature_bounds
# ---------------------------------------------------------------------------


def test_curvature_bounds_mgf_exponential():
    cb = curvature_bounds(exp_scaled(0.5), Exponential(1.0))
    assert cb.lower == pytest.approx(0.125, abs=1e-9)
    assert cb.upper == math.inf
    assert cb.method is BoundMethod.CURVATURE


def test_curvature_bounds_quadratic_equals_h_bounds():
    f = quadratic(1.5, 0.0, 0.0)
    d = Uniform(-1.0, 3.0)
    cb = curvature_bounds(f, d)
    jb = jensen_bounds(f, d)
    assert cb.lower == pytest.approx(jb.lower, rel=1e-12)
    assert cb.upper == pytest.approx(jb.upper, rel=1e-12)


def test_curvature_bounds_never_tighter(pinned_sample):
    cases = [
        (exp_scaled(0.5), Exponential(1.0)),
        (exp_scaled(1.0), Normal(0.0, 1.0)),
        (neg_log(), Uniform(10.0, 100.0)),
        (neg_log(), Empirical(pinned_sample)),
        (power(3.0), Uniform(1.0, 4.0)),
    ]
    for f, d in cases:
        cb = curvature_bounds(f, d)
        jb = jensen_bounds(f, d)
        tol = 1e-10 * max(
            1.0, *(abs(v) for v in (jb.lower, jb.upper) if math.isfinite(v))
        )
        assert cb.lower <= jb.lower + tol
        assert cb.upper >= jb.upper - tol


def test_curvature_bounds_strictly_looser_on_pinned_sample(pinned_sample):
    d = Empirical(pinned_sample)
    sb = sample_bounds(neg_log(), pinned_sample)
    cb = curvature_bounds(neg_log(), d)
    assert cb.lower < sb.lower
    assert cb.upper > sb.upper
    # closed forms: phi''/2 = 1/(2 x^2), extremes at the sample range ends
    xbar, s2 = population_stats(pinned_sample)
    assert cb.lower == pytest.approx(s2 / (2.0 * pinned_sample.max() ** 2), rel=1e-9)
    assert cb.upper == pytest.approx(s2 / (2.0 * pinned_sample.min() ** 2), rel=1e-9)


# ---------------------------------------------------------------------------
# power-mean and generalized-mean brackets
# ---------------------------------------------------------------------------


def test_power_mean_collapses_when_r_equals_s(pinned_sample):
    pm = power_mean_bounds(Empirical(pinned_sample), r=-1.0, s=-1.0)
    direct = math.fsum(x**-1.0 for x in pinned_sample) / pinned_sample.size
    assert pm.moment_lower == pytest.approx(direct, rel=1e-12)
    assert pm.moment_upper == pytest.approx(direct, rel=1e-12)


def test_power_mean_r1_s2_is_exact():
    d = Uniform(1.0, 3.0)
    pm = power_mean_bounds(d, r=1.0, s=2.0)
    exact = 2.0**2 + 4.0 / 12.0  # (EX)^2 + var
    assert pm.moment_lower == pytest.approx(exact, abs=1e-10)
    assert pm.moment_upper == pytest.approx(exact, abs=1e-10)
    assert pm.mean_lower == pytest.approx(math.sqrt(exact), rel=1e-10)


def test_power_mean_harmonic_bracket_pinned_sample(pinned_sample):
    pm = power_mean_bounds(Empirical(pinned_sample), r=1.0, s=-1.0)
    harmonic = pinned_sample.size / math.fsum(1.0 / x for x in pinned_sample)
    am = math.fsum(pinned_sample) / pinned_sample.size
    assert pm.mean_lower <= harmonic <= pm.mean_upper
    assert pm.mean_upper < am
    # closed-form cross-check of the moment bracket ends
    xbar, s2 = population_stats(pinned_sample)
    a, b = pinned_sample.min(), pinned_sample.max()
    assert pm.moment_lower == pytest.approx(1.0 / xbar + h_inverse(b, xbar) * s2, rel=1e-11)
    assert pm.moment_upper == pytest.approx(1.0 / xbar + h_inverse(a, xbar) * s2, rel=1e-11)


def test_power_mean_validates_inputs():
    with pytest.raises(ParameterError):
        power_mean_bounds(Uniform(1.0, 2.0), r=0.0, s=1.0)
    with pytest.raises(ParameterError):
        power_mean_bounds(Uniform(1.0, 2.0), r=1.0, s=0.0)
    with pytest.raises(DomainError):
        power_mean_bounds(Normal(0.0, 1.0), r=1.0, s=2.0)


@pytest.mark.parametrize("d, r, s", [
    (Exponential(1e-100), 1.0, 4.0),  # E[X]**4 = 1e400
    (Uniform(1e-150, 2e-150), 1.0, -3.0),  # E[X]**-3 = 3e449
], ids=["exponential", "uniform"])
def test_power_mean_refuses_a_base_past_the_float_range(d, r, s):
    with pytest.raises(NumericError, match="past the float range"):
        power_mean_bounds(d, r=r, s=s)


@pytest.mark.parametrize("d, r", [
    (Empirical([1e150, 1.1e150]), 3.0),  # X**3 = 1e450
    (Discrete([1e150, 1.1e150], [0.5, 0.5]), 3.0),
    (Empirical([1e-200, 2.0]), -2.0),  # X**-2 = 1e400
], ids=["empirical", "discrete", "negative-r"])
def test_power_mean_refuses_a_power_of_the_atoms_past_the_float_range(d, r):
    # a numeric error, not the new law's refusal of non-finite atoms, and no overflow warning
    with pytest.raises(NumericError, match=r"X\*\*r = X\*\*.* is past the float range"):
        power_mean_bounds(d, r=r, s=1.0)


def test_power_mean_bounds_integrate_only_on_a_law_without_closed_form_moments(monkeypatch):
    # the moments of Y = X**r are closed-form on exponential and uniform laws: no QUADPACK pass
    custom = CustomPdf(Exponential(1.0).pdf, SupportInterval(0.0, math.inf))
    passes = []
    quad = quadrature._quad
    monkeypatch.setattr(quadrature, "_quad", lambda *args: passes.append(args) or quad(*args))
    for d, r in [(Exponential(1.505), 2.0), (Exponential(1.0), 0.5), (Exponential(0.3), -0.4),
                 (Uniform(1.461, 5.005), 3.0), (Uniform(1.0, 3.0), -1.0), (Uniform(0.0, 1.0), 0.5)]:
        power_mean_bounds(d, r, 1.5)
    assert passes == []
    power_mean_bounds(custom, 2.0, 1.5)
    assert len(passes) >= 2


def test_generalized_mean_neglog_matches_sample_path(pinned_sample):
    d = Empirical(pinned_sample)
    lo, hi = generalized_mean_bounds(neg_log(), lambda v: math.exp(-v), d)
    sb = sample_bounds(neg_log(), pinned_sample)
    xbar, _ = population_stats(pinned_sample)
    gm = math.exp(math.fsum(math.log(x) for x in pinned_sample) / pinned_sample.size)
    assert lo == pytest.approx(xbar * math.exp(-sb.upper), rel=1e-10)
    assert hi == pytest.approx(xbar * math.exp(-sb.lower), rel=1e-10)
    assert lo <= gm <= hi


def test_generalized_mean_linear_is_exact():
    d = Uniform(2.0, 6.0)
    lo, hi = generalized_mean_bounds(quadratic(0.0, 1.0, 0.0), lambda v: v, d)
    assert lo == pytest.approx(4.0, abs=1e-12)
    assert hi == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("s", [2.0, -1.0, 0.5])
def test_generalized_mean_power_matches_power_mean_path(pinned_sample, s):
    d = Empirical(pinned_sample)
    lo, hi = generalized_mean_bounds(power(s), lambda v: v ** (1.0 / s), d)
    pm = power_mean_bounds(d, r=1.0, s=s)
    assert lo == pytest.approx(pm.mean_lower, rel=1e-10)
    assert hi == pytest.approx(pm.mean_upper, rel=1e-10)


def test_generalized_mean_refuses_phi_flat_at_the_mean():
    with pytest.raises(ParameterError, match="not strictly monotone at the mean 0.0"):
        generalized_mean_bounds(quadratic(1.0), math.sqrt, Uniform(-1.0, 1.0))


def test_generalized_mean_infinite_end_maps_to_the_domain_edge():
    # -log x on Exp(1): h is unbounded near 0, so the upper gap is +inf; -log x falls, so
    # that end maps to the domain's lower edge 0, and the lower gap 0 maps to exp(-0) = 1
    lo, hi = generalized_mean_bounds(neg_log(), lambda v: math.exp(-v), Exponential(1.0))
    assert (lo, hi) == (0.0, 1.0)


def test_generalized_mean_out_of_range_end_maps_to_boundary():
    # phi = x**2 on (0, inf) around a tiny-variance law keeps both ends finite,
    # but a lower end pushed below the range must clamp to the domain edge
    d = Uniform(0.1, 0.2)
    f = power(2.0)
    lo, hi = generalized_mean_bounds(f, lambda v: math.sqrt(v), d)
    assert 0.0 <= lo <= hi
    # decreasing phi with an upper end escaping the range: 1/x over wide support
    g = power(-1.0)
    d2 = Uniform(0.5, 50.0)
    lo2, hi2 = generalized_mean_bounds(g, lambda v: 1.0 / v, d2)
    assert lo2 >= 0.0 and hi2 <= math.inf and lo2 <= hi2


# ---------------------------------------------------------------------------
# jensen consistency and oracle bracketing spot checks
# ---------------------------------------------------------------------------


def test_lower_bound_nonnegative_for_convex_phi(pinned_sample):
    convex_cases = [
        (exp_scaled(1.0), Normal(0.0, 1.0)),
        (exp_scaled(-0.5), Uniform(-2.0, 2.0)),
        (power(2.5), Uniform(0.5, 4.0)),
        (power(-1.0), Empirical(pinned_sample)),
        (neg_log(), Uniform(10.0, 100.0)),
    ]
    for f, d in convex_cases:
        gb = jensen_bounds(f, d)
        assert gb.lower >= -1e-12


def test_bounds_bracket_exact_sum_oracle(pinned_sample):
    from jensen_sharp import estimate_gap

    d = Empirical(pinned_sample)
    for f in (neg_log(), power(-1.0), power(2.0), exp_scaled(0.02)):
        gb = jensen_bounds(f, d)
        est = estimate_gap(f, d)
        assert_brackets(est, gb.lower, gb.upper, context=f.label)


# ---------------------------------------------------------------------------
# containers and extended reals
# ---------------------------------------------------------------------------


def test_gap_bounds_validation():
    ev = HEvaluation(1.0, 0.0, HMethod.DIRECT)
    with pytest.raises(NumericError):
        GapBounds(2.0, 1.0, ev, ev, 1.0, BoundMethod.DISTRIBUTION)
    with pytest.raises(NumericError):
        GapBounds(math.nan, 1.0, ev, ev, 1.0, BoundMethod.DISTRIBUTION)
    with pytest.raises(NumericError):
        GapBounds(0.0, 1.0, ev, ev, -1.0, BoundMethod.DISTRIBUTION)


def test_h_evaluation_validation():
    with pytest.raises(NumericError):
        HEvaluation(math.nan, 0.0, HMethod.DIRECT)
    with pytest.raises(NumericError):
        HEvaluation(math.inf, 0.0, HMethod.DIRECT)
    HEvaluation(math.inf, math.inf, HMethod.ENDPOINT_LIMIT)  # legal


def test_gap_bounds_json_encoding():
    gb = jensen_bounds(exp_scaled(0.5), Exponential(1.0))
    blob = gb.to_json_dict()
    assert blob["upper"] == "inf"
    assert blob["witness_upper"] == "inf"
    assert isinstance(blob["lower"], float)
    assert blob["method"] == "distribution"


def test_ext_mul_and_sum_conventions():
    assert ext_mul(0.0, math.inf) == 0.0
    assert ext_mul(math.inf, 0.0) == 0.0
    assert ext_mul(2.0, math.inf) == math.inf
    assert ext_mul(-3.0, math.inf) == -math.inf
    assert ext_sum([1.0, 2.0, math.inf]) == math.inf
    assert ext_sum([1.0, -math.inf]) == -math.inf
    with pytest.raises(NumericError):
        ext_sum([math.inf, -math.inf])

