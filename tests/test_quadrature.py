"""The quadrature fallback's tail rule: one window walk per endpoint, one verdict.

A walk toward a finite endpoint is judged only where it ends, so an
integrable singularity whose window integrals grow for several halvings
before they decay is summed, not called divergent.  A run of non-shrinking
increments toward an infinite endpoint, or a window whose integral
overflows, stops the walk early as divergent.
"""

import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from jensen_sharp import (
    CustomPdf,
    Exponential,
    Normal,
    NumericError,
    SupportInterval,
    estimate_conditional_gap,
    estimate_gap,
    exp_scaled,
    neg_log,
    power,
    transform_power,
)
from jensen_sharp import quadrature
from jensen_sharp.functions import guarded
from jensen_sharp.quadrature import QUAD_ABS, QUAD_LIMIT, QUAD_REL, _quad, _walk, expectation

EULER_GAMMA = 0.5772156649015329
RATES = (0.3, 0.5, 0.8, 1.0, 1.3, 2.0, 3.0, 5.0, 10.0)


@pytest.mark.parametrize("rate", RATES)
@pytest.mark.parametrize("r", [2.0, 2.5, 3.0, 4.0])
def test_neglog_gap_of_an_exponential_power_is_finite_and_right(r, rate):
    # Y = X**r with X ~ Exponential(rate): E[-log Y] + log E[Y] is
    # r*gamma + log Gamma(r + 1) whatever the rate.  The law of Y integrates
    # -log(x**r) on the law of X, so no y**(1/r - 1) singularity arises.
    truth = r * EULER_GAMMA + math.lgamma(r + 1.0)
    est = estimate_gap(neg_log(), transform_power(Exponential(rate), r), method="quad")
    assert math.isfinite(est.value)
    assert abs(est.value - truth) <= 3.0 * est.error_bound, (est.value, est.error_bound, truth)


@pytest.mark.parametrize("rate", [3.0, 1.0, 0.3])
def test_square_root_gap_of_an_exponential_fourth_power_is_right(rate):
    # Y = X**4: E[Y**0.5] - E[Y]**0.5 = E[X**2] - sqrt(E[X**4]) = (2 - sqrt 24) / rate**2
    est = estimate_gap(power(0.5), transform_power(Exponential(rate), 4.0), method="quad")
    truth = (2.0 - math.sqrt(24.0)) / rate**2
    assert abs(est.value - truth) <= 3.0 * est.error_bound, (est.value, est.error_bound, truth)


DIVERGENT = [
    *[(f"exp:t={k * rate:g} rate={rate:g}", exp_scaled(k * rate), rate)
      for rate in (0.5, 1.0, 2.0) for k in (1.0, 1.5, 2.0, 4.0)],
    *[(f"power:p={p:g} rate={rate:g}", power(p), rate)
      for rate in (0.5, 1.0, 2.0) for p in (-1.0, -1.5, -2.0, -3.0, -5.0)],
]


@pytest.mark.parametrize("name, f, rate", DIVERGENT, ids=[c[0] for c in DIVERGENT])
def test_divergent_gaps_on_exponentials_stay_infinite(name, f, rate):
    # E[exp(tX)] diverges toward infinity for t >= rate, and E[X**p] at 0 for p <= -1
    est = estimate_gap(f, Exponential(rate), method="quad")
    assert est.value == math.inf
    assert est.error_bound == 0.0


def test_mgf_of_a_squared_exponential_diverges():
    # E[exp(0.1 Y)] with Y = X**2 is E[exp(0.1 X**2)] = inf: exp(0.1 x**2 - x)
    # turns upward past x = 5 and its windows grow with one sign
    est = estimate_gap(exp_scaled(0.1), transform_power(Exponential(1.0), 2.0), method="quad")
    assert est.value == math.inf


MGF_POWER_CASES = [(0.5, 0.3, 2.0), (0.5, 1.0, 2.0), (1.0, 3.0, 4.0), (2.0, 3.0, 2.0)]
MGF_POWER_CASES += [
    (t, rate, r) for t in (0.5, 1.0, 2.0) for rate in (0.3, 1.0) for r in (2.0, 4.0)
    if (t, rate, r) not in MGF_POWER_CASES
]


@pytest.mark.parametrize("t, rate, r", MGF_POWER_CASES)
def test_mgf_of_an_exponential_power_diverges(t, rate, r):
    # E[exp(t X**r)] = inf for r > 1: exp(t x**r) overflows two windows past the
    # core, or already inside it, and a window whose integral overflows, the core
    # included, diverges as a HUGE total does
    est = estimate_gap(exp_scaled(t), transform_power(Exponential(rate), r), method="quad")
    assert est.value == math.inf
    assert est.error_bound == 0.0


def _normal_tail_mgf_gap(mpmath, a: float) -> float:
    """E[e**X | X > a] - e**E[X | X > a] for a standard normal X."""
    with mpmath.workdps(40):
        tail = mpmath.ncdf(-a)
        return float(mpmath.e**0.5 * mpmath.ncdf(1 - a) / tail - mpmath.e ** (mpmath.npdf(a) / tail))


def test_a_converged_finite_end_walk_adds_its_series_remainder():
    # halving windows toward a finite end shrink by about 1/2 each, so the walk's
    # last two small increments leave about one more behind; without it each
    # value missed its closed form by one whole error bound
    mpmath = pytest.importorskip("mpmath")
    cases = [
        (estimate_conditional_gap(exp_scaled(1.0), Normal(0.0, 1.0), SupportInterval(a, math.inf)),
         _normal_tail_mgf_gap(mpmath, a))
        for a in (3.0, 5.0, 7.0)
    ]
    cases.append((estimate_gap(exp_scaled(0.5), Exponential(1.0), method="quad"),
                  2.0 - math.sqrt(math.e)))
    for est, truth in cases:
        assert abs(est.value - truth) <= 0.1 * est.error_bound, (est.value, est.error_bound, truth)


def test_half_cauchy_law_is_refused_for_its_divergent_mean():
    # the mean integral 2x/(pi(1 + x**2)) diverges like a logarithm; a direct
    # QUADPACK pass with a subdivision limit of 1000 calls it 225.57 and only
    # the variance would then be refused
    with pytest.raises(NumericError, match="mean"):
        CustomPdf(
            pdf=lambda x: 2.0 / (math.pi * (1.0 + x * x)),
            support_interval=SupportInterval(0.0, math.inf),
        )


@pytest.mark.parametrize(
    "integrand",
    [lambda x: 2.0 * x / (math.pi * (1.0 + x * x)), lambda x: x / (1.0 + x * x)],
    ids=["half-cauchy-mean", "x-over-1-plus-x2"],
)
def test_log_divergent_tail_integrates_to_infinity(integrand):
    # a 1/x tail diverges like a logarithm: the one subdivision limit leaves a
    # direct QUADPACK pass no room to report it as a clean finite value
    value, err = expectation(integrand, SupportInterval(0.0, math.inf), 1.0, 1.0)
    assert value == math.inf
    assert err == 0.0


@pytest.mark.parametrize(
    "integrand, support",
    [(lambda x: 1.0 / x, SupportInterval(100.0, math.inf)),
     (lambda x: -1.0 / x, SupportInterval(-math.inf, -100.0))],
    ids=["right-of-anchor", "left-of-anchor"],
)
def test_core_is_laid_from_the_finite_end_when_the_anchor_lies_outside(integrand, support):
    # anchor 0 +/- 8 scales misses the support, so the core window starts at its finite end
    value, err = expectation(integrand, support, 0.0, 1.0)
    assert value == math.inf
    assert err == 0.0


# ---------------------------------------------------------------------------
# every exit of a walk, on synthetic windows
# ---------------------------------------------------------------------------

# window k of a walk is (k, k + 1), and its QUADPACK pass is scripted as
# (value, error, trusted); the walks run toward a finite end, so no growth
# run stops them early
_WALK_EXITS = {
    # a rejected window whose value is within tolerance ends the walk
    "rejected-negligible-window": ([(1e-12, 1.0, False)], (1e-12, 0.5 * QUAD_ABS, 0)),
    # a rejected window after contracting increments: the verdict adds the
    # remainder 0.5 * 0.5 / (1 - 0.5) and charges max(2 * 0.5, 0.5)
    "rejected-after-contraction": (
        [(1.0, 0.0, True), (0.5, 0.0, True), (3.0, 1.0, False)], (2.0, 1.0, 0)
    ),
    "rejected-with-no-increments": ([(3.0, 1.0, False)], "after 0 windows"),
    "total-past-huge": ([(1e300, 0.0, True), (1e300, 0.0, True), (1.0, 0.0, True)], (2e300, 0.0, 1)),
    # the windows run out: a same-signed run that never shrinks diverges,
    # and alternating signs settle nothing
    "last-window-same-sign": ([(-1.0, 0.0, True)] * 3, (-3.0, 0.0, -1)),
    "last-window-alternating": ([(1.0, 0.0, True), (-1.0, 0.0, True), (1.0, 0.0, True)], "after 3 windows"),
}


@pytest.mark.parametrize("outcomes, expected", _WALK_EXITS.values(), ids=_WALK_EXITS.keys())
def test_each_exit_of_a_walk(outcomes, expected, monkeypatch):
    monkeypatch.setattr(quadrature, "_quad", lambda fn, a, b: outcomes[int(a)])
    windows = [(float(k), k + 1.0) for k in range(len(outcomes))]
    if isinstance(expected, str):
        with pytest.raises(NumericError, match=expected):
            _walk(None, windows, False)
    else:
        assert _walk(None, windows, False) == expected


def test_an_integral_diverging_both_ways_is_refused():
    # the core [-8, 8] overflows upward, the walks toward either infinity downward
    def integrand(x):
        return 1e300 if abs(x) < 8.0 else -math.exp(min(x * x, 700.0))

    with pytest.raises(NumericError, match="toward \\+inf on one side and -inf on the other"):
        expectation(integrand, SupportInterval(-math.inf, math.inf), 0.0, 1.0)


def test_an_integral_whose_core_quadpack_rejects_is_refused():
    # QUADPACK cannot resolve cos(1e8 x) on the whole line nor on the core [-8, 8]
    def integrand(x):
        return math.cos(1e8 * x) * math.exp(-x * x)

    with pytest.raises(NumericError, match="interior window"):
        expectation(integrand, SupportInterval(-math.inf, math.inf), 0.0, 1.0)


# ---------------------------------------------------------------------------
# the direct QUADPACK pass is scipy's own quad, bit for bit
# ---------------------------------------------------------------------------


def _nan_past_two(x):
    if x > 2.0:
        raise OverflowError("past two")
    return x * x


PASSES = {
    "finite": (math.exp, 0.0, 1.0),
    "finite-oscillating": (lambda x: math.sin(30.0 * x) * math.exp(-x), -1.0, 4.0),
    "to-plus-inf": (lambda x: math.exp(-x), 0.5, math.inf),
    "from-minus-inf": (lambda x: math.exp(x - 0.3 * x * x), -math.inf, 1.5),
    "whole-line": (lambda x: math.exp(-0.5 * (x - 0.7) ** 2), -math.inf, math.inf),
    "empty": (math.exp, 1.25, 1.25),
    # QUADPACK runs out of subdivisions (ier 1) and returns 145.6489...
    "untrusted-1/x": (lambda x: 1.0 / x, 0.0, 1.0),
    "guarded-nan": (partial(guarded, _nan_past_two), 0.0, 3.0),
}


@pytest.mark.parametrize("fn,lo,hi", PASSES.values(), ids=PASSES.keys())
def test_direct_pass_equals_scipy_quad(fn, lo, hi):
    from scipy import integrate

    out = integrate.quad(
        fn, lo, hi, epsabs=QUAD_ABS, epsrel=QUAD_REL, limit=QUAD_LIMIT, full_output=1
    )
    value, abserr, trusted = _quad(fn, lo, hi)
    for ours, theirs in ((value, out[0]), (abserr, out[1])):
        assert ours == theirs or (math.isnan(ours) and math.isnan(theirs)), (ours, theirs)
    assert trusted == (len(out) == 3 and math.isfinite(out[0]) and math.isfinite(out[1]))


def test_integrand_errors_propagate():
    with pytest.raises(TypeError):
        _quad(lambda x: None + x, 0.0, 1.0)


_SRC = str(Path(__file__).resolve().parents[1] / "src")

_IMPORT_ORDERS = {
    "package-first": """
import math, sys
from jensen_sharp.quadrature import _quad, _quadpack
_quad(math.exp, 0.0, 1.0)
assert "scipy.integrate" not in sys.modules
from scipy import integrate
""",
    "scipy-first": """
import math, sys
from scipy import integrate
from jensen_sharp.quadrature import _quad, _quadpack
_quad(math.exp, 0.0, 1.0)
""",
}


@pytest.mark.parametrize("code", _IMPORT_ORDERS.values(), ids=_IMPORT_ORDERS.keys())
def test_scipy_quad_works_in_either_import_order(code):
    code += """
assert sys.modules["scipy.integrate._quadpack"] is _quadpack()
value = integrate.quad(math.exp, 0, 1)[0]
print(math.isclose(value, math.e - 1.0, rel_tol=1e-14), value == _quad(math.exp, 0.0, 1.0)[0])
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH", "")) if p))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "True"]
