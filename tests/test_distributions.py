"""Distribution layer: moments, cells, cuts, transforms, file ingestion."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from jensen_sharp import (
    CustomPdf,
    Discrete,
    DomainError,
    Empirical,
    EmptyCellError,
    Exponential,
    Normal,
    NumericError,
    ParameterError,
    PowerTransform,
    SupportInterval,
    TruncatedStats,
    Uniform,
    equal_probability_cuts,
    estimate_conditional_gap,
    estimate_gap,
    jensen_bounds,
    load_samples,
    neg_log,
    power_mean_bounds,
    quadratic,
    sample_bounds,
    transform_power,
)
from jensen_sharp import distributions
from jensen_sharp.distributions import _check_mass_in_domain, _ndtr, _ndtri
from jensen_sharp.quadrature import expectation
from _support import population_stats


# ---------------------------------------------------------------------------
# means and variances
# ---------------------------------------------------------------------------


def test_means():
    assert Exponential(1.0).mean() == 1.0
    assert Uniform(10.0, 100.0).mean() == 55.0
    assert Empirical([1.0, 2.0, 3.0]).mean() == 2.0
    assert Normal(-1.5, 2.0).mean() == -1.5


def test_variances():
    assert Exponential(1.0).variance() == 1.0
    assert Empirical([1.0, 2.0, 3.0]).variance() == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert Normal(0.0, 1.0).variance() == 1.0
    assert Uniform(0.0, 1.0).variance() == pytest.approx(1.0 / 12.0, rel=1e-15)


@pytest.mark.parametrize("rate", [1e-160, 1e-163, 1e-300])
def test_exponential_refuses_a_rate_whose_variance_is_past_the_float_range(rate):
    with pytest.raises(ParameterError, match="too small"):
        Exponential(rate)


@pytest.mark.parametrize("build", [
    lambda: Normal(0.0, 1.4e154),
    lambda: Normal(0.0, 1e200),
    lambda: Uniform(0.0, 1.4e154),
    lambda: Uniform(-1e308, 1e308),  # the width itself is inf
], ids=["normal-1.4e154", "normal-1e200", "uniform-1.4e154", "uniform-1e308"])
def test_normal_and_uniform_refuse_a_variance_past_the_float_range(build):
    with pytest.raises(ParameterError, match="too large"):
        build()


def test_normal_and_uniform_variances_keep_their_bits_up_to_the_float_range():
    for sigma in (1.3e154, 0.3, 1.0):
        assert Normal(0.0, sigma).variance() == sigma * sigma
    for w in (1.3e154, 0.3, 1.0):
        assert Uniform(0.0, w).variance() == w * w / 12.0


def test_exponential_variance_keeps_its_bits_down_to_the_float_range():
    for rate in (1e-150, 7.5e-155, 0.3, 1.0, 1e150):
        assert Exponential(rate).variance() == 1.0 / (rate * rate)


@pytest.mark.parametrize("d", [Normal(0.3, 1.7), Exponential(0.8), Uniform(2.0, 9.0)], ids=repr)
def test_an_analytic_law_builds_its_support_once(d):
    assert d.support is d.support
    assert d.support == SupportInterval(*d.mass_bounds())


def test_law_parameter_validation():
    with pytest.raises(ParameterError):
        Normal(0.0, 0.0)
    with pytest.raises(ParameterError):
        Exponential(-1.0)
    with pytest.raises(ParameterError):
        Uniform(2.0, 2.0)
    with pytest.raises(ParameterError):
        Empirical([1.0])
    with pytest.raises(ParameterError):
        Empirical([1.0, math.nan])


# ---------------------------------------------------------------------------
# interval probabilities
# ---------------------------------------------------------------------------


def test_interval_prob_examples():
    tail = SupportInterval(-math.inf, -0.431)
    assert Normal(0.0, 1.0).interval_prob(tail) == pytest.approx(1.0 / 3.0, abs=1e-3)
    half = SupportInterval(0.0, 0.5, lower_closed=True)
    assert Uniform(0.0, 1.0).interval_prob(half) == 0.5
    cell = SupportInterval(1.0, 3.0, lower_closed=True)
    assert Empirical([1.0, 2.0, 3.0, 4.0]).interval_prob(cell) == 0.5


def test_empirical_interval_prob_honours_flags():
    d = Empirical([1.0, 2.0, 3.0, 4.0])
    assert d.interval_prob(SupportInterval(1.0, 3.0, True, False)) == 0.5  # {1, 2}
    assert d.interval_prob(SupportInterval(1.0, 3.0, False, True)) == 0.5  # {2, 3}
    assert d.interval_prob(SupportInterval(1.0, 3.0, True, True)) == 0.75
    assert d.interval_prob(SupportInterval(1.0, 3.0, False, False)) == 0.25


# ---------------------------------------------------------------------------
# truncated moments
# ---------------------------------------------------------------------------


def test_truncated_normal_reference_cells():
    d = Normal(0.0, 1.0)
    ts = d.truncated_stats(SupportInterval(0.431, math.inf))
    assert ts.mean == pytest.approx(1.091, abs=1e-3)
    assert ts.variance == pytest.approx(0.280, abs=1e-3)
    mid = d.truncated_stats(SupportInterval(-0.431, 0.431))
    assert mid.mean == pytest.approx(0.0, abs=1e-3)
    assert mid.variance == pytest.approx(0.060, abs=1e-3)


def test_truncated_uniform_half_cell():
    ts = Uniform(0.0, 1.0).truncated_stats(SupportInterval(0.0, 0.5, lower_closed=True))
    assert ts.mean == pytest.approx(0.25, rel=1e-14)
    assert ts.variance == pytest.approx(1.0 / 48.0, rel=1e-14)


def test_truncated_exponential_against_quadrature_oracle():
    from scipy.integrate import quad

    d = Exponential(0.7)
    cell = SupportInterval(0.5, 2.5)
    z, _ = quad(lambda x: 0.7 * math.exp(-0.7 * x), 0.5, 2.5, epsabs=1e-13)
    m, _ = quad(lambda x: x * 0.7 * math.exp(-0.7 * x), 0.5, 2.5, epsabs=1e-13)
    m2, _ = quad(lambda x: x * x * 0.7 * math.exp(-0.7 * x), 0.5, 2.5, epsabs=1e-13)
    ts = d.truncated_stats(cell)
    assert ts.prob == pytest.approx(z, rel=1e-10)
    assert ts.mean == pytest.approx(m / z, rel=1e-10)
    assert ts.variance == pytest.approx(m2 / z - (m / z) ** 2, rel=1e-8)
    # unbounded cell: memorylessness
    up = d.truncated_stats(SupportInterval(1.3, math.inf))
    assert up.mean == pytest.approx(1.3 + 1.0 / 0.7, rel=1e-14)
    assert up.variance == pytest.approx(1.0 / 0.49, rel=1e-14)


def test_truncated_full_support_recovers_moments():
    for d in (Normal(0.4, 1.3), Exponential(2.0), Uniform(-1.0, 4.0)):
        lo, hi, lo_at, hi_at = d.mass_bounds()
        ts = d.truncated_stats(SupportInterval(lo, hi, lo_at, hi_at))
        assert ts.prob == pytest.approx(1.0, abs=1e-12)
        assert ts.mean == pytest.approx(d.mean(), rel=1e-9, abs=1e-12)
        assert ts.variance == pytest.approx(d.variance(), rel=1e-9)


def test_truncated_empty_cell_raises():
    with pytest.raises(EmptyCellError):
        Uniform(0.0, 1.0).truncated_stats(SupportInterval(2.0, 3.0))
    with pytest.raises(EmptyCellError):
        Empirical([1.0, 2.0]).truncated_stats(SupportInterval(5.0, 6.0))


def test_truncated_stats_type_guards():
    with pytest.raises(ParameterError):
        TruncatedStats(prob=0.5, mean=None, variance=None)
    with pytest.raises(ParameterError):
        TruncatedStats(prob=0.0, mean=1.0, variance=1.0)
    with pytest.raises(ParameterError):
        TruncatedStats(prob=0.5, mean=1.0, variance=-0.1)
    with pytest.raises(ParameterError):
        TruncatedStats(prob=0.0, mean=None, variance=None)


def _running_sum_quantile(d: Discrete, q: float) -> float:
    """The first atom whose running mass, added up one atom at a time, reaches q."""
    acc = 0.0
    for x, w in zip(d.points, d.probs):
        acc += w
        if acc >= q:
            return float(x)
    return float(d.points[-1])


def test_discrete_quantile_equals_the_running_sum_of_its_masses():
    tenths = Discrete(np.arange(1.0, 11.0), [0.1] * 10)
    # the running sum reaches 0.8999999999999999 at the ninth atom and 0.9999999999999999 at the last
    assert tenths.quantile(0.9) == 10.0
    assert tenths.quantile(float(np.nextafter(1.0, 0.0))) == 10.0
    short = Discrete([1.0, 2.0], [0.5, 0.5 - 1e-13])  # every running sum falls below q
    assert short.quantile(1.0 - 1e-14) == 2.0
    rng = np.random.default_rng(9)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        probs = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.8)  # some atoms carry no mass
        if not probs.any():
            probs[0] = 1.0
        d = Discrete(np.cumsum(rng.random(n) + 0.01), probs / math.fsum(probs))
        running = np.cumsum(d.probs)
        levels = [*rng.random(5), *running[running < 1.0], *np.nextafter(running[running < 1.0], 1.0)]
        for q in levels:
            if 0.0 < q < 1.0:
                assert d.quantile(float(q)) == _running_sum_quantile(d, float(q))


@pytest.mark.parametrize(
    "d",
    [Normal(0.3, 1.7), Exponential(0.8), Uniform(2.0, 9.0)],
    ids=["normal", "exponential", "uniform"],
)
@pytest.mark.parametrize("m", [2, 3, 5])
def test_law_of_total_expectation_and_variance(d, m):
    cuts = equal_probability_cuts(d, m)
    lo, hi, lo_at, hi_at = d.mass_bounds()
    edges = [lo, *cuts, hi]
    cells = []
    for j in range(m):
        cells.append(
            SupportInterval(
                edges[j],
                edges[j + 1],
                lower_closed=lo_at if j == 0 else True,
                upper_closed=hi_at if j == m - 1 else False,
            )
        )
    stats = [d.truncated_stats(c) for c in cells]
    mu, var = d.mean(), d.variance()
    total_mean = math.fsum(ts.prob * ts.mean for ts in stats)
    assert abs(total_mean - mu) <= 1e-8 * max(1.0, abs(mu))
    total_second = math.fsum(ts.prob * (ts.variance + ts.mean**2) for ts in stats)
    assert abs(total_second - mu * mu - var) <= 1e-6 * max(1.0, var)


def test_law_of_total_expectation_empirical_exact(pinned_sample):
    d = Empirical(pinned_sample)
    cuts = equal_probability_cuts(d, 4)
    lo, hi, *_ = d.mass_bounds()
    edges = [lo, *cuts, hi]
    cells = [
        SupportInterval(edges[j], edges[j + 1], lower_closed=True, upper_closed=(j == 3))
        for j in range(4)
    ]
    stats = [d.truncated_stats(c) for c in cells]
    assert math.fsum(ts.prob for ts in stats) == pytest.approx(1.0, abs=1e-15)
    total_mean = math.fsum(ts.prob * ts.mean for ts in stats)
    # "exact" up to summation-order rounding
    assert abs(total_mean - d.mean()) <= 2e-13 * max(1.0, abs(d.mean()))


# ---------------------------------------------------------------------------
# quantiles and equal-probability cuts
# ---------------------------------------------------------------------------


def test_equal_probability_cuts_examples():
    cuts = equal_probability_cuts(Normal(0.0, 1.0), 3)
    assert cuts[0] == pytest.approx(-0.431, abs=1e-3)
    assert cuts[1] == pytest.approx(0.431, abs=1e-3)
    assert equal_probability_cuts(Uniform(0.0, 1.0), 4) == pytest.approx([0.25, 0.5, 0.75])
    assert equal_probability_cuts(Exponential(1.0), 2) == pytest.approx([math.log(2.0)])
    assert equal_probability_cuts(Normal(0.0, 1.0), 1) == []
    with pytest.raises(ParameterError):
        equal_probability_cuts(Normal(0.0, 1.0), 0)


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_equal_cut_cell_probabilities_sum_to_one(m):
    for d in (Normal(1.0, 2.0), Exponential(0.5), Uniform(-3.0, 7.0)):
        cuts = equal_probability_cuts(d, m)
        lo, hi, *_ = d.mass_bounds()
        edges = [lo, *cuts, hi]
        probs = [
            d.interval_prob(SupportInterval(a, b, lower_closed=j > 0))
            for j, (a, b) in enumerate(zip(edges, edges[1:]))
        ]
        assert abs(math.fsum(probs) - 1.0) <= 1e-12
        for p in probs:
            assert p == pytest.approx(1.0 / m, abs=1e-9)


def test_empirical_nearest_rank_quantile():
    d = Empirical([4.0, 1.0, 3.0, 2.0])
    assert d.quantile(0.5) == 2.0
    assert d.quantile(0.25) == 1.0
    assert d.quantile(0.75) == 3.0
    assert equal_probability_cuts(d, 2) == [2.0]
    tied = Empirical([5.0, 5.0, 5.0, 5.0, 9.0])
    with pytest.raises(ParameterError):
        equal_probability_cuts(tied, 4)
    # a cut on a support endpoint is one that build_partition would refuse
    with pytest.raises(ParameterError, match="too concentrated for 3 cells"):
        equal_probability_cuts(Empirical([1.0, 2.0, 3.0]), 3)


EVERY_LAW_KIND = [
    Normal(0.0, 1.0),
    Exponential(1.0),
    Uniform(1.0, 4.0),
    Empirical([1.0, 2.0, 3.0]),
    Discrete([1.0, 2.0], [0.5, 0.5]),
    CustomPdf(pdf=lambda x: 1.0 / 3.0, support_interval=SupportInterval(1.0, 4.0)),
    transform_power(Exponential(1.0), 2.0),
]
LAW_IDS = ["normal", "exponential", "uniform", "empirical", "discrete", "custom-pdf", "power"]


@pytest.mark.parametrize("law", EVERY_LAW_KIND, ids=LAW_IDS)
def test_every_law_holds_its_moments_from_construction(law):
    held = vars(law)
    assert (held["_mean"], held["_variance"]) == (law.mean(), law.variance())


def test_only_the_base_law_defines_the_moment_accessors():
    base = distributions.DistributionSpec
    for cls in vars(distributions).values():
        if isinstance(cls, type) and issubclass(cls, base) and cls is not base:
            assert not {"mean", "variance"} & set(vars(cls)), cls


@pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.5, math.nan])
@pytest.mark.parametrize("law", EVERY_LAW_KIND, ids=LAW_IDS)
def test_every_law_rejects_a_quantile_level_outside_the_unit_interval(law, q):
    with pytest.raises(ParameterError, match="quantile level"):
        law.quantile(q)


@pytest.mark.parametrize("law", EVERY_LAW_KIND, ids=LAW_IDS)
def test_expect_integrates_against_the_law(law):
    one, _ = law.expect(lambda x: 1.0)
    first, _ = law.expect(lambda x: x)
    assert one == pytest.approx(1.0, abs=1e-9)
    assert first == pytest.approx(law.mean(), rel=1e-9)
    # E[g; X in cell] is not divided by the cell's mass
    cell = SupportInterval(law.quantile(0.2), law.quantile(0.7), True, True)
    mass, _ = law.expect(lambda x: 1.0, cell)
    cell_first, _ = law.expect(lambda x: x, cell)
    assert mass == pytest.approx(law.interval_prob(cell), rel=1e-9)
    assert cell_first / law.interval_prob(cell) == pytest.approx(
        law.truncated_stats(cell).mean, rel=1e-9
    )
    if law.mass_bounds()[0] >= 0.0:  # a cell that misses the mass integrates to nothing
        assert law.expect(lambda x: x, SupportInterval(-20.0, -10.0))[0] == 0.0


def test_atom_expect_is_an_exact_sum_that_refuses_a_non_finite_term():
    d = Discrete([1.0, 2.0, 4.0], [0.5, 0.25, 0.25])
    assert d.expect(lambda x: x * x) == (math.fsum([0.5, 1.0, 4.0]), 16.0 * 2.0**-52 * 5.5)
    assert d.expect(np.log, SupportInterval(1.0, 4.0))[0] == 0.25 * math.log(2.0)
    with pytest.raises(NumericError, match="mass point"):
        Empirical([0.0, 1.0]).expect(lambda x: 1.0 / x)


@pytest.mark.parametrize("law", [Normal(0.3, 1.7), Exponential(0.6), Uniform(1.0, 4.0)],
                         ids=["normal", "exponential", "uniform"])
def test_expect_over_the_support_is_the_quadrature_of_g_times_pdf(law):
    # bit for bit: the oracle's full-law integrals keep their values and layout
    def g(x):
        return math.exp(0.3 * x)

    direct = expectation(lambda x: g(x) * law.pdf(x), law.support, law.mean(),
                         math.sqrt(law.variance()))
    assert law.expect(g) == direct


def test_power_transform_integrates_on_its_source_law():
    # E[Y**k] of Y = X**4, X ~ Exponential(0.3), is (4k)!/0.3**(4k); the old
    # change-of-variables density refused this law's variance
    y = transform_power(Exponential(0.3), 4.0)
    assert y.mean() == pytest.approx(math.factorial(4) / 0.3**4, rel=1e-12)
    assert y.variance() == pytest.approx(
        math.factorial(8) / 0.3**8 - (math.factorial(4) / 0.3**4) ** 2, rel=1e-10
    )
    # a cell of Y is the cell of X that x -> x**r maps onto it, ends swapped for r < 0
    inv = transform_power(Uniform(1.0, 4.0), -2.0)
    x_cell = SupportInterval(0.5**-0.5, 2.0)
    assert inv.interval_prob(SupportInterval(0.25, 0.5)) == Uniform(1.0, 4.0).interval_prob(x_cell)
    assert inv.interval_prob(SupportInterval(-3.0, 0.0)) == 0.0
    assert inv.support == SupportInterval(4.0**-2, 1.0)


# ---------------------------------------------------------------------------
# power transforms
# ---------------------------------------------------------------------------


def test_transform_power_pushforward_examples():
    y = transform_power(Empirical([1.0, 4.0, 9.0]), 0.5)
    assert sorted(y.samples) == pytest.approx([1.0, 2.0, 3.0])
    d = Uniform(1.0, 2.0)
    assert transform_power(d, 1.0) is d
    with pytest.raises(DomainError):
        transform_power(Normal(0.0, 1.0), 2.0)
    with pytest.raises(DomainError):
        transform_power(Empirical([0.0, 1.0]), -1.0)
    with pytest.raises(ParameterError):
        transform_power(Uniform(1.0, 2.0), 0.0)


@given(
    r=st.sampled_from([-2.0, -1.0, 0.5, 2.0, 3.0]),
    xs=st.lists(st.floats(0.1, 50.0), min_size=2, max_size=40),
)
@settings(max_examples=120, deadline=None)
def test_transform_power_empirical_mean_matches_direct_sum(r, xs):
    y = transform_power(Empirical(xs), r)
    direct = math.fsum(x**r for x in xs) / len(xs)
    assert y.mean() == pytest.approx(direct, rel=1e-12, abs=1e-300)


def test_transform_power_continuous_matches_closed_form():
    # Y = X**2 for X ~ uniform(1, 2): E[Y] = (2**3 - 1) / 3, E[Y**2] = (2**5 - 1) / 5
    y = transform_power(Uniform(1.0, 2.0), 2.0)
    assert isinstance(y, PowerTransform)
    ey = (2.0**3 - 1.0) / 3.0
    ey2 = (2.0**5 - 1.0) / 5.0
    assert y.mean() == pytest.approx(ey, rel=1e-8)
    assert y.variance() == pytest.approx(ey2 - ey * ey, rel=1e-6)
    # Y = 1/X for X ~ uniform(10, 100): density transported correctly
    inv = transform_power(Uniform(10.0, 100.0), -1.0)
    e_inv = math.log(10.0) / 90.0  # (1/90) * ln(100/10)
    assert inv.mean() == pytest.approx(e_inv, rel=1e-8)
    assert inv.support.lower == pytest.approx(0.01) and inv.support.upper == pytest.approx(0.1)


@pytest.mark.parametrize("a", [100.0, 900.0, 2500.0])
def test_power_transform_tail_cell_keeps_its_digits(a):
    # Y = X**2, X ~ Exponential(1): Y > a is X > s = sqrt(a), of mass e**-s, and
    # X - s is again Exponential(1), so E[Y | Y > a] = s**2 + 2s + 2 and
    # E[Y**2 | Y > a] = s**4 + 4s**3 + 12s**2 + 24s + 24.  The change-of-variables
    # density missed the mean at a = 900 by 3% and the variance by 31%.
    s = math.sqrt(a)
    m2 = s**2 + 2 * s + 2
    var = s**4 + 4 * s**3 + 12 * s**2 + 24 * s + 24 - m2**2
    ts = transform_power(Exponential(1.0), 2.0).truncated_stats(SupportInterval(a, math.inf))
    assert ts.prob == pytest.approx(math.exp(-s), rel=1e-12)
    assert ts.mean == pytest.approx(m2, rel=1e-12)
    assert ts.variance == pytest.approx(var, rel=1e-10)


def test_power_transform_quantile_and_draws_come_from_the_source_law():
    y = transform_power(Exponential(1.0), 2.0)
    assert isinstance(y, PowerTransform)
    assert abs(y.quantile(0.3) - math.log(0.7) ** 2) <= 1e-12
    # a negative exponent reverses the order of the levels
    inv = transform_power(Uniform(1.0, 4.0), -0.5)
    assert inv.quantile(0.3) == pytest.approx(Uniform(1.0, 4.0).quantile(0.7) ** -0.5, rel=1e-15)
    draws = y.sample(np.random.default_rng(5), 1000)
    assert np.array_equal(draws, np.random.default_rng(5).exponential(1.0, 1000) ** 2)


def test_power_transform_built_directly_checks_its_inputs():
    with pytest.raises(DomainError):
        PowerTransform(Normal(0.0, 1.0), 2.0)
    with pytest.raises(ParameterError):
        PowerTransform(Exponential(1.0), 0.0)


def test_transform_power_discrete():
    d = Discrete([1.0, 2.0, 4.0], [0.5, 0.25, 0.25])
    y = transform_power(d, -1.0)
    assert isinstance(y, Discrete)
    assert y.mean() == pytest.approx(0.5 * 1.0 + 0.25 * 0.5 + 0.25 * 0.25, rel=1e-14)


# ---------------------------------------------------------------------------
# Discrete law
# ---------------------------------------------------------------------------


def test_discrete_moments_and_cells():
    d = Discrete([-1.0, 0.0, 2.0], [0.25, 0.25, 0.5])
    assert d.mean() == pytest.approx(0.75)
    assert d.variance() == pytest.approx(0.25 * (1.75**2) + 0.25 * (0.75**2) + 0.5 * (1.25**2))
    assert d.interval_prob(SupportInterval(-1.0, 2.0, True, False)) == 0.5
    ts = d.truncated_stats(SupportInterval(-1.0, 1.0, True, True))
    assert ts.prob == 0.5 and ts.mean == pytest.approx(-0.5)
    assert d.quantile(0.5) == 0.0
    with pytest.raises(ParameterError):
        Discrete([1.0, 1.0], [0.5, 0.5])
    with pytest.raises(ParameterError):
        Discrete([1.0, 2.0], [0.7, 0.7])


def test_discrete_from_sorted_or_shuffled_atoms_has_the_same_bits():
    rng = np.random.default_rng(29)
    points, probs = np.sort(rng.uniform(-3.0, 5.0, 700)), rng.dirichlet(np.ones(700))
    order = rng.permutation(700)
    ordered, shuffled = Discrete(points, probs), Discrete(points[order], probs[order])
    for d in (ordered, shuffled):
        assert d.points.tobytes() == points.tobytes()
        assert d.probs.tobytes() == probs.tobytes()
        assert not (d.points.flags.writeable or d.probs.flags.writeable)
    assert repr(ordered.mean()) == repr(shuffled.mean())
    assert repr(ordered.variance()) == repr(shuffled.variance())
    # the sorted input is copied, not kept
    assert not np.shares_memory(ordered.points, points)
    with pytest.raises(ParameterError, match="distinct"):
        Discrete([1.0, 2.0, 2.0], [0.25, 0.25, 0.5])


@pytest.mark.parametrize("probs", [[math.nan, 1.0], [1.0, math.nan], [math.inf, 1.0]])
def test_discrete_refuses_masses_that_are_not_finite(probs):
    with pytest.raises(ParameterError, match="finite and nonnegative"):
        Discrete([1.0, 2.0], probs)


@pytest.mark.parametrize("points, probs", [([], []), ([1.0], [0.5, 0.5]), ([1.0, 2.0], [1.0])])
def test_discrete_refuses_empty_or_unequal_inputs(points, probs):
    with pytest.raises(ParameterError, match="non-empty and equal-length"):
        Discrete(points, probs)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_discrete_refuses_atoms_that_are_not_finite(bad):
    with pytest.raises(ParameterError, match="atom locations must be finite"):
        Discrete([1.0, bad], [0.5, 0.5])


@pytest.mark.parametrize("mu", [math.inf, -math.inf, math.nan])
def test_normal_refuses_a_mean_that_is_not_finite(mu):
    with pytest.raises(ParameterError, match="normal mean must be finite"):
        Normal(mu, 1.0)


@pytest.mark.parametrize("build", [
    lambda: Empirical([1e308, 1e308]),  # math.fsum overflows on the sum
    lambda: Empirical([1e200, -1e200]),  # the squared deviations overflow
    lambda: Discrete([1e200, -1e200], [0.5, 0.5]),
    lambda: Discrete([1e308, -1e308], [0.5, 0.5]),
], ids=["empirical-sum", "empirical-square", "discrete-square", "discrete-extremes"])
def test_atom_laws_refuse_moments_past_the_float_range(build):
    with pytest.raises(NumericError, match="past the float range"):
        build()


@pytest.mark.parametrize("xs, ws", [
    ([0.0] * 999 + [1.5e154], None),  # a squared deviation is 2.2e308, the variance 2.2e305
    ([-1.2e154, 1.3e154], None),  # each square fits, their sum 3.1e308 does not
    ([1e154, -1.3e154, 0.5, 3.0] * 250, None),
    ([0.0, 1.5e154], [0.999, 0.001]),  # the weighted form of the first
], ids=["one-far-sample", "sum-of-squares", "mixed-scales", "one-far-atom"])
def test_a_sample_variance_in_the_float_range_is_taken_though_its_squares_are_not(xs, ws):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(300):
        weights = [mpmath.mpf(1) / len(xs)] * len(xs) if ws is None else ws
        m = mpmath.fsum(mpmath.mpf(w) * x for w, x in zip(weights, xs))
        expected = float(mpmath.fsum(mpmath.mpf(w) * (x - m) ** 2 for w, x in zip(weights, xs)))
    law = Empirical(xs) if ws is None else Discrete(xs, ws)
    assert law.variance() == pytest.approx(expected, rel=1e-15)


def test_a_discrete_atom_without_mass_is_no_part_of_the_law():
    """A massless atom is dropped: it is outside the mass-carrying range, so it neither
    leaves the domain of phi nor overflows a sum."""
    d, kept = Discrete([-1.0, 1.0, 2.0], [0.0, 0.5, 0.5]), Discrete([1.0, 2.0], [0.5, 0.5])
    assert d.points.tolist() == [1.0, 2.0] and d.mass_bounds() == (1.0, 2.0, True, True)
    assert jensen_bounds(neg_log(), d) == jensen_bounds(neg_log(), kept)
    assert jensen_bounds(neg_log(), d).lower == 0.04565126088155241
    assert estimate_gap(neg_log(), d) == estimate_gap(neg_log(), kept)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # 0 * exp(1000) would warn
        assert Discrete([1.0, 1000.0], [1.0, 0.0]).expect(np.exp)[0] == math.e


@pytest.mark.parametrize("m", [1, 4, 5000])
def test_discrete_draws_are_those_of_rng_choice(m):
    """Discrete searches a cumulative sum that it keeps; its draws, and the stream after
    them, must be those of rng.choice with the same probabilities."""
    rng = np.random.default_rng(m)
    w = rng.uniform(size=m)
    w[1::3] = 0.0  # atoms that are never drawn
    d = Discrete(rng.normal(size=m), w / w.sum())
    mine, numpys = np.random.default_rng(9), np.random.default_rng(9)
    for n in (1, 1001, 2**14):
        assert np.array_equal(d.sample(mine, n),
                              numpys.choice(d.points, size=n, replace=True, p=d.probs))
    assert mine.random() == numpys.random()


def _random_discrete_laws():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        pts = rng.normal(rng.uniform(-50.0, 50.0), rng.uniform(0.01, 30.0), n)
        w = rng.uniform(0.0, 1.0, n)
        yield Discrete(pts, w / w.sum())
    # mean 0; x*x squares 29.07538533248004 one ulp away from libm's pow
    yield Discrete([-29.07538533248004, 29.07538533248004], [0.5, 0.5])
    # enough atoms for the vector sums of distributions._fsum
    w = rng.uniform(0.0, 1.0, 3000)
    yield Discrete(rng.lognormal(0.0, 3.0, 3000), w / w.sum())


def test_discrete_sums_match_scalar_fsum_bit_for_bit():
    for d in _random_discrete_laws():
        m = math.fsum(p * x for p, x in zip(d.probs, d.points))
        assert d.mean() == m
        assert d.variance() == math.fsum(p * ((x - m) * (x - m)) for p, x in zip(d.probs, d.points))
        cell = SupportInterval(float(d.points[0]), float(d.points[-1]), True, False)
        ts = d.truncated_stats(cell)
        pr, pt = d.probs[:-1], d.points[:-1]
        cm = math.fsum(p * x for p, x in zip(pr, pt)) / ts.prob
        assert ts.mean == cm
        assert ts.variance == math.fsum(p * ((x - cm) * (x - cm)) for p, x in zip(pr, pt)) / ts.prob


# ---------------------------------------------------------------------------
# CustomPdf
# ---------------------------------------------------------------------------


def test_custom_pdf_uniform_density():
    d = CustomPdf(
        pdf=lambda x: 1.0 / 3.0,
        support_interval=SupportInterval(2.0, 5.0),
        label="flat(2,5)",
    )
    assert d.mean() == pytest.approx(3.5, rel=1e-10)
    assert d.variance() == pytest.approx(9.0 / 12.0, rel=1e-8)
    assert d.interval_prob(SupportInterval(2.0, 3.5)) == pytest.approx(0.5, rel=1e-9)
    ts = d.truncated_stats(SupportInterval(2.0, 3.5))
    assert ts.mean == pytest.approx(2.75, rel=1e-9)
    assert d.quantile(0.5) == pytest.approx(3.5, abs=1e-9)


_QUANTILE_DENSITIES = {
    "exponential": (lambda x: math.exp(-x), SupportInterval(0.0, math.inf)),
    "normal": (lambda x: math.exp(-0.5 * (x - 3.0) ** 2) / math.sqrt(2.0 * math.pi),
               SupportInterval(-math.inf, math.inf)),
    "beta-2-5": (lambda x: 30.0 * x * (1.0 - x) ** 4, SupportInterval(0.0, 1.0)),
}
_QUANTILE_LEVELS = (0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999)


@pytest.mark.parametrize("name", _QUANTILE_DENSITIES)
def test_custom_pdf_quantile_matches_brentq_in_few_mass_calls(monkeypatch, name):
    from scipy.optimize import brentq

    d = CustomPdf(*_QUANTILE_DENSITIES[name])
    calls = _count_mass_calls(monkeypatch)
    roots = []
    for q in _QUANTILE_LEVELS:
        calls.clear()
        roots.append(d.quantile(q))
        assert len(calls) <= 30, (q, len(calls))
    # brentq on the very bracket that quantile builds
    monkeypatch.setattr(distributions, "_increasing_root",
                        lambda g, a, b: brentq(g, a, b, xtol=1e-12, rtol=1e-12))
    for q, x in zip(_QUANTILE_LEVELS, roots):
        ref = d.quantile(q)
        assert abs(x - ref) <= 2e-12 * max(1.0, abs(ref)), (q, x, ref)


def _count_mass_calls(monkeypatch) -> list:
    """The cells of every CustomPdf mass integral from now on, one entry a call."""
    calls = []
    expect = CustomPdf.expect
    monkeypatch.setattr(CustomPdf, "expect",
                        lambda self, g, cell=None: calls.append(cell) or expect(self, g, cell))
    return calls


def _lognormal_pdf(x: float) -> float:
    return math.exp(-0.5 * math.log(x) ** 2) / (x * math.sqrt(2.0 * math.pi)) if x > 0.0 else 0.0


@pytest.mark.parametrize("pdf, support, exact, levels", [
    (lambda x: math.exp(-x), (0.0, math.inf), lambda q: -math.log1p(-q), (0.9, 0.999, 1 - 1e-6)),
    (_lognormal_pdf, (0.0, math.inf), lambda q: math.exp(ndtri(q)), (0.9, 0.999, 1 - 1e-6)),
    (lambda x: math.exp(x), (-math.inf, 0.0), math.log, (0.1, 0.001, 1e-6)),
], ids=["exponential-upper", "lognormal-upper", "mirrored-exponential-lower"])
def test_custom_pdf_tail_quantiles_hold_their_tolerance(monkeypatch, pdf, support, exact, levels):
    # 1 - 1e-6 rounds to a level 2.9e-17 below it, which moves the exponential's root by
    # 2.9e-11, twice the tolerance: the closed forms take the level as rounded
    d = CustomPdf(pdf, SupportInterval(*support))
    calls = _count_mass_calls(monkeypatch)
    for q in levels:
        calls.clear()
        x, ref = d.quantile(q), exact(q)
        assert abs(x - ref) <= 1e-12 * (1.0 + abs(ref)), (q, x, ref)
        assert len(calls) <= 30, (q, len(calls))


def test_custom_pdf_quantile_loads_no_scipy_optimize():
    code = """
import math, sys
from jensen_sharp import CustomPdf, SupportInterval
d = CustomPdf(lambda x: math.exp(-x), SupportInterval(0.0, math.inf))
print(repr(d.quantile(0.5)), "scipy.optimize" in sys.modules)
"""
    src = str(Path(distributions.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    root, loaded = done.stdout.split()
    assert abs(float(root) - math.log(2.0)) <= 1e-11 and loaded == "False"


def test_custom_pdf_far_tail_cell_samples_its_mass():
    # a single QUADPACK pass over (4, 1e6) never met the peak near 4 and read a trusted 0.0
    d = CustomPdf(Normal(0.0, 1.0).pdf, SupportInterval(-math.inf, math.inf))
    cell = SupportInterval(4.0, 1e6)
    assert d.interval_prob(cell) == pytest.approx(float(ndtr(-4.0)), rel=1e-8)
    ts, exact = d.truncated_stats(cell), Normal(0.0, 1.0).truncated_stats(cell)
    assert ts.mean == pytest.approx(exact.mean, rel=1e-8)
    assert ts.variance == pytest.approx(exact.variance, rel=1e-6)


def test_custom_pdf_takes_no_layout_hints():
    flat = lambda x: 1.0 / 3.0
    sup = SupportInterval(1.0, 4.0)
    with pytest.raises(TypeError):
        CustomPdf(flat, sup, 2.5)
    with pytest.raises(TypeError):
        CustomPdf(flat, sup, anchor=2.5)
    with pytest.raises(TypeError):
        CustomPdf(flat, sup, scale_hint=1.0)
    assert CustomPdf(flat, sup, label="flat").label == "flat"


def test_custom_pdf_rejects_unnormalised_density():
    with pytest.raises(ParameterError):
        CustomPdf(pdf=lambda x: 2.0, support_interval=SupportInterval(0.0, 1.0))


def test_custom_pdf_monte_carlo_is_refused():
    # 0.999 Exp(1) + 0.001 Exp(0.001): a sampler on a grid 40 sd wide gave its
    # variance as 465 +- 81; the quadrature oracle has it right
    d = CustomPdf(
        pdf=lambda x: 0.999 * math.exp(-x) + 1e-6 * math.exp(-1e-3 * x),
        support_interval=SupportInterval(0.0, math.inf),
    )
    f, cell = quadratic(1.0), SupportInterval(0.0, 1.0)
    refused = [
        lambda: estimate_gap(f, d, budget=100, method="mc"),
        lambda: estimate_conditional_gap(f, d, cell, budget=100, method="mc"),
        lambda: estimate_gap(f, transform_power(d, 0.5), budget=100, method="mc"),
    ]
    for call in refused:
        with pytest.raises(ParameterError, match="no exact sampler"):
            call()
    est = estimate_gap(f, d, method="quad")
    assert abs(est.value - 1998.001999) <= 3.0 * est.error_bound, (est.value, est.error_bound)


# ---------------------------------------------------------------------------
# file ingestion
# ---------------------------------------------------------------------------


def test_load_samples_ignores_blanks_and_comments(tmp_path):
    p = tmp_path / "xs.txt"
    p.write_text("# header\n1.5\n\n  2.5  # trailing note\n#3.5\n4.5\n")
    assert load_samples(p) == [1.5, 2.5, 4.5]


def test_load_samples_names_bad_token(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1.0\napples\n")
    with pytest.raises(ParameterError, match="apples"):
        load_samples(p)


def test_pinned_sample_matches_its_generator(pinned_sample):
    regenerated = np.random.default_rng(42).uniform(10.0, 100.0, 100)
    assert np.array_equal(pinned_sample, regenerated)
    m, v = population_stats(pinned_sample)
    d = Empirical(pinned_sample)
    assert d.mean() == pytest.approx(m, rel=1e-15)
    assert d.variance() == pytest.approx(v, rel=1e-15)


def _fsum_moments(xs) -> tuple[float, float]:
    """Mean and population variance, one Python float at a time."""
    m = math.fsum(xs) / len(xs)
    return m, math.fsum((x - m) ** 2 for x in xs) / len(xs)


_BLOCK = distributions._FSUM_BLOCK


@pytest.mark.parametrize("sample", ["pinned", "lognormal-1e5", "uniform-1e5", "narrow-normal",
                                    "wide-lognormal-3B+511", "cancelling-3B+512"])
def test_empirical_moments_equal_the_fsum_reference(pinned_sample, sample):
    rng = np.random.default_rng(11)
    xs = {
        "pinned": pinned_sample,
        "lognormal-1e5": rng.lognormal(0.0, 2.0, 100_000),
        "uniform-1e5": rng.uniform(10.0, 100.0, 100_000),
        "narrow-normal": Normal(1e6, 1e-3).sample(rng, 2_000),
        # four blocks, the last one short of the vector path; terms from about 2**-90 to 2**90
        "wide-lognormal-3B+511": rng.lognormal(0.0, 15.0, 3 * _BLOCK + 511),
        # four blocks, the last one on the vector path; a mean near 0 from +-1e6 halves
        "cancelling-3B+512": np.concatenate([[1e6, -1e6] * (3 * _BLOCK // 2 + 256)])
        + rng.normal(0.0, 1e-3, 3 * _BLOCK + 512),
    }[sample]
    d = Empirical(xs)
    assert (d.mean(), d.variance()) == _fsum_moments(xs)
    cell = SupportInterval(float(np.quantile(xs, 0.2)), float(np.quantile(xs, 0.7)), True, True)
    inside = [x for x in xs if cell.contains(x)]
    ts = d.truncated_stats(cell)
    assert (ts.mean, ts.variance) == _fsum_moments(inside)


@pytest.mark.parametrize("seed", range(12))
def test_empirical_moments_summed_on_grids_from_the_sample_range_equal_the_fsum_reference(seed):
    """Both sums take their grids from the least and greatest sample, not from block scans."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(_CUT, 3 * _BLOCK))
    xs = (rng.uniform(10.0, 100.0, n), np.exp(rng.uniform(-30.0, 30.0, n)),
          rng.normal(0.0, 1e5, n))[seed % 3]
    d = Empirical(xs)
    assert (d.mean(), d.variance()) == _fsum_moments(xs)


def _outcome(fsum, xs):
    """What a sum gives: its repr, which tells -0.0 from 0.0, or its exception's type and text."""
    try:
        return repr(fsum(xs))
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


_CUT = distributions._FSUM_VECTOR_MIN


@given(
    n=st.one_of(st.integers(_CUT - 64, 4 * _CUT), st.integers(4 * _CUT, 3 * _BLOCK)),
    seed=st.integers(0, 2**32 - 1),
    lowest=st.integers(-1080, 1023),
    span=st.integers(0, 2100),
    zero_share=st.sampled_from([0.0, 0.1, 1.0]),
    cancel=st.booleans(),
)
@settings(max_examples=300, deadline=None)
# one term short of a block, one block, one term past it, and a short or a vector last block
@example(n=_BLOCK - 1, seed=1, lowest=-40, span=80, zero_share=0.1, cancel=True)
@example(n=_BLOCK, seed=2, lowest=-1080, span=2100, zero_share=0.0, cancel=False)
@example(n=_BLOCK + 1, seed=3, lowest=900, span=200, zero_share=0.1, cancel=True)
@example(n=3 * _BLOCK + 511, seed=4, lowest=-1080, span=2100, zero_share=0.1, cancel=True)
@example(n=3 * _BLOCK + 512, seed=5, lowest=-10, span=20, zero_share=0.0, cancel=True)
# a block that takes a third round and leaves no term over, and blocks at 2**-1000 whose
# second grid would fall below the normal range, so their second sigma comes from a scan
@example(n=_BLOCK, seed=6, lowest=-20, span=40, zero_share=0.0, cancel=False)
@example(n=2 * _BLOCK, seed=7, lowest=-1010, span=40, zero_share=0.0, cancel=False)
@example(n=2 * _BLOCK, seed=8, lowest=-1010, span=40, zero_share=0.1, cancel=True)
def test_fsum_equals_math_fsum_bit_for_bit(n, seed, lowest, span, zero_share, cancel):
    rng = np.random.default_rng(seed)
    # mantissas in [1, 2) at exponents over [lowest, lowest + span]: past -1074 they round
    # to subnormals and zeros, past 1023 they are capped short of overflow
    exps = np.minimum(rng.integers(lowest, lowest + span + 1, n), 1023)
    xs = np.ldexp(rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n), exps)
    if cancel:  # near-cancelling halves: -x for x, a few nudged one ulp
        half = n // 2
        xs[half:2 * half] = -xs[:half]
        nudge = rng.integers(half, 2 * half, 3)
        xs[nudge] = np.nextafter(xs[nudge], rng.choice([-np.inf, np.inf], 3))
        rng.shuffle(xs)
    zeros = rng.uniform(size=n) < zero_share
    xs[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
    assert _outcome(distributions._fsum, xs) == _outcome(math.fsum, xs)


@pytest.mark.parametrize("k", [_CUT // 2 - 1, _CUT, 5 * _CUT, _BLOCK + 100])
@pytest.mark.parametrize("case", ["inf-minus-inf", "overflow", "cancelling-giants",
                                  "giants-then-one", "nan", "inf", "negative-zeros",
                                  "one-sign-bulk"])
def test_fsum_raises_and_returns_as_math_fsum(k, case):
    xs = {
        # a sum near n * max|x|, which a grid sized by n / 2 in place of n + 2 cannot hold
        "one-sign-bulk": np.append(np.linspace(0.5, 0.99, 2 * k - 1), -0.3),
        "inf-minus-inf": np.array([math.inf, -math.inf] * k),
        "overflow": np.full(2 * k, 1.7e308),
        "cancelling-giants": np.array([1.7e308, -1.7e308] * k),
        "giants-then-one": np.array([1.7e308, -1.7e308] * k + [1.0]),
        "nan": np.array([1.0, math.nan] * k),
        "inf": np.array([1.0, math.inf] * k),
        "negative-zeros": np.full(2 * k, -0.0),
    }[case]
    assert _outcome(distributions._fsum, xs) == _outcome(math.fsum, xs)


def test_fsum_sizes_its_grid_by_all_the_terms():
    """Each block fits a grid sized by its own 2**14 terms, and its exact round sums total
    1.77e308; but math.fsum overflows on the running sum, and so must _fsum, whose grid
    sized by all 12 blocks is past the double range."""
    xs = np.concatenate([np.full(11 * _BLOCK, 0.98e303),
                         np.full(_BLOCK // 2, 1e303), np.full(_BLOCK // 2, -1e303)])
    assert _outcome(math.fsum, xs) == (OverflowError, "intermediate overflow in fsum")
    assert _outcome(distributions._fsum, xs) == _outcome(math.fsum, xs)


def test_fsum_scratch_memory_is_one_block_whatever_the_length():
    xs = np.ones(10**6)
    tracemalloc.start()
    try:
        assert distributions._fsum(xs) == 1e6
        assert distributions._fsum(xs, np.negative) == -1e6
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # one scratch array of the million terms alone takes 8 MB


def test_empirical_expect_weighs_every_atom_by_one_over_n():
    """The products and the rounding charge of an array of weights 1/n, bit for bit."""
    rng = np.random.default_rng(5)
    d = Empirical(rng.lognormal(0.0, 1.0, 2 * _BLOCK + 700))
    n, xs = d.samples.size, d.samples
    for cell in (None, SupportInterval(0.5, 3.0, True, False)):
        inside = xs if cell is None else xs[cell.contains(xs)]
        terms = np.full(n, 1.0 / n)[: inside.size] * np.log(inside)
        charge = 16.0 * distributions._EPS * max(1.0, math.fsum(np.abs(terms)))
        assert d.expect(np.log, cell) == (math.fsum(terms), charge)


def test_empirical_sorts_only_for_quantiles_and_cell_domains():
    xs = np.random.default_rng(8).uniform(10.0, 100.0, 100_000)
    d = Empirical(xs)
    sample_bounds(neg_log(), d)
    jensen_bounds(neg_log(), d)
    assert "_sorted" not in vars(d)
    assert d.mass_bounds() == (float(xs.min()), float(xs.max()), True, True)
    small = Empirical([4.0, -1.0, 3.0, 0.5, 2.5])
    assert repr(small) == "Empirical(n=5, min=-1, max=4)"
    assert "_sorted" not in vars(small)
    assert [small.quantile(q) for q in (0.1, 0.2, 0.5, 0.9)] == [-1.0, -1.0, 2.5, 4.0]
    assert np.array_equal(vars(small)["_sorted"], [-1.0, 0.5, 2.5, 3.0, 4.0])
    _check_mass_in_domain(neg_log(), small, SupportInterval(0.0, 5.0, False, True))
    with pytest.raises(DomainError, match=r"support \[-1.0, 2.5\]"):
        _check_mass_in_domain(neg_log(), small, SupportInterval(-2.0, 3.0))


def test_degenerate_support_is_rejected_but_law_works():
    d = Empirical([3.0, 3.0, 3.0])
    assert d.mean() == 3.0 and d.variance() == 0.0
    with pytest.raises(ParameterError):
        _ = d.support


def test_normal_cdf_consistency_with_scipy():
    d = Normal(1.0, 2.0)
    for x in (-3.0, 0.0, 1.0, 4.5):
        assert d.cdf(x) == pytest.approx(float(ndtr((x - 1.0) / 2.0)), rel=1e-14)


# ---------------------------------------------------------------------------
# standard-library normal functions and far-tail cells
# ---------------------------------------------------------------------------


def test_ndtr_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for z in np.linspace(-37.0, 8.0, 901):
            ref = mpmath.ncdf(mpmath.mpf(float(z)))
            assert abs(_ndtr(float(z)) - ref) <= 1e-12 * ref, z


def _mp_normal_quantile(mpmath, q: float, x0: float):
    """Root of log Phi(x) = log q (log of the upper tail above the median)."""
    q = mpmath.mpf(q)
    if q <= 0.5:
        return mpmath.findroot(lambda x: mpmath.log(mpmath.ncdf(x)) - mpmath.log(q), x0)
    return mpmath.findroot(lambda x: mpmath.log(mpmath.ncdf(-x)) - mpmath.log(1 - q), x0)


def test_ndtri_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    levels = [float(q) for q in np.geomspace(1e-300, 0.99, 301)]
    levels += [1.0 - q for q in levels if 1.0 - q != 1.0]
    with mpmath.workdps(50):
        for q in levels:
            x = _ndtri(q)
            ref = _mp_normal_quantile(mpmath, q, x)
            assert abs(x - ref) <= 1e-14 * abs(ref), q


def test_ndtri_edge_values():
    assert _ndtri(0.0) == -math.inf
    assert _ndtri(1.0) == math.inf
    for q in (-1e-300, -0.5, 1.0 + 2.0**-52, 2.0, math.nan):
        assert math.isnan(_ndtri(q)), q


def test_subnormal_normal_cell_mass_counts_as_empty():
    d = Normal(0.0, 1.0)
    for cell in (SupportInterval(-math.inf, -38.0), SupportInterval(38.0, math.inf)):
        assert d.interval_prob(cell) == 0.0
        with pytest.raises(EmptyCellError):
            d.truncated_stats(cell)


def test_normal_right_tail_cell_mirrors_left_tail():
    d = Normal(0.0, 1.0)
    right = d.truncated_stats(SupportInterval(9.0, math.inf))
    left = d.truncated_stats(SupportInterval(-math.inf, -9.0))
    assert right.prob == pytest.approx(0.5 * math.erfc(9.0 / math.sqrt(2.0)), rel=1e-12)
    assert right.prob == pytest.approx(left.prob, rel=1e-12)
    assert right.mean == pytest.approx(-left.mean, rel=1e-12)
    assert right.variance == pytest.approx(left.variance, rel=1e-12)
    assert d.interval_prob(SupportInterval(9.0, 10.0)) > 0.0


@pytest.mark.parametrize("a", [9.0, 20.0, 37.0])
def test_far_normal_tail_moments_match_mpmath(a):
    # the closed-form variance 1 + (a phi(a) - b phi(b))/Z - shift**2 cancels
    # terms of size a**2; the Mills-ratio continued fraction does not
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        x = mpmath.mpf(a)
        lam = mpmath.npdf(x) / mpmath.ncdf(-x)
        mean_ref, var_ref = float(lam), float(1 + x * lam - lam * lam)
    d = Normal(0.0, 1.0)
    right = d.truncated_stats(SupportInterval(a, math.inf))
    left = d.truncated_stats(SupportInterval(-math.inf, -a))
    for ts, sign in ((right, 1.0), (left, -1.0)):
        assert abs(ts.mean - sign * mean_ref) <= 1e-12 * mean_ref
        assert abs(ts.variance - var_ref) <= 1e-12 * var_ref
    scaled = Normal(2.0, 3.0).truncated_stats(SupportInterval(2.0 + 3.0 * a, math.inf))
    assert scaled.mean == pytest.approx(2.0 + 3.0 * mean_ref, rel=1e-12)
    assert scaled.variance == pytest.approx(9.0 * var_ref, rel=1e-12)


@pytest.mark.parametrize(
    "mu,sigma,lo,hi",
    [
        (0.0, 1.0, 1.0, 1.0001),
        (0.0, 1.0, 0.5, 0.5001),
        (0.0, 1.0, 9.0, 9.001),
        (3.0, 2.0, 5.0, 5.0002),
        (0.0, 1.0, 5.0, 5.01),
        (0.0, 1.0, 12.0, 12.3),
        (0.0, 1.0, 20.0, 20.5),
        (0.0, 1.0, -9.001, -9.0),
        (100.0, 0.5, 100.2, 100.2001),
        (0.0, 1.0, 3.0, 9.0),
        (0.0, 1.0, 4.0, 1e4),
        (0.0, 1.0, 4.0, 1e6),
        (0.0, 1.0, -1e4, -4.0),
    ],
)
def test_narrow_or_far_bounded_normal_cell_moments_match_mpmath(mu, sigma, lo, hi):
    # the closed form 1 + (alpha phi(alpha) - beta phi(beta))/Z - shift**2 cancels terms of
    # size 1 + alpha**2 against a variance of about width**2/12; at 80 digits it does not
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        alpha, beta = ((mpmath.mpf(x) - mpmath.mpf(mu)) / mpmath.mpf(sigma) for x in (lo, hi))
        z = (mpmath.erfc(alpha / mpmath.sqrt(2)) - mpmath.erfc(beta / mpmath.sqrt(2))) / 2
        shift = (mpmath.npdf(alpha) - mpmath.npdf(beta)) / z
        v = 1 + (alpha * mpmath.npdf(alpha) - beta * mpmath.npdf(beta)) / z - shift * shift
        mean_ref, var_ref = float(mu + sigma * shift), float(sigma**2 * v)
    ts = Normal(mu, sigma).truncated_stats(SupportInterval(lo, hi))
    assert abs(ts.mean - mean_ref) <= 1e-9 * abs(mean_ref)
    assert abs(ts.variance - var_ref) <= 1e-9 * var_ref


@pytest.mark.parametrize("rate", [0.3, 1.0])
@pytest.mark.parametrize("lower_sd", [0.0, 1.0, 5.0, 30.0])
def test_narrow_bounded_exponential_cell_moments_match_mpmath(rate, lower_sd):
    # raw moments from closed forms cancel as z = rate * w falls: a cell of 1e-5 sd
    # had a variance of 0 or 2.3 w**2/12, one of 1e-8 sd 2.7e9 w**2/12 or NumericError
    mpmath = pytest.importorskip("mpmath")
    d = Exponential(rate)
    for width_sd in [10.0**-k for k in range(9)]:
        lo = lower_sd / rate
        hi = lo + width_sd / rate
        with mpmath.workdps(60):
            lam, a, b = mpmath.mpf(rate), mpmath.mpf(lo), mpmath.mpf(hi)
            q = mpmath.exp(-lam * (b - a))
            mean_ref = float(a + 1 / lam - (b - a) * q / (1 - q))
            var_ref = float(1 / lam**2 - (b - a) ** 2 * q / (1 - q) ** 2)
        ts = d.truncated_stats(SupportInterval(lo, hi))
        assert abs(ts.mean - mean_ref) <= 1e-12 * mean_ref, (width_sd, ts.mean, mean_ref)
        assert abs(ts.variance - var_ref) <= 1e-12 * var_ref, (width_sd, ts.variance, var_ref)


@pytest.mark.parametrize("rate", [0.3, 1.0, 4.0])
@pytest.mark.parametrize("lower_sd", [0.0, 1.0, 5.0, 30.0, 200.0])
def test_exponential_cell_mass_matches_mpmath(rate, lower_sd):
    # a difference of two survival values lost up to 2.3e-2 of a cell 1e-12 sd wide
    mpmath = pytest.importorskip("mpmath")
    d = Exponential(rate)
    lo = lower_sd / rate
    for width_sd in [10.0**-k for k in range(-1, 13)]:
        hi = lo + width_sd / rate
        with mpmath.workdps(60):
            lam = mpmath.mpf(rate)
            ref = float(mpmath.exp(-lam * mpmath.mpf(lo)) - mpmath.exp(-lam * mpmath.mpf(hi)))
        p = d.interval_prob(SupportInterval(lo, hi))
        assert abs(p - ref) <= 1e-13 * ref, (width_sd, p, ref)
    assert d.interval_prob(SupportInterval(lo, math.inf)) == math.exp(-rate * lo)
    assert d.interval_prob(SupportInterval(-math.inf, -1.0)) == 0.0
    assert d.interval_prob(SupportInterval(-3.0, math.inf)) == 1.0


def _mp_uniform_raw(mpmath, lo, hi, k):
    """E[X**k] of X ~ Uniform(lo, hi)."""
    lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
    if k == -1:
        return (mpmath.log(hi) - mpmath.log(lo)) / (hi - lo)
    return (hi ** (k + 1) - lo ** (k + 1)) / ((k + 1) * (hi - lo))


def _mp_exponential_raw(mpmath, rate, k):
    """E[X**k] of X ~ Exponential(rate)."""
    return mpmath.gamma(k + 1) / mpmath.mpf(rate) ** k


_EXP_POWERS = [-0.45, -0.3, -0.1, -0.01, -0.005, 0.005, 0.01, 0.1, 0.25, 0.5, 1.5, 2.0, 3.0,
               4.5, 7.0, 10.0]
_POWER_MOMENT_CASES = [
    *[(Exponential(rate), r, partial(_mp_exponential_raw, rate=rate))
      for rate in (0.3, 1.0, 5.0) for r in _EXP_POWERS],
    *[(Uniform(lo, hi), r, partial(_mp_uniform_raw, lo=lo, hi=hi))
      for lo, hi in [(0.0, 1.0), (1.0, 3.0), (1e-6, 1.0), (100.0, 101.0)]
      for r in (-3.0, -1.0, -0.5, 0.5, 2.0, 3.0) if lo > 0.0 or r > -0.5],
    # hi**(2r + 1) is subnormal, with 9 digits, though E[X**2r] is not: taken in log space
    (Uniform(5e-11, 1e-10), 15.2, partial(_mp_uniform_raw, lo=5e-11, hi=1e-10)),
]


@pytest.mark.parametrize("d, r, raw", _POWER_MOMENT_CASES,
                         ids=[f"{c[0]!r}**{c[1]:g}" for c in _POWER_MOMENT_CASES])
def test_power_moments_match_mpmath_where_the_closed_form_is_taken(d, r, raw):
    # the closed form is taken exactly where the variance keeps 1e-4 of E[Y**2] (by mpmath), or
    # where the law gives that share without cancelling (an exponential with |r| < 1/8);
    # elsewhere (all of Uniform(100, 101)) Y's moments integrate
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        m1 = raw(mpmath, k=mpmath.mpf(r))
        m2 = raw(mpmath, k=2 * mpmath.mpf(r))
        var = m2 - m1 * m1
        share = float(var / m2)
    closed = d._power_moments(r)
    y = PowerTransform(d, r)
    if closed is None:
        assert share < 1.1e-4, share
        return
    assert share > 0.9e-4 or (isinstance(d, Exponential) and abs(r) < 0.125), share
    assert (y.mean(), y.variance()) == closed
    assert abs(closed[0] - m1) <= 1e-11 * m1, (closed[0], float(m1))
    assert abs(closed[1] - var) <= 1e-11 * var, (closed[1], float(var))


def test_power_moments_are_closed_form_only_on_exponential_and_uniform_laws():
    taken = [case for case in _POWER_MOMENT_CASES if case[0]._power_moments(case[1]) is not None]
    # integrated: every power of Uniform(100, 101)
    assert len(taken) == len(_POWER_MOMENT_CASES) - 6
    custom = CustomPdf(Exponential(1.0).pdf, SupportInterval(0.0, math.inf))
    assert custom._power_moments(2.0) is None
    assert Normal(0.0, 1.0)._power_moments(2.0) is None


_SMALL_POWERS = [sign * a for a in (1e-9, 1e-7, 1e-5, 1e-3, 0.005, 0.0079) for sign in (1.0, -1.0)]


@pytest.mark.parametrize("rate", [0.3, 1.0, 5.0])
@pytest.mark.parametrize("r", _SMALL_POWERS)
def test_small_power_moments_of_an_exponential_match_mpmath(rate, r):
    # E[Y**2] - E[Y]**2 cancels about -log10(1.64 r**2) digits here: 17 at r = 1e-9
    mpmath = pytest.importorskip("mpmath")
    y = PowerTransform(Exponential(rate), r)
    with mpmath.workdps(60):
        m1 = _mp_exponential_raw(mpmath, rate, mpmath.mpf(r))
        var = _mp_exponential_raw(mpmath, rate, 2 * mpmath.mpf(r)) - m1 * m1
        assert abs(y.mean() / m1 - 1) <= 1e-15
        assert abs(y.variance() / var - 1) <= 1e-13, (y.variance(), float(var))


@pytest.mark.parametrize("r", _SMALL_POWERS)
def test_small_power_mean_bounds_of_an_exponential_match_gamma(r):
    # E[X**(2r)] = Gamma(1 + 2r) on Exponential(1); the bracket of y**2 is the point
    # E[Y]**2 + Var Y, rounded, so it is held to a tolerance and not to containment
    mpmath = pytest.importorskip("mpmath")
    pb = power_mean_bounds(Exponential(1.0), r, 2.0 * r)
    with mpmath.workdps(60):
        exact = mpmath.gamma(1 + 2 * mpmath.mpf(r))
        for end in (pb.moment_lower, pb.moment_upper):
            assert abs(end / exact - 1) <= 1e-13, (end, float(exact))


_DIVERGENT_POWERS = [
    *[(Exponential(rate), r, "mean") for rate in (0.3, 1.0, 5.0) for r in (-3.0, -1.5, -1.0)],
    *[(Exponential(rate), r, "variance") for rate in (0.3, 1.0, 5.0)
      for r in (-0.95, -0.9, -0.75, -0.6, -0.5)],
    (Uniform(0.0, 1.0), -3.0, "mean"),
    (Uniform(0.0, 1.0), -1.0, "mean"),
    (Uniform(0.0, 1.0), -0.75, "variance"),
    (Uniform(0.0, 1.0), -0.5, "variance"),
]


@pytest.mark.parametrize("d, r, moment", _DIVERGENT_POWERS,
                         ids=[f"{c[0]!r}**{c[1]:g}" for c in _DIVERGENT_POWERS])
def test_divergent_power_moments_raise_as_the_integrals_do(d, r, moment, monkeypatch):
    with pytest.raises(NumericError, match=f"non-finite {moment}") as closed:
        PowerTransform(d, r)
    monkeypatch.setattr(type(d), "_power_moments", lambda self, r: None)
    with pytest.raises(NumericError) as integrated:
        PowerTransform(d, r)
    assert str(closed.value) == str(integrated.value)
