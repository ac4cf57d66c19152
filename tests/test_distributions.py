"""Distribution layer: moments, cells, cuts, transforms, file ingestion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from jensen_sharp import (
    CustomPdf,
    Discrete,
    DomainError,
    Empirical,
    EmptyCellError,
    Exponential,
    Normal,
    ParameterError,
    SupportInterval,
    TruncatedStats,
    Uniform,
    equal_probability_cuts,
    interval_prob,
    load_samples,
    mean,
    transform_power,
    truncated_stats,
    variance,
)
from _support import population_stats


# ---------------------------------------------------------------------------
# means and variances
# ---------------------------------------------------------------------------


def test_means():
    assert mean(Exponential(1.0)) == 1.0
    assert mean(Uniform(10.0, 100.0)) == 55.0
    assert mean(Empirical([1.0, 2.0, 3.0])) == 2.0
    assert mean(Normal(-1.5, 2.0)) == -1.5


def test_variances():
    assert variance(Exponential(1.0)) == 1.0
    assert variance(Empirical([1.0, 2.0, 3.0])) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert variance(Normal(0.0, 1.0)) == 1.0
    assert variance(Uniform(0.0, 1.0)) == pytest.approx(1.0 / 12.0, rel=1e-15)


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
    assert interval_prob(Normal(0.0, 1.0), tail) == pytest.approx(1.0 / 3.0, abs=1e-3)
    half = SupportInterval(0.0, 0.5, lower_closed=True)
    assert interval_prob(Uniform(0.0, 1.0), half) == 0.5
    cell = SupportInterval(1.0, 3.0, lower_closed=True)
    assert interval_prob(Empirical([1.0, 2.0, 3.0, 4.0]), cell) == 0.5


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
    ts = truncated_stats(d, SupportInterval(0.431, math.inf))
    assert ts.mean == pytest.approx(1.091, abs=1e-3)
    assert ts.variance == pytest.approx(0.280, abs=1e-3)
    mid = truncated_stats(d, SupportInterval(-0.431, 0.431))
    assert mid.mean == pytest.approx(0.0, abs=1e-3)
    assert mid.variance == pytest.approx(0.060, abs=1e-3)


def test_truncated_uniform_half_cell():
    ts = truncated_stats(Uniform(0.0, 1.0), SupportInterval(0.0, 0.5, lower_closed=True))
    assert ts.mean == pytest.approx(0.25, rel=1e-14)
    assert ts.variance == pytest.approx(1.0 / 48.0, rel=1e-14)


def test_truncated_exponential_against_quadrature_oracle():
    from scipy.integrate import quad

    d = Exponential(0.7)
    cell = SupportInterval(0.5, 2.5)
    z, _ = quad(lambda x: 0.7 * math.exp(-0.7 * x), 0.5, 2.5, epsabs=1e-13)
    m, _ = quad(lambda x: x * 0.7 * math.exp(-0.7 * x), 0.5, 2.5, epsabs=1e-13)
    m2, _ = quad(lambda x: x * x * 0.7 * math.exp(-0.7 * x), 0.5, 2.5, epsabs=1e-13)
    ts = truncated_stats(d, cell)
    assert ts.prob == pytest.approx(z, rel=1e-10)
    assert ts.mean == pytest.approx(m / z, rel=1e-10)
    assert ts.variance == pytest.approx(m2 / z - (m / z) ** 2, rel=1e-8)
    # unbounded cell: memorylessness
    up = truncated_stats(d, SupportInterval(1.3, math.inf))
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
        truncated_stats(Uniform(0.0, 1.0), SupportInterval(2.0, 3.0))
    with pytest.raises(EmptyCellError):
        truncated_stats(Empirical([1.0, 2.0]), SupportInterval(5.0, 6.0))


def test_truncated_stats_type_guards():
    with pytest.raises(ParameterError):
        TruncatedStats(prob=0.5, mean=None, variance=None)
    with pytest.raises(ParameterError):
        TruncatedStats(prob=0.0, mean=1.0, variance=1.0)
    with pytest.raises(ParameterError):
        TruncatedStats(prob=0.5, mean=1.0, variance=-0.1)
    undefined = TruncatedStats(prob=0.0, mean=None, variance=None)
    assert not undefined.defined


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
    assert isinstance(y, CustomPdf)
    ey = (2.0**3 - 1.0) / 3.0
    ey2 = (2.0**5 - 1.0) / 5.0
    assert y.mean() == pytest.approx(ey, rel=1e-8)
    assert y.variance() == pytest.approx(ey2 - ey * ey, rel=1e-6)
    # Y = 1/X for X ~ uniform(10, 100): density transported correctly
    inv = transform_power(Uniform(10.0, 100.0), -1.0)
    e_inv = math.log(10.0) / 90.0  # (1/90) * ln(100/10)
    assert inv.mean() == pytest.approx(e_inv, rel=1e-8)
    assert inv.support.lower == pytest.approx(0.01) and inv.support.upper == pytest.approx(0.1)


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


def test_custom_pdf_rejects_unnormalised_density():
    with pytest.raises(ParameterError):
        CustomPdf(pdf=lambda x: 2.0, support_interval=SupportInterval(0.0, 1.0))


def test_custom_pdf_sampling_roughly_matches_law():
    d = CustomPdf(pdf=lambda x: 0.5, support_interval=SupportInterval(0.0, 2.0))
    xs = d.sample(np.random.default_rng(7), 4000)
    assert xs.min() >= 0.0 and xs.max() <= 2.0
    assert float(np.mean(xs)) == pytest.approx(1.0, abs=0.05)


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


def test_degenerate_support_is_rejected_but_law_works():
    d = Empirical([3.0, 3.0, 3.0])
    assert d.mean() == 3.0 and d.variance() == 0.0
    with pytest.raises(ParameterError):
        _ = d.support


def test_normal_cdf_consistency_with_scipy():
    d = Normal(1.0, 2.0)
    for x in (-3.0, 0.0, 1.0, 4.5):
        assert d.cdf(x) == pytest.approx(float(ndtr((x - 1.0) / 2.0)), rel=1e-14)
