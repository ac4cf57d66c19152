"""Gap oracle: quadrature, exact summation, Monte Carlo, conditionals."""

import math
import sys
import threading
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest

from jensen_sharp import (
    CustomPdf,
    Discrete,
    DomainError,
    Empirical,
    EmptyCellError,
    Exponential,
    FunctionSpec,
    GapEstimate,
    JensenSharpError,
    Normal,
    NumericError,
    OracleMethod,
    ParameterError,
    SupportInterval,
    Uniform,
    build_partition,
    equal_probability_cuts,
    estimate_conditional_gap,
    estimate_gap,
    exp_scaled,
    neg_log,
    power,
    quadratic,
    transform_power,
)
from jensen_sharp.oracle import _EPS, _MC_AHEAD, _MC_BLOCK, _phi_of_mean
from _support import masked_expect, masked_prob


def test_mgf_exponential_reference_value():
    est = estimate_gap(exp_scaled(0.5), Exponential(1.0), method="quad")
    assert est.method is OracleMethod.QUADRATURE
    assert est.value == pytest.approx(2.0 - math.sqrt(math.e), abs=1e-8)
    assert est.error_bound < 1e-6


def test_lognormal_mean_gap_reference_value():
    est = estimate_gap(exp_scaled(1.0), Normal(0.0, 1.0), method="quad")
    assert est.value == pytest.approx(math.exp(0.5) - 1.0, abs=1e-8)


@pytest.mark.parametrize(
    "d",
    [Normal(0.3, 1.2), Exponential(0.9), Uniform(-2.0, 5.0), Empirical([1.0, 2.5, 4.0, 8.0])],
    ids=["normal", "exponential", "uniform", "empirical"],
)
def test_quadratic_gap_equals_variance(d):
    est = estimate_gap(quadratic(1.0, -2.0, 0.7), d)
    assert est.value == pytest.approx(d.variance(), abs=1e-10)


def test_empirical_exact_sum():
    xs = [1.0, 2.0, 3.0]
    est = estimate_gap(neg_log(), Empirical(xs))
    direct = math.fsum(-math.log(x) for x in xs) / 3.0 + math.log(2.0)
    assert est.method is OracleMethod.EXACT_SUM
    assert est.value == pytest.approx(direct, rel=1e-14)
    assert est.error_bound <= 1e-12 * max(1.0, abs(direct))


def test_discrete_exact_sum():
    d = Discrete([1.0, 2.0, 4.0], [0.5, 0.25, 0.25])
    est = estimate_gap(power(2.0), d)
    e2 = 0.5 * 1.0 + 0.25 * 4.0 + 0.25 * 16.0
    assert est.value == pytest.approx(e2 - d.mean() ** 2, rel=1e-14)


def test_divergent_mgf_reports_infinity():
    assert estimate_gap(exp_scaled(1.0), Exponential(1.0), method="quad").value == math.inf
    assert estimate_gap(exp_scaled(2.0), Exponential(1.0), method="quad").value == math.inf
    est = estimate_gap(power(-2.0), Exponential(1.0), method="quad")
    assert est.value == math.inf  # E[X^-2] blows up at the origin
    assert est.error_bound == 0.0


def test_convergent_cases_near_divergence_stay_finite():
    est = estimate_gap(exp_scaled(0.9), Exponential(1.0), method="quad")
    true_gap = 1.0 / (1.0 - 0.9) - math.exp(0.9)  # MGF of exponential: 1/(1 - t)
    assert est.value == pytest.approx(true_gap, rel=1e-6)


def test_monte_carlo_determinism_and_seed_sensitivity():
    f, d = exp_scaled(0.5), Exponential(1.0)
    a = estimate_gap(f, d, budget=20_000, method="mc", seed=123)
    b = estimate_gap(f, d, budget=20_000, method="mc", seed=123)
    c = estimate_gap(f, d, budget=20_000, method="mc", seed=124)
    assert a.value == b.value and a.error_bound == b.error_bound
    assert a.value != c.value
    assert a.method is OracleMethod.MONTE_CARLO
    assert a.mc_seed == 123 and a.mc_samples == 20_000
    # the estimate agrees with the truth within its own reported band
    assert abs(a.value - (2.0 - math.sqrt(math.e))) <= a.error_bound


def test_monte_carlo_error_scales_like_inverse_sqrt_n():
    f, d = exp_scaled(0.5), Exponential(1.0)
    errs = [
        estimate_gap(f, d, budget=n, method="mc", seed=7).error_bound
        for n in (10_000, 100_000, 1_000_000)
    ]
    root10 = math.sqrt(10.0)
    for bigger, smaller in zip(errs, errs[1:]):
        ratio = bigger / smaller
        assert root10 / 2.0 <= ratio <= root10 * 2.0


@pytest.mark.parametrize(
    "f, r, truth",
    [
        (neg_log(), 2.0, 2.0 * 0.5772156649015329 + math.lgamma(3.0)),
        (neg_log(), 3.0, 3.0 * 0.5772156649015329 + math.lgamma(4.0)),
        (power(0.5), 2.0, 1.0 - math.sqrt(2.0)),
    ],
    ids=["neglog-r2", "neglog-r3", "power0.5-r2"],
)
def test_monte_carlo_on_a_power_transform_lands_within_its_error_bound(f, r, truth):
    # Y = X**r with X ~ Exponential(1): the draws are X's draws raised to r,
    # so the singular density of Y near 0 costs nothing
    est = estimate_gap(f, transform_power(Exponential(1.0), r), budget=200_000, method="mc", seed=1)
    assert abs(est.value - truth) <= 3.0 * est.error_bound


def test_mc_default_seed_is_applied():
    f, d = quadratic(1.0, 0.0, 0.0), Uniform(0.0, 1.0)
    a = estimate_gap(f, d, budget=5_000, method="mc")
    b = estimate_gap(f, d, budget=5_000, method="mc", seed=42)
    assert a.value == b.value


def test_domain_mismatch_raises():
    with pytest.raises(DomainError):
        estimate_gap(neg_log(), Normal(0.0, 1.0))


def test_gap_estimate_validation():
    with pytest.raises(NumericError):
        GapEstimate(math.nan, 0.0, OracleMethod.QUADRATURE)
    with pytest.raises(NumericError):
        GapEstimate(1.0, math.inf, OracleMethod.QUADRATURE)
    blob = GapEstimate(math.inf, 0.0, OracleMethod.QUADRATURE).to_json_dict()
    assert blob["value"] == "inf"
    mc = GapEstimate(0.5, 0.1, OracleMethod.MONTE_CARLO, mc_seed=9, mc_samples=100)
    assert mc.to_json_dict()["method"] == "monte-carlo(n=100,seed=9)"


def test_unknown_method_rejected():
    with pytest.raises(ParameterError):
        estimate_gap(quadratic(1.0), Uniform(0.0, 1.0), method="dice")


def test_exact_summation_refuses_a_law_without_atoms():
    with pytest.raises(ParameterError, match="exact summation needs a law with atoms"):
        estimate_gap(quadratic(1.0), Uniform(0.0, 1.0), method="exact")


def test_monte_carlo_refuses_a_budget_of_one_draw():
    with pytest.raises(ParameterError, match="at least 2 samples, got 1"):
        estimate_gap(quadratic(1.0), Uniform(0.0, 1.0), budget=1, method="mc")


# the grid holds the narrow and off-centre normals that one whole-line QUADPACK
# pass never sampled: it read quadratic(1) on N(100, 1) as -10000, on N(5, 0.01)
# as -25 and on N(20, 0.5) as -400, and exp(0.5) on N(100, 1) as -5.18e21
_NORMAL_GRID = [(mu, sigma) for mu in (-100.0, 0.0, 5.0, 20.0, 100.0)
                for sigma in (0.01, 0.5, 1.0, 10.0)]
_CLOSED_FORM_GAPS = {
    "quadratic(1)": (quadratic(1.0), lambda mu, sigma: sigma * sigma),
    "quadratic(2.5)": (quadratic(2.5, -1.0, 0.3), lambda mu, sigma: 2.5 * sigma * sigma),
    # e^{t mu} (e^{t^2 sigma^2 / 2} - 1), at most 1.4e27 on the grid
    "exp(0.5)": (exp_scaled(0.5),
                 lambda mu, sigma: math.exp(0.5 * mu) * math.expm1(0.125 * sigma * sigma)),
    "exp(-0.2)": (exp_scaled(-0.2),
                  lambda mu, sigma: math.exp(-0.2 * mu) * math.expm1(0.02 * sigma * sigma)),
}


@pytest.mark.parametrize("name", _CLOSED_FORM_GAPS)
@pytest.mark.parametrize("mu, sigma", _NORMAL_GRID, ids=[f"N({m:g},{s:g})" for m, s in _NORMAL_GRID])
def test_quadrature_oracle_lands_within_its_bound_of_the_closed_form(name, mu, sigma):
    f, gap = _CLOSED_FORM_GAPS[name]
    est = estimate_gap(f, Normal(mu, sigma), method="quad")
    truth = gap(mu, sigma)
    assert abs(est.value - truth) <= est.error_bound, (est.value, truth, est.error_bound)


def _mp_exponential_power_gap(mpmath, r: float, rate: float, p: float) -> float:
    """E[Y**p] - E[Y]**p for Y = X**r, X ~ Exponential(rate), with E[X**k] = Gamma(k + 1) / rate**k;
    +inf where E[Y**p] diverges at 0 (r p <= -1)."""
    if r * p <= -1.0:
        return math.inf
    with mpmath.workdps(40):
        raw = lambda k: mpmath.gamma(k + 1) / mpmath.mpf(rate) ** k
        return float(raw(mpmath.mpf(r) * p) - raw(mpmath.mpf(r)) ** p)


_EXPONENTIAL_POWER_GAPS = [(r, rate, p) for r in (0.5, 2.0, 3.0, 4.0) for rate in (0.5, 1.0, 2.0)
                           for p in (-0.5, 0.5, 1.5, 2.0)]


@pytest.mark.parametrize("r, rate, p", _EXPONENTIAL_POWER_GAPS)
def test_quadrature_oracle_on_an_exponential_power_lands_within_its_bound(r, rate, p):
    mpmath = pytest.importorskip("mpmath")
    truth = _mp_exponential_power_gap(mpmath, r, rate, p)
    est = estimate_gap(power(p), transform_power(Exponential(rate), r), method="quad")
    if truth == math.inf:
        assert est.value == math.inf
    else:
        assert abs(est.value - truth) <= est.error_bound, (est.value, truth, est.error_bound)


def _mp_mgf_gap(mpmath, d, t: float) -> float:
    """E[e**(tX)] - e**(t E[X]) on an exponential or uniform law."""
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        if isinstance(d, Exponential):
            rate = mpmath.mpf(d.rate)
            return float(rate / (rate - t) - mpmath.exp(t / rate))
        lo, hi = mpmath.mpf(d.lo), mpmath.mpf(d.hi)
        return float((mpmath.exp(t * hi) - mpmath.exp(t * lo)) / (t * (hi - lo))
                     - mpmath.exp(t * (lo + hi) / 2))


_MGF_GAPS = [
    *[(Exponential(rate), share * rate) for rate in (0.5, 1.0, 2.0)
      for share in (-2.0, -0.5, 0.25, 0.5, 0.75, 0.9)],
    *[(Uniform(lo, hi), t) for lo, hi in [(0.0, 1.0), (1.0, 3.0), (-2.0, 5.0)]
      for t in (-2.0, -0.5, 0.5, 1.0, 3.0)],
]


@pytest.mark.parametrize("d, t", _MGF_GAPS, ids=[f"{d!r}-t={t:g}" for d, t in _MGF_GAPS])
def test_quadrature_oracle_on_an_mgf_gap_lands_within_its_bound(d, t):
    mpmath = pytest.importorskip("mpmath")
    truth = _mp_mgf_gap(mpmath, d, t)
    est = estimate_gap(exp_scaled(t), d, method="quad")
    assert abs(est.value - truth) <= est.error_bound, (est.value, truth, est.error_bound)


def test_a_gap_whose_expectation_does_not_exist_is_refused():
    # E[X**3] diverges to -inf and +inf on a Student-t(3) law, whose mean and
    # variance exist; a whole-line pass cancelled the two tails to a trusted 0.0
    c = 2.0 / (math.pi * math.sqrt(3.0))
    t3 = CustomPdf(lambda x: c / (1.0 + x * x / 3.0) ** 2, SupportInterval(-math.inf, math.inf))
    assert t3.mean() == pytest.approx(0.0, abs=1e-12)
    assert t3.variance() == pytest.approx(3.0, rel=1e-9)
    cube = FunctionSpec(
        func=lambda x: x**3,
        deriv1=lambda x: 3.0 * x**2,
        deriv2=lambda x: 6.0 * x,
        natural_domain=SupportInterval(-math.inf, math.inf),
        label="cube",
    )
    with pytest.raises(NumericError, match="\\+inf on one side and -inf on the other"):
        estimate_gap(cube, t3, method="quad")


# ---------------------------------------------------------------------------
# conditional gaps
# ---------------------------------------------------------------------------


def test_conditional_full_support_matches_full_gap():
    f, d = exp_scaled(1.0), Normal(0.0, 1.0)
    full = estimate_gap(f, d, method="quad")
    cond = estimate_conditional_gap(f, d, SupportInterval(-math.inf, math.inf))
    assert cond.value == pytest.approx(full.value, abs=1e-7)


def _right_normal_cell_gap(z: float) -> float:
    """Closed form of E[e^X | X > z] - e^{E[X | X > z]} for a standard normal X."""
    from scipy.stats import norm

    eta = 1.0 - norm.cdf(z)
    e_phi = math.exp(0.5) * (1.0 - norm.cdf(z - 1.0)) / eta
    return e_phi - math.exp(norm.pdf(z) / eta)


def test_conditional_gap_right_normal_cell_exceeds_its_lower_bound():
    # cell (0.431, inf): published per-cell h infimum 1.209, variance 0.280
    f, d = exp_scaled(1.0), Normal(0.0, 1.0)
    est = estimate_conditional_gap(f, d, SupportInterval(0.431, math.inf))
    assert est.value >= 1.209 * 0.280 - 2e-3
    assert est.value == pytest.approx(_right_normal_cell_gap(0.431), abs=1e-7)


@pytest.mark.parametrize("a", [5.0, 7.0, 9.0])
def test_conditional_gap_on_a_far_normal_tail_keeps_a_tight_bound(a):
    # the cell's mass is 3e-7 to 1e-19: integrating g / p keeps QUADPACK's absolute
    # tolerance at the scale of E[X**2 | X > a], about a**2; integrating g alone
    # left error bounds of 6e-5 at a = 5 and 0.08 at a = 7
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        lam = mpmath.npdf(a) / mpmath.ncdf(-a)
        var = float(1 + a * lam - lam * lam)
    est = estimate_conditional_gap(quadratic(1.0), Normal(0.0, 1.0), SupportInterval(a, math.inf))
    assert est.error_bound < 1e-7 * a * a
    assert abs(est.value - var) <= 3.0 * est.error_bound + 1e-14


def test_conditional_monte_carlo_keeps_the_draws_in_the_cell():
    cell = SupportInterval(0.431, math.inf)
    est = estimate_conditional_gap(exp_scaled(1.0), Normal(0.0, 1.0), cell, method="mc", seed=3)
    assert est.method is OracleMethod.MONTE_CARLO
    # about a third of the million draws of X land in the cell
    assert 320_000 < est.mc_samples < 346_000
    assert abs(est.value - _right_normal_cell_gap(0.431)) <= est.error_bound


def test_conditional_monte_carlo_needs_two_draws_in_the_cell():
    with pytest.raises(ParameterError, match="2 draws"):
        estimate_conditional_gap(
            exp_scaled(1.0), Normal(0.0, 1.0), SupportInterval(6.0, math.inf),
            budget=1000, method="mc",
        )


def test_conditional_neglog_uniform_cell_matches_antiderivative():
    f, d = neg_log(), Uniform(10.0, 100.0)
    cell = SupportInterval(10.0, 55.0, lower_closed=True)
    est = estimate_conditional_gap(f, d, cell)
    # E[-log X | cell] from the antiderivative x log x - x, mean is 32.5
    e_log = ((55.0 * math.log(55.0) - 55.0) - (10.0 * math.log(10.0) - 10.0)) / 45.0
    expected = -e_log + math.log(32.5)
    assert est.value == pytest.approx(expected, abs=1e-7)


def test_conditional_on_empirical_restricts_sample(pinned_sample):
    d = Empirical(pinned_sample)
    cell = SupportInterval(20.0, 60.0, lower_closed=True)
    est = estimate_conditional_gap(neg_log(), d, cell)
    sub = pinned_sample[(pinned_sample >= 20.0) & (pinned_sample < 60.0)]
    direct = math.fsum(-math.log(x) for x in sub) / sub.size + math.log(
        math.fsum(sub) / sub.size
    )
    assert est.value == pytest.approx(direct, rel=1e-12)


def test_the_exact_conditional_oracle_sorts_a_sample_once_and_keeps_the_mask_bits(monkeypatch):
    xs = np.random.default_rng(8).lognormal(0.0, 1.0, 3000)  # cells of over 512 atoms: vector sums
    cells = [SupportInterval(0.5, 2.0, lower_closed=True), SupportInterval(1.0, math.inf)]
    monkeypatch.setattr(Empirical, "expect", masked_expect)
    monkeypatch.setattr(Empirical, "interval_prob", masked_prob)
    ref = [estimate_conditional_gap(neg_log(), Empirical(xs), c, method="exact") for c in cells]
    monkeypatch.undo()
    sorts, masks = [], []
    sort, contains = np.sort, SupportInterval.contains

    def counting_sort(a, *args, **kwargs):
        sorts.append(a.size)
        return sort(a, *args, **kwargs)

    def counting_contains(c, x):
        if np.ndim(x):
            masks.append(np.size(x))
        return contains(c, x)

    monkeypatch.setattr(np, "sort", counting_sort)
    monkeypatch.setattr(SupportInterval, "contains", counting_contains)
    d = Empirical(xs)
    est = [estimate_conditional_gap(neg_log(), d, c, method="exact") for c in cells]
    assert sorts == [xs.size]
    assert masks == []
    assert [(e.value.hex(), e.error_bound.hex()) for e in est] == [
        (e.value.hex(), e.error_bound.hex()) for e in ref
    ]


def test_conditional_on_discrete_keeps_the_atoms_in_the_cell():
    # atoms 2 and 4 with weights 4/7 and 3/7: variance 64/7 - (20/7)**2 = 48/49
    d = Discrete([1.0, 2.0, 4.0, 7.0], [0.1, 0.4, 0.3, 0.2])
    est = estimate_conditional_gap(quadratic(1.0), d, SupportInterval(1.5, 5.0, lower_closed=True))
    assert est.method is OracleMethod.EXACT_SUM
    assert abs(est.value - 48.0 / 49.0) <= est.error_bound


def test_monte_carlo_on_discrete_lands_within_its_error_bound():
    d = Discrete([1.0, 2.0, 4.0, 7.0], [0.1, 0.4, 0.3, 0.2])  # variance 16.3 - 3.5**2 = 4.05
    est = estimate_gap(quadratic(1.0), d, budget=200_000, method="mc", seed=1)
    assert est.method is OracleMethod.MONTE_CARLO
    assert abs(est.value - 4.05) <= est.error_bound


def test_scalar_only_phi_takes_the_scalar_fallback():
    """A phi written with math functions does not broadcast and is applied point by point."""
    scalar = FunctionSpec(
        func=lambda x: math.exp(0.5 * x),
        deriv1=lambda x: 0.5 * math.exp(0.5 * x),
        deriv2=lambda x: 0.25 * math.exp(0.5 * x),
        natural_domain=SupportInterval(-math.inf, math.inf),
    )
    with pytest.raises(TypeError):
        scalar.func(np.array([0.0, 1.0]))
    atoms = Empirical(np.random.default_rng(3).normal(size=500))
    for d, kwargs in ((atoms, {}), (atoms, {"method": "mc", "budget": 5000, "seed": 2}),
                      (Normal(0.0, 1.0), {"method": "mc", "budget": 5000, "seed": 2})):
        assert estimate_gap(scalar, d, **kwargs) == estimate_gap(exp_scaled(0.5), d, **kwargs)
    est = estimate_gap(scalar, Normal(0.0, 1.0), method="quad")
    assert abs(est.value - math.expm1(0.125)) <= est.error_bound


def test_conditional_single_sample_cell():
    d = Empirical([1.0, 5.0, 9.0])
    est = estimate_conditional_gap(quadratic(1.0), d, SupportInterval(4.0, 6.0))
    assert est.value == 0.0  # one atom: zero conditional gap


def test_conditional_zero_probability_cell_raises():
    from jensen_sharp import EmptyCellError

    with pytest.raises(EmptyCellError):
        estimate_conditional_gap(quadratic(1.0), Uniform(0.0, 1.0), SupportInterval(3.0, 4.0))


def test_gap_decomposes_over_partition_cells():
    # total expectation: sum_j eta_j (conditional gap + phi(mu_j)) - phi(mu)
    # must equal the full gap within the combined error bounds
    for f, d in ((exp_scaled(1.0), Normal(0.0, 1.0)), (neg_log(), Uniform(10.0, 100.0))):
        plan = build_partition(d, equal_probability_cuts(d, 3))
        full = estimate_gap(f, d, method="quad")
        total = 0.0
        err = full.error_bound
        for cell, ts in plan.cells:
            cond = estimate_conditional_gap(f, d, cell)
            total += ts.prob * (cond.value + float(f.func(ts.mean)))
            err += ts.prob * cond.error_bound
        recomposed = total - float(f.func(d.mean()))
        assert abs(recomposed - full.value) <= err + 1e-9 * max(1.0, abs(full.value))


# ---------------------------------------------------------------------------
# one estimate path for laws with atoms and for densities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "d", [Empirical([-1.0, 0.5, 2.0]), Discrete([-1.0, 0.5, 2.0], [1 / 3, 1 / 3, 1 / 3])],
    ids=["empirical", "discrete"],
)
def test_conditional_domain_check_sees_only_the_atoms_in_the_cell(d):
    # the cell reaches below 0, where -log is undefined, but its atoms are 0.5 and 2
    est = estimate_conditional_gap(neg_log(), d, SupportInterval(-0.5, 3.0))
    assert abs(est.value - math.log(1.25)) <= est.error_bound
    with pytest.raises(DomainError):
        estimate_conditional_gap(neg_log(), d, SupportInterval(-1.5, 3.0))


_ONE_ATOM_FUNCS = [exp_scaled(1.0), exp_scaled(3.0), neg_log(), power(-1.0), power(3.0)]


def _one_atom_cells(n: int, seed: int):
    """Laws with atoms and cells that hold one of their atoms, v, which may repeat."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        v = float(10.0 ** rng.uniform(-2.0, 1.5))
        cell = SupportInterval(v * rng.uniform(0.2, 0.9), v * rng.uniform(1.1, 3.0))
        out = [v * rng.uniform(0.01, 0.19), v * rng.uniform(3.1, 9.0)]
        if rng.random() < 0.5:
            yield Empirical([v] * int(rng.integers(1, 5)) + out), cell
        else:
            w = rng.dirichlet(np.ones(3))
            yield Discrete([out[0], v, out[1]], w / math.fsum(w)), cell


@pytest.mark.parametrize("method", ["exact", "mc"])
def test_one_atom_cells_land_within_their_bound_of_zero(method):
    # the gap of one atom is 0; the estimate's bound must cover the rounding of the
    # cell's mass and mean and, for Monte Carlo, of the mean of equal draws
    misses = []
    for d, cell in _one_atom_cells(200, 11):
        for f in _ONE_ATOM_FUNCS:
            est = estimate_conditional_gap(f, d, cell, budget=500, method=method, seed=4)
            if not abs(est.value) <= est.error_bound:
                misses.append((f.label, d, cell, est))
    assert misses == []


@pytest.mark.parametrize(
    "d", [Discrete([5.0], [1.0]), Empirical([5.0] * 3)], ids=["discrete", "empirical"]
)
@pytest.mark.parametrize("f", _ONE_ATOM_FUNCS, ids=lambda f: f.label)
def test_monte_carlo_on_a_constant_law_lands_within_its_bound_of_zero(f, d):
    est = estimate_gap(f, d, budget=1000, method="mc", seed=1)
    assert abs(est.value) <= est.error_bound


_AGREEMENT_FUNCS = [exp_scaled(1.0), neg_log(), power(-1.0), power(0.5), quadratic(1.0, -2.0, 0.5)]


def _restricted_law_gap(f, d, cell):
    """The conditional gap as an exact sum over a new law of the atoms in the cell."""
    xs = d.samples if isinstance(d, Empirical) else d.points
    inside = np.array([cell.contains(x) for x in xs], dtype=bool)
    if isinstance(d, Empirical):
        if not inside.any():
            raise EmptyCellError(f"no atom in {cell}")
        sub = xs[inside]
        law = Discrete([sub[0]], [1.0]) if np.unique(sub).size == 1 else Empirical(sub)
    else:
        p = math.fsum(d.probs[inside])
        if p <= 0.0:
            raise EmptyCellError(f"no mass in {cell}")
        law = Discrete(xs[inside], d.probs[inside] / p)
    return estimate_gap(f, law, method="exact")


def _atom_law_cells(n: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        k = int(rng.integers(2, 9))
        xs = rng.normal(rng.uniform(-1.0, 4.0), rng.uniform(0.3, 3.0), k)
        xs = np.round(xs, int(rng.integers(1, 4)))
        if rng.random() < 0.5:
            d = Empirical(np.concatenate([xs, xs[: int(rng.integers(0, 3))]]))
        else:
            xs = np.unique(xs)
            w = rng.dirichlet(np.ones(xs.size))
            d = Discrete(xs, w / math.fsum(w))
        a, b = np.sort(rng.uniform(xs.min() - 1.0, xs.max() + 1.0, 2))
        cell = SupportInterval(a, b, bool(rng.random() < 0.5), bool(rng.random() < 0.5))
        yield _AGREEMENT_FUNCS[int(rng.integers(len(_AGREEMENT_FUNCS)))], d, cell


def _outcome(estimate, *args):
    try:
        return estimate(*args)
    except JensenSharpError as exc:
        return type(exc)


def test_conditional_gap_on_atoms_agrees_with_the_restricted_law():
    compared = 0
    for f, d, cell in _atom_law_cells(900, 5):
        ref = _outcome(_restricted_law_gap, f, d, cell)
        est = _outcome(estimate_conditional_gap, f, d, cell)
        if isinstance(ref, type) or isinstance(est, type):
            assert est is ref, (f.label, d, cell)  # both refuse, with the same error
            continue
        compared += 1
        assert abs(est.value - ref.value) <= est.error_bound + ref.error_bound, (f.label, d, cell)
    assert compared >= 500


def test_conditional_monte_carlo_on_discrete_counts_the_draws_in_the_cell():
    d = Discrete([1.0, 2.0, 4.0, 7.0], [0.1, 0.4, 0.3, 0.2])
    cell = SupportInterval(1.5, 5.0, lower_closed=True)
    est = estimate_conditional_gap(quadratic(1.0), d, cell, budget=10_000, method="mc", seed=1)
    draws = d.sample(np.random.default_rng(1), 10_000)
    assert est.mc_samples == np.count_nonzero((draws >= 1.5) & (draws < 5.0))
    assert est.mc_samples < 10_000
    assert abs(est.value - 48.0 / 49.0) <= est.error_bound


_BLOCK_LAWS = [
    Normal(-0.3, 1.7),
    Exponential(1.5),
    Uniform(2.0, 5.0),
    Empirical(np.random.default_rng(5).lognormal(size=300)),
    Discrete([1.0, 2.0, 4.0, 7.0], [0.1, 0.4, 0.3, 0.2]),
    transform_power(Exponential(1.0), 2.5),
]


@pytest.mark.parametrize("block", [_MC_BLOCK, 1001])
@pytest.mark.parametrize("d", _BLOCK_LAWS, ids=lambda d: type(d).__name__)
def test_block_draws_are_the_draws_of_one_call(d, block):
    """The oracle draws in blocks; together they must be what one call with a seed gives."""
    n = 3 * block + 17
    whole = d.sample(np.random.default_rng(11), n)
    rng = np.random.default_rng(11)
    blocks = np.concatenate([d.sample(rng, k) for k in (block, block, block, 17)])
    assert np.array_equal(whole, blocks)


@pytest.mark.parametrize(
    "f, d",
    [(exp_scaled(0.5), Normal(0.0, 1.0)), (quadratic(1.0), Normal(1e4, 1.0)),
     (neg_log(), Exponential(1.5)), (power(2.5), Uniform(1.0, 4.0))],
    ids=["exp-normal", "quad-far-normal", "neglog-exp", "power-uniform"],
)
def test_monte_carlo_sums_the_blocks_and_takes_the_sample_standard_error(f, d):
    n = 2 * _MC_BLOCK + 1234
    est = estimate_gap(f, d, budget=n, method="mc", seed=4)
    rng = np.random.default_rng(4)
    blocks = [f.func(d.sample(rng, min(_MC_BLOCK, n - s))) for s in range(0, n, _MC_BLOCK)]
    e_phi = math.fsum(float(np.sum(b)) for b in blocks) / n
    phimu = float(f.func(d.mean()))
    assert est.value == e_phi - phimu
    assert est.mc_samples == n
    vals = np.concatenate(blocks)
    se = (est.error_bound - 4.0 * _EPS * max(1.0, abs(e_phi), abs(phimu))) / 3.0
    assert se == pytest.approx(float(np.std(vals, ddof=1)) / math.sqrt(n), rel=1e-12)


def _serial_monte_carlo(f, d, n, seed, above=None):
    """E[phi], its standard error and the draw count of a plain loop over the blocks of one
    stream, keeping the draws above ``above`` when given."""
    rng = np.random.default_rng(seed)
    count, sums, squares, shift = 0, [], [], 0.0
    for s in range(0, n, _MC_BLOCK):
        xs = d.sample(rng, min(_MC_BLOCK, n - s))
        if above is not None:
            xs = xs[xs > above]
        vals = f.func(xs)
        total = float(np.sum(vals))
        if not sums:
            shift = total / vals.size
        count += xs.size
        sums.append(total)
        squares.append(float(np.sum(np.square(vals - shift))))
    e_phi = math.fsum(sums) / count
    var = (math.fsum(squares) - count * (e_phi - shift) * (e_phi - shift)) / (count - 1)
    return e_phi, math.sqrt(var / count), count


@pytest.mark.parametrize(
    "d, above", [(d, None) for d in _BLOCK_LAWS] + [(Normal(0.0, 1.0), 0.431)],
    ids=[type(d).__name__ for d in _BLOCK_LAWS] + ["normal-cell"],
)
def test_monte_carlo_is_bit_for_bit_a_serial_loop_on_every_law(d, above):
    """The blocks drawn on the helper thread give the estimate of a loop that draws each
    block just before it is evaluated: the same value, error bound and count."""
    f, n = quadratic(1.0), 2 * _MC_BLOCK + 1234
    e_phi, se, count = _serial_monte_carlo(f, d, n, 9, above)
    if above is None:
        est = estimate_gap(f, d, budget=n, method="mc", seed=9)
        phimu, err_phimu = float(f.func(d.mean())), 0.0
    else:
        cell = SupportInterval(above, math.inf)
        est = estimate_conditional_gap(f, d, cell, budget=n, method="mc", seed=9)
        phimu, err_phimu = _phi_of_mean(f, d, cell, d.interval_prob(cell))
    assert est.value == e_phi - phimu
    assert est.error_bound == 3.0 * se + 4.0 * _EPS * max(1.0, abs(e_phi), abs(phimu)) + err_phimu
    assert est.mc_samples == count


def test_conditional_monte_carlo_counts_the_cell_draws_of_one_call():
    cell = SupportInterval(0.431, math.inf)
    n = 5 * _MC_BLOCK + 99
    est = estimate_conditional_gap(exp_scaled(1.0), Normal(0.0, 1.0), cell, budget=n,
                                   method="mc", seed=3)
    draws = Normal(0.0, 1.0).sample(np.random.default_rng(3), n)
    assert est.mc_samples == np.count_nonzero(draws > 0.431)


def test_too_few_cell_draws_beat_non_finite_phi_values():
    """One draw lands in the cell and phi overflows on it: the count is reported first."""
    n, d = 2 * _MC_BLOCK + 5, Normal(0.0, 1.0)
    draws = np.sort(d.sample(np.random.default_rng(8), n))
    cell = SupportInterval(float(draws[-2]), math.inf)  # open below: only the largest draw
    with pytest.raises(NumericError, match="non-finite phi values"):
        estimate_gap(exp_scaled(800.0), d, budget=n, method="mc", seed=8)
    with pytest.raises(ParameterError, match="got 1 of"):
        estimate_conditional_gap(exp_scaled(800.0), d, cell, budget=n, method="mc", seed=8)


@pytest.mark.parametrize(
    "f, d",
    [(exp_scaled(100.0), Normal(0.0, 1.0)), (exp_scaled(704.0), Uniform(0.0, 1.0))],
    ids=["squares-overflow", "block-sums-total-past-the-range"],
)
def test_finite_phi_values_past_the_float_range_are_refused_as_non_finite(f, d):
    """Every phi value and block sum is finite, but the squares about the mean (e^980) or
    the total of the block sums (62 of about 1e307) are not: a NumericError, not an
    OverflowError from float arithmetic or fsum."""
    with pytest.raises(NumericError, match="non-finite phi values"):
        estimate_gap(f, d, budget=1_000_000, method="mc")


def test_monte_carlo_memory_does_not_grow_with_the_budget():
    tracemalloc.start()
    try:
        estimate_gap(exp_scaled(0.5), Normal(0.0, 1.0), budget=1_000_000, method="mc")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000  # one array of the million draws alone takes 8 MB


@dataclass(frozen=True, eq=False)
class _StoredUniform(Uniform):
    """A uniform law whose sampler hands out writable views of one stored array."""

    store: np.ndarray | None = None

    def sample(self, rng, n):
        start = int(rng.integers(0, self.store.size - n + 1))
        return self.store[start:start + n]


def test_monte_carlo_writes_into_no_array_of_the_caller():
    store = np.random.default_rng(6).uniform(size=3 * _MC_BLOCK)
    kept = store.copy()
    identity = FunctionSpec(func=lambda x: x, deriv1=lambda x: 1.0, deriv2=lambda x: 0.0,
                            natural_domain=SupportInterval(-math.inf, math.inf))
    estimate_gap(identity, _StoredUniform(0.0, 1.0, store), budget=2 * _MC_BLOCK + 7, method="mc")
    assert np.array_equal(store, kept)


@dataclass(frozen=True, eq=False)
class _CountedNormal(Normal):
    """A normal law that records the size of every sample it is asked for."""

    calls: list = field(default_factory=list)

    def sample(self, rng, n):
        self.calls.append(n)
        return super().sample(rng, n)


@dataclass(frozen=True, eq=False)
class _OverflowingNormal(Normal):
    """A law whose sampler overflows to inf on about a quarter of its draws."""

    def sample(self, rng, n):
        return np.exp(1000.0 * super().sample(rng, n))


def _scalar_phi_failing_after(k: int) -> FunctionSpec:
    """x**2, scalar-only, raising a TypeError from its (k+1)-th point on."""
    calls = []

    def func(x):
        if isinstance(x, np.ndarray):
            raise TypeError("scalars only")
        calls.append(x)
        if len(calls) > k:
            raise TypeError("phi gave up")
        return x * x

    return FunctionSpec(func=func, deriv1=lambda x: 2.0 * x, deriv2=lambda x: 2.0,
                        natural_domain=SupportInterval(-math.inf, math.inf))


_UNIFORM_PDF = CustomPdf(pdf=lambda x: 1.0 / 3.0, support_interval=SupportInterval(1.0, 4.0))


@pytest.mark.parametrize(
    "run, error",
    [
        (lambda: estimate_gap(exp_scaled(0.5), Normal(0.0, 1.0), budget=3 * _MC_BLOCK + 5,
                              method="mc"), None),
        (lambda: estimate_gap(exp_scaled(0.5), _UNIFORM_PDF, method="mc"),
         (ParameterError, "has no exact sampler; use the quadrature oracle$")),
        (lambda: estimate_conditional_gap(exp_scaled(1.0), Normal(0.0, 1.0),
                                          SupportInterval(6.0, math.inf),
                                          budget=3 * _MC_BLOCK + 5, method="mc"),
         (ParameterError, "2 draws")),
        (lambda: estimate_gap(exp_scaled(800.0), Normal(0.0, 1.0), budget=3 * _MC_BLOCK + 5,
                              method="mc"), (NumericError, "non-finite phi values")),
        (lambda: estimate_gap(_scalar_phi_failing_after(_MC_BLOCK), Normal(0.0, 1.0),
                              budget=3 * _MC_BLOCK + 5, method="mc"), (TypeError, "gave up")),
    ],
    ids=["returns", "sampler-raises", "too-few-cell-draws", "non-finite", "phi-raises"],
)
def test_monte_carlo_leaves_no_thread_running(run, error):
    before = threading.active_count()
    if error is None:
        run()
    else:
        with pytest.raises(error[0], match=error[1]):
            run()
    assert threading.active_count() == before


def test_a_phi_error_stops_the_drawing_soon():
    """phi raises on the second block of 62: the helper stops drawing within the blocks
    it may hold beyond the two evaluated."""
    d = _CountedNormal(0.0, 1.0)
    with pytest.raises(TypeError, match="gave up"):
        estimate_gap(_scalar_phi_failing_after(_MC_BLOCK), d, budget=1_000_000, method="mc")
    assert 2 <= len(d.calls) <= 2 + _MC_AHEAD


def test_a_sampler_that_overflows_does_not_warn():
    """Draws of inf are refused as non-finite, with no RuntimeWarning from the thread that
    draws them (the test configuration makes such a warning an error)."""
    with pytest.raises(NumericError, match="non-finite phi values"):
        estimate_gap(quadratic(1.0), _OverflowingNormal(0.0, 1.0), budget=3 * _MC_BLOCK,
                     method="mc")


def test_monte_carlo_calls_from_several_threads_keep_their_estimates():
    """Four callers at once, eight threads with their helpers, on a short switch interval:
    each caller gets the estimate its seed gives alone."""
    f, d, n = exp_scaled(0.5), Normal(0.0, 1.0), 3 * _MC_BLOCK + 5
    alone = [estimate_gap(f, d, budget=n, method="mc", seed=s) for s in range(4)]
    got = [[] for _ in alone]

    def run(s):
        for _ in range(3):
            got[s].append(estimate_gap(f, d, budget=n, method="mc", seed=s))

    callers = [threading.Thread(target=run, args=(s,)) for s in range(len(alone))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == [[est] * 3 for est in alone]
