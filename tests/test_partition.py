"""Partition refinement: plans, refined bounds, positivity certificates.

The three-cell standard-normal table is verified against an independent
reconstruction from scipy's normal primitives and the closed-form h, kept
deliberately separate from the package's own code paths.
"""

import math

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import norm

from jensen_sharp import (
    Empirical,
    EmptyCellError,
    Exponential,
    Normal,
    ParameterError,
    PartitionPlan,
    SupportInterval,
    Uniform,
    build_partition,
    cell_h_extrema,
    equal_probability_cuts,
    estimate_gap,
    exp_scaled,
    jensen_bounds,
    neg_log,
    partition_bounds,
    positivity_certificate,
    power,
    quadratic,
    transform_power,
)
from _support import assert_brackets


def h_exp(t, x, nu):
    return (math.exp(t * x) - math.exp(t * nu)) / (x - nu) ** 2 - t * math.exp(t * nu) / (x - nu)


def independent_three_cell_lower_bound() -> dict:
    """Reconstruct the standard-normal, phi=e^x, three-cell lower bound
    from scipy primitives and the closed-form h alone."""
    z = float(ndtri(2.0 / 3.0))
    pdf = norm.pdf
    third = 1.0 / 3.0
    mu3 = pdf(z) / third
    mu1, mu2 = -mu3, 0.0
    var3 = 1.0 + z * pdf(z) / third - mu3**2
    var2 = 1.0 - 2.0 * z * pdf(z) / third
    var1 = var3
    inf1 = 0.0  # limit of h toward -inf
    inf2 = h_exp(1.0, -z, mu2)
    inf3 = h_exp(1.0, z, mu3)
    sup1 = h_exp(1.0, -z, mu1)
    sup2 = h_exp(1.0, z, mu2)
    var_y = (mu1**2 + mu2**2 + mu3**2) / 3.0
    coarse = h_exp(1.0, mu1, 0.0) * var_y
    lower = coarse + third * (inf1 * var1 + inf2 * var2 + inf3 * var3)
    return {
        "z": z,
        "means": (mu1, mu2, mu3),
        "variances": (var1, var2, var3),
        "infs": (inf1, inf2, inf3),
        "sups": (sup1, sup2, math.inf),
        "lower": lower,
    }


# ---------------------------------------------------------------------------
# building plans
# ---------------------------------------------------------------------------


def test_three_cell_normal_plan_matches_independent_reconstruction():
    ref = independent_three_cell_lower_bound()
    d = Normal(0.0, 1.0)
    cuts = equal_probability_cuts(d, 3)
    assert cuts == pytest.approx([-ref["z"], ref["z"]], abs=1e-12)
    plan = build_partition(d, cuts)
    assert plan.m == 3
    for (cell, ts), mu_ref, var_ref in zip(plan.cells, ref["means"], ref["variances"]):
        assert ts.prob == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert ts.mean == pytest.approx(mu_ref, abs=1e-10)
        assert ts.variance == pytest.approx(var_ref, abs=1e-10)
    # and the published rounded table values
    assert [ts.mean for _, ts in plan.cells] == pytest.approx([-1.091, 0.0, 1.091], abs=1e-3)
    assert [ts.variance for _, ts in plan.cells] == pytest.approx([0.280, 0.060, 0.280], abs=1e-3)


def test_empty_cuts_single_cell_plan():
    d = Exponential(1.0)
    plan = build_partition(d, [])
    assert plan.m == 1
    assert plan.cuts == (0.0, math.inf)
    cell, ts = plan.cells[0]
    assert ts.prob == 1.0
    assert ts.mean == pytest.approx(1.0, rel=1e-12)
    assert plan.coarse.variance() == 0.0


def test_uniform_half_split():
    plan = build_partition(Uniform(0.0, 1.0), [0.5])
    (c1, t1), (c2, t2) = plan.cells
    assert t1.prob == pytest.approx(0.5) and t2.prob == pytest.approx(0.5)
    assert t1.mean == pytest.approx(0.25) and t2.mean == pytest.approx(0.75)
    assert t1.variance == pytest.approx(1.0 / 48.0, rel=1e-12)
    assert t2.variance == pytest.approx(1.0 / 48.0, rel=1e-12)
    assert str(c1) == "(0, 0.5)" and str(c2) == "[0.5, 1)"


def test_cell_flag_layout_on_empirical_support():
    d = Empirical([1.0, 2.0, 3.0, 4.0])
    plan = build_partition(d, [3.0])
    (c1, t1), (c2, t2) = plan.cells
    assert c1.lower_closed and not c1.upper_closed
    assert c2.lower_closed and c2.upper_closed
    assert t1.prob == 0.5 and t2.prob == 0.5  # {1,2} and {3,4}
    assert t1.mean == 1.5 and t2.mean == 3.5


def test_build_partition_validation():
    d = Normal(0.0, 1.0)
    with pytest.raises(ParameterError):
        build_partition(d, [1.0, 1.0])
    with pytest.raises(ParameterError):
        build_partition(d, [2.0, 1.0])
    with pytest.raises(ParameterError):
        build_partition(Uniform(0.0, 1.0), [2.0])
    with pytest.raises(EmptyCellError, match=r"\[1.5, 1.6\)"):
        build_partition(Empirical([1.0, 2.0, 3.0, 4.0]), [1.5, 1.6])


@pytest.mark.parametrize(
    "d",
    [Exponential(1.3), Uniform(1.0, 2.0), transform_power(Uniform(1.0, 2.0), 2.0)],
    ids=["exponential", "uniform", "custom-pdf"],
)
def test_build_partition_asks_each_cell_for_its_mass_once(d, monkeypatch):
    cuts = equal_probability_cuts(d, 4)
    calls = []
    law = type(d)
    original = law.interval_prob

    def counting(self, cell):
        calls.append(cell)
        return original(self, cell)

    monkeypatch.setattr(law, "interval_prob", counting)
    plan = build_partition(d, cuts)
    assert len(calls) == plan.m


def test_plan_coarse_mean_matches_source():
    for d in (Normal(0.7, 1.4), Exponential(0.6), Uniform(2.0, 11.0)):
        plan = build_partition(d, equal_probability_cuts(d, 4))
        assert plan.coarse.mean() == pytest.approx(d.mean(), abs=1e-10)
        assert math.fsum(ts.prob for _, ts in plan.cells) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize(
    "d",
    [Normal(0.7, 1.4), Exponential(0.6), Uniform(2.0, 11.0), Empirical(np.linspace(5.0, 25.0, 17))],
    ids=["normal", "exponential", "uniform", "empirical"],
)
def test_plan_derives_its_cuts_and_coarse_law_from_its_cells(d):
    cuts = equal_probability_cuts(d, 4)
    plan = build_partition(d, cuts)
    support = d.support
    assert plan.cuts == (support.lower, *cuts, support.upper)
    again = PartitionPlan(cells=plan.cells, source=d)
    assert again.cuts == plan.cuts
    assert again.coarse.points.tobytes() == plan.coarse.points.tobytes()
    assert again.coarse.probs.tobytes() == plan.coarse.probs.tobytes()
    assert list(again.coarse.points) == [ts.mean for _, ts in plan.cells]
    assert list(again.coarse.probs) == [ts.prob for _, ts in plan.cells]


def test_plan_refuses_cells_that_do_not_adjoin_in_order():
    d = Normal(0.0, 1.0)
    plan = build_partition(d, equal_probability_cuts(d, 3))
    with pytest.raises(ParameterError, match="adjoin"):
        PartitionPlan(cells=plan.cells[::-1], source=d)
    with pytest.raises(ParameterError, match="adjoin"):
        PartitionPlan(cells=(plan.cells[0], plan.cells[2]), source=d)


# ---------------------------------------------------------------------------
# partition bounds
# ---------------------------------------------------------------------------


def test_three_cell_normal_refined_lower_bound():
    ref = independent_three_cell_lower_bound()
    f = exp_scaled(1.0)
    d = Normal(0.0, 1.0)
    plan = build_partition(d, equal_probability_cuts(d, 3))
    per_cell = cell_h_extrema(f, plan)
    for (inf_ev, sup_ev), inf_ref, sup_ref in zip(per_cell, ref["infs"], ref["sups"]):
        assert inf_ev.value == pytest.approx(inf_ref, abs=1e-10)
        if math.isinf(sup_ref):
            assert sup_ev.value == math.inf
        else:
            assert sup_ev.value == pytest.approx(sup_ref, abs=1e-10)
    pb = partition_bounds(f, plan)
    assert pb.lower == pytest.approx(ref["lower"], abs=1e-9)
    assert pb.upper == math.inf
    # the published rounded targets for the table are met at 2e-3 ...
    assert pb.lower == pytest.approx(0.40604, abs=1e-4)
    # ... and the true gap stays inside the refined bounds
    true_gap = math.exp(0.5) - 1.0
    assert pb.lower <= true_gap <= pb.upper


def test_no_cut_plan_reduces_to_single_interval_bounds():
    cases = [
        (exp_scaled(0.5), Exponential(1.0)),
        (exp_scaled(1.0), Normal(0.0, 1.0)),
        (neg_log(), Uniform(10.0, 100.0)),
        (power(-1.0), Empirical(np.linspace(5.0, 25.0, 17))),
        (quadratic(1.0, 0.0, 0.0), Normal(0.0, 2.0)),
    ]
    for f, d in cases:
        pb = partition_bounds(f, build_partition(d, []))
        jb = jensen_bounds(f, d)
        scale = max(1.0, *(abs(v) for v in (jb.lower, jb.upper) if math.isfinite(v)))
        for a, b in ((pb.lower, jb.lower), (pb.upper, jb.upper)):
            if math.isinf(b):
                assert a == b
            else:
                assert abs(a - b) <= 1e-12 * scale


def test_partition_keeps_bracketing_exponential_mgf():
    f = exp_scaled(0.5)
    d = Exponential(1.0)
    plan = build_partition(d, equal_probability_cuts(d, 3))
    pb = partition_bounds(f, plan)
    gap = 2.0 - math.sqrt(math.e)
    assert pb.lower >= 0.0
    assert pb.lower <= gap <= pb.upper
    # no sharpness-monotonicity claim: the refinement may or may not beat
    # the single-interval lower bound, it only has to stay valid


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_partition_bounds_bracket_oracle_across_laws(m):
    cases = [
        (exp_scaled(1.0), Normal(0.0, 1.0)),
        (exp_scaled(-0.5), Uniform(-1.0, 3.0)),
        (neg_log(), Uniform(10.0, 100.0)),
        (power(2.0), Exponential(0.8)),
    ]
    for f, d in cases:
        plan = build_partition(d, equal_probability_cuts(d, m))
        pb = partition_bounds(f, plan)
        est = estimate_gap(f, d, method="quad")
        assert_brackets(est, pb.lower, pb.upper, context=f"{f.label} m={m}")


def test_partition_lower_nonnegative_for_convex_phi():
    d = Normal(0.0, 1.0)
    f = exp_scaled(2.0)
    for m in (2, 4):
        pb = partition_bounds(f, build_partition(d, equal_probability_cuts(d, m)))
        assert pb.lower >= -1e-12


def test_partition_bounds_variance_used_totals_law_variance():
    d = Normal(0.0, 1.0)
    plan = build_partition(d, equal_probability_cuts(d, 3))
    pb = partition_bounds(exp_scaled(1.0), plan)
    assert pb.variance_used == pytest.approx(d.variance(), abs=1e-10)


def test_partition_details_are_none():
    plan = build_partition(Uniform(0.0, 1.0), [0.5])
    pb = partition_bounds(quadratic(1.0, 0.0, 0.0), plan)
    assert pb.lower_detail is None and pb.upper_detail is None
    blob = pb.to_json_dict()
    assert blob["witness_lower"] is None and blob["method"] == "partition"


# ---------------------------------------------------------------------------
# positivity certificate
# ---------------------------------------------------------------------------


def test_partition_of_transformed_law_brackets_oracle():
    # Y = X**2 for X ~ uniform(1, 2): quadrature-backed cells and cuts
    y = transform_power(Uniform(1.0, 2.0), 2.0)
    cuts = equal_probability_cuts(y, 3)
    assert 1.0 < cuts[0] < cuts[1] < 4.0
    plan = build_partition(y, cuts)
    assert math.fsum(ts.prob for _, ts in plan.cells) == pytest.approx(1.0, abs=1e-12)
    f = neg_log()
    pb = partition_bounds(f, plan)
    est = estimate_gap(f, y, method="quad")
    assert_brackets(est, pb.lower, pb.upper, context="neglog x uniform(1,2)^2")


def test_positivity_certificate_examples():
    assert positivity_certificate(exp_scaled(1.0), Normal(0.0, 1.0), SupportInterval(0.0, 1.0))
    linear = quadratic(0.0, 1.0, 0.0)
    assert not positivity_certificate(linear, Normal(0.0, 1.0), SupportInterval(0.0, 1.0))


def test_positivity_certificate_zero_probability_window():
    assert not positivity_certificate(
        exp_scaled(1.0), Uniform(0.0, 1.0), SupportInterval(2.0, 3.0)
    )


@pytest.mark.parametrize(
    "d, window",
    [
        (Exponential(1.3), SupportInterval(0.2, 1.5)),
        (Uniform(1.0, 2.0), SupportInterval(1.2, 1.7)),
        (transform_power(Uniform(1.0, 2.0), 2.0), SupportInterval(1.5, 3.0)),
    ],
    ids=["exponential", "uniform", "custom-pdf"],
)
def test_positivity_certificate_asks_its_window_for_its_mass_once(d, window, monkeypatch):
    calls = []
    law = type(d)
    original = law.interval_prob

    def counting(self, cell):
        calls.append(cell)
        return original(self, cell)

    monkeypatch.setattr(law, "interval_prob", counting)
    assert positivity_certificate(exp_scaled(1.0), d, window)
    assert calls == [window]


def test_positivity_certificate_constant_cell():
    # within the window the sample never varies: conditional variance 0
    d = Empirical([2.0, 2.0, 5.0])
    window = SupportInterval(1.5, 3.0, lower_closed=True)
    assert not positivity_certificate(exp_scaled(1.0), d, window)
    # the spread-out window does certify
    wide = SupportInterval(1.5, 6.0, lower_closed=True)
    assert positivity_certificate(exp_scaled(1.0), d, wide)


def test_positivity_certificate_implies_positive_gap():
    f = exp_scaled(1.0)
    d = Normal(0.0, 1.0)
    window = SupportInterval(-0.5, 0.5)
    assert positivity_certificate(f, d, window)
    est = estimate_gap(f, d, method="quad")
    assert est.value > 3.0 * est.error_bound
