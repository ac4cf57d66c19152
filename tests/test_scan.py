"""The scan's refinement rule: which grid points start a golden-section search."""

import dataclasses
import math

import numpy as np
import pytest

from jensen_sharp import (
    Exponential,
    FunctionSpec,
    Normal,
    Shape,
    SupportInterval,
    Uniform,
    exp_scaled,
    h_extrema,
    neg_log,
    power,
    quadratic,
)
from jensen_sharp import bounds
from jensen_sharp.bounds import (
    GRID_CORE,
    _curvature_objective,
    _h_objective,
    _scan_grid,
    curvature_extrema,
    switch_radius,
)


def test_curvature_scan_finds_the_deeper_of_two_narrow_wells():
    """The deeper well sits midway between grid points, so the grid sees it shallower.

    Refining only the grid's best point would settle in the other well and
    report 0.5, a lower bound above the true infimum 0.4999.
    """
    grid = np.linspace(-1.0, 1.0, GRID_CORE)
    a = grid[150]
    b = 0.5 * (grid[280] + grid[281])
    w = (grid[1] - grid[0]) / 3.0

    def half_d2(x):
        return 1.0 - 0.5 * np.exp(-(((x - a) / w) ** 2)) - 0.5001 * np.exp(-(((x - b) / w) ** 2))

    f = FunctionSpec(
        func=lambda x: x,
        deriv1=lambda x: 1.0 + 0.0 * x,
        deriv2=lambda x: 2.0 * half_d2(x),
        natural_domain=SupportInterval(-math.inf, math.inf),
        label="two-wells",
    )
    assert min(half_d2(grid)) == pytest.approx(0.5, abs=1e-12)  # the grid's best is the shallow well
    inf_ev, _ = curvature_extrema(f, SupportInterval(-1.0, 1.0, True, True), 0.0)
    assert inf_ev.value == pytest.approx(0.4999, abs=1e-8)
    assert inf_ev.attained_at == pytest.approx(b, abs=1e-6)


@pytest.mark.parametrize(
    "f, law",
    [
        (quadratic(1.5, 0.3), Normal(0.4, 1.2)),
        (power(1.0), Exponential(1.3)),
        (power(2.0), Exponential(1.3)),
    ],
    ids=lambda v: getattr(v, "label", repr(v)),
)
def test_flat_h_scan_stays_within_its_budget(f, law):
    """A flat h ties at every grid point; ties within noise start no search."""
    calls = []

    def counted(x):
        calls.append(np.size(x))  # an array call counts each of its points
        return f.func(x)

    stripped = dataclasses.replace(f, func=counted, phi_prime_shape=Shape.UNKNOWN)
    inf_ev, sup_ev = h_extrema(stripped, law.support, law.mean())
    assert sum(calls) < 2500
    expected = h_extrema(f, law.support, law.mean())
    for ev, fast in zip((inf_ev, sup_ev), expected):
        assert ev.value == pytest.approx(fast.value, abs=1e-8 * max(1.0, abs(fast.value)))


@pytest.mark.parametrize(
    "f, nu",
    [(exp_scaled(1.3), 0.4), (power(2.5), 1.7), (neg_log(), 0.77), (quadratic(0.8, -0.4, 0.2), -3.0)],
    ids=lambda v: getattr(v, "label", repr(v)),
)
def test_grid_values_match_the_scalar_objective(f, nu):
    """The array forms of h, of its noise bound and of phi''/2 agree with the scalar ones bit for bit."""
    r = switch_radius(nu)
    xs = np.concatenate([
        _scan_grid(SupportInterval(nu - 2.0, nu + 2.0), nu, f.natural_domain),
        nu + r * np.array([-1.0, -0.5, 0.0, 0.25, 1.0, 1.0 + 1e-12]),
    ])
    h = _h_objective(f, nu)
    half_d2 = _curvature_objective(f, nu)
    # the objectives run under their caller's error state, as in the library's own loops
    with np.errstate(all="ignore"):
        vs, eps = h.on_grid(xs)
        assert vs.tolist() == [h.value(x) for x in xs.tolist()]
        assert eps.tolist() == [h.noise(x) for x in xs.tolist()]
        assert half_d2.on_grid(xs)[0].tolist() == [half_d2.value(x) for x in xs.tolist()]


def _reference_starts(obj, xs):
    """(a, b) of each search the scan starts, by the per-point loop it ran before its masks.

    The objective runs under its caller's error state, so the loop holds one, as the
    library's own loops do.
    """
    with np.errstate(all="ignore"):
        pts = [(x, v) for x, v in ((x, obj.value(x)) for x in xs.tolist()) if math.isfinite(v)]
        xs_f, vs_f = [x for x, _ in pts], [v for _, v in pts]
        n = len(xs_f)
        i_min = min(range(n), key=vs_f.__getitem__, default=-1)
        i_max = max(range(n), key=vs_f.__getitem__, default=-1)
        noise = obj.noise or (lambda x: 0.0)
        starts = []
        for i in range(1, n - 1):
            v = vs_f[i]
            near, far = sorted((vs_f[i - 1], vs_f[i + 1]))
            if v <= near and (i == i_min or far - v > noise(xs_f[i])):
                starts.append((xs_f[i - 1], xs_f[i + 1]))
            if v >= far and (i == i_max or v - near > noise(xs_f[i])):
                starts.append((xs_f[i - 1], xs_f[i + 1]))
    return sorted(starts)


@pytest.mark.parametrize("objective", [_h_objective, _curvature_objective], ids=lambda o: o.__name__)
@pytest.mark.parametrize(
    "f, law",
    [
        (quadratic(1.5, 0.3), Exponential(1.3)),
        (quadratic(0.8, -0.4, 0.2), Normal(0.3, 1.1)),
        (power(1.0), Uniform(1.0, 4.0)),
        (power(2.0), Exponential(1.3)),
        # flat h whose cancellation noise puts some points on the noise margin
        (power(2.0), Exponential(0.593)),
        (quadratic(1.744, -0.373, -0.153), Exponential(0.55)),
        (exp_scaled(1.3), Normal(0.4, 1.2)),
        (power(-1.5), Uniform(1.0, 4.0)),
        (neg_log(), Exponential(1.3)),
    ],
    ids=lambda v: getattr(v, "label", type(v).__name__),
)
def test_scan_starts_the_searches_the_per_point_loop_starts(f, law, objective, monkeypatch):
    starts = []
    search = bounds._golden_section

    def recorded(fn, a, b, tol):
        starts.append((a, b))
        return search(fn, a, b, tol)

    monkeypatch.setattr(bounds, "_golden_section", recorded)
    stripped = dataclasses.replace(f, phi_prime_shape=Shape.UNKNOWN)
    iv, nu = law.support, law.mean()
    extrema = h_extrema if objective is _h_objective else curvature_extrema
    extrema(stripped, iv, nu)
    xs = _scan_grid(iv, nu, f.natural_domain)
    assert sorted(starts) == _reference_starts(objective(stripped, nu), xs)


def _x4():
    return FunctionSpec(
        func=lambda x: (x * x) * (x * x),
        deriv1=lambda x: 4.0 * x * x * x,
        deriv2=lambda x: 12.0 * x * x,
        natural_domain=SupportInterval(-math.inf, math.inf),
        label="x4",
    )


def _scalar_only(fn):
    def call(x):
        if isinstance(x, np.ndarray):
            raise TypeError("scalar-only callable")
        return fn(x)

    return call


_AGREEMENT_CASES = [
    (f, law)
    for f in (exp_scaled(1.3), exp_scaled(-0.7), power(2.5), power(-1.5), power(0.5),
              neg_log(), quadratic(0.8, -0.4, 0.2), _x4())
    for law in (Normal(0.4, 1.2), Exponential(1.3), Uniform(1.0, 4.0))
    if f.natural_domain.contains_interval(law.support)
]


@pytest.mark.parametrize("extrema", [h_extrema, curvature_extrema], ids=lambda e: e.__name__)
@pytest.mark.parametrize(
    "f, law", _AGREEMENT_CASES, ids=lambda v: getattr(v, "label", type(v).__name__)
)
def test_array_and_per_point_scans_agree(f, law, extrema):
    """One call on the whole grid finds what the per-point fallback finds, bit for bit."""
    calls = []

    def recorded(fn):
        def call(x):
            calls.append(x)
            return fn(x)

        return call

    traced = recorded(f.deriv2 if extrema is curvature_extrema else f.func)
    stripped = dataclasses.replace(f, phi_prime_shape=Shape.UNKNOWN)
    if extrema is curvature_extrema:
        broadcasting = dataclasses.replace(stripped, deriv2=traced)
    else:
        broadcasting = dataclasses.replace(stripped, func=traced)
    scalar = dataclasses.replace(
        stripped,
        func=_scalar_only(f.func),
        deriv1=_scalar_only(f.deriv1),
        deriv2=_scalar_only(f.deriv2),
    )
    iv, nu = law.support, law.mean()
    assert extrema(broadcasting, iv, nu) == extrema(scalar, iv, nu)
    arrays = [x for x in calls if isinstance(x, np.ndarray)]
    assert len(arrays) == 1
    assert np.array_equal(arrays[0], _scan_grid(iv, nu, f.natural_domain))
