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
    h_extrema,
    power,
    quadratic,
)
from jensen_sharp.bounds import GRID_CORE, curvature_extrema


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
        calls.append(x)
        return f.func(x)

    stripped = dataclasses.replace(f, func=counted, phi_prime_shape=Shape.UNKNOWN)
    inf_ev, sup_ev = h_extrema(stripped, law.support, law.mean())
    assert len(calls) < 2500
    expected = h_extrema(f, law.support, law.mean())
    for ev, fast in zip((inf_ev, sup_ev), expected):
        assert ev.value == pytest.approx(fast.value, abs=1e-8 * max(1.0, abs(fast.value)))
