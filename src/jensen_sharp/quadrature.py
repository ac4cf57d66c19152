"""Expectation integrals with divergence classification.

scipy's adaptive quadrature does the heavy lifting.  This wrapper adds the
endpoint policy the rest of the package relies on: when the direct pass is
not trusted, the integral is re-accumulated over geometric windows toward
each endpoint (doubling reach toward infinite ends, halving gaps toward
finite ones) so that divergent integrals come back as +/-inf instead of
garbage, and genuinely unclassifiable behaviour raises NumericError.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import Callable, Iterable, Iterator

import numpy as np
from scipy import integrate

from .errors import NumericError
from .functions import SupportInterval, guarded

QUAD_ABS = 1e-10
QUAD_REL = 1e-8
GEOM_WINDOWS = 60  # cap on geometric subdivision depth per endpoint
GROWTH_RUN = 4  # this many consecutive non-contracting increments => divergent
HUGE = 1e300
_EPS = float(np.finfo(float).eps)


def _quad(fn, lo: float, hi: float, limit: int) -> tuple[float, float, bool]:
    """One adaptive pass; trusted only when QUADPACK reports a clean run."""
    if lo == hi:
        return 0.0, 0.0, True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = integrate.quad(
            fn, lo, hi, epsabs=QUAD_ABS, epsrel=QUAD_REL, limit=limit, full_output=1
        )
    value, abserr = float(out[0]), float(out[1])
    trusted = len(out) == 3 and math.isfinite(value) and math.isfinite(abserr)
    return value, abserr, trusted


def _trend_sign(increments: list[float]) -> int:
    """+/-1 when the recent increments form a same-signed non-contracting run."""
    tail = increments[-(GROWTH_RUN + 1):]
    if len(tail) < 3:
        return 0
    mags = [abs(t) for t in tail]
    if not all(mags[i + 1] >= 0.9 * mags[i] for i in range(len(mags) - 1)):
        return 0
    signs = {int(math.copysign(1.0, t)) for t in tail if t != 0.0}
    if len(signs) == 1:
        return signs.pop()
    return 0


def _geometric_side(
    fn, windows: Iterable[tuple[float, float]], limit: int
) -> tuple[float, float, int]:
    """Accumulate quad increments over windows approaching one endpoint.

    Returns (partial_sum, error, diverged_sign); diverged_sign is 0 when the
    side converged, else the sign of the infinity it runs off to.
    """
    total = 0.0
    err = 0.0
    increments: list[float] = []
    small_run = 0
    for a, b in windows:
        v, e, ok = _quad(fn, a, b, limit)
        tol = 0.5 * (QUAD_ABS + QUAD_REL * abs(total))
        if not ok:
            # QUADPACK gives up on windows whose integrand has shrunk to
            # rounding level; a negligible value there means the tail is done
            if math.isfinite(v) and abs(v) <= tol:
                return total + v, err + tol, 0
            if small_run >= 1:
                return total, err + tol, 0
            sign = _trend_sign(increments)
            if sign:
                return total, err, sign
            raise NumericError(
                f"quadrature failed on window [{a}, {b}] with no divergence trend "
                "to classify"
            )
        increments.append(v)
        total += v
        err += e
        if abs(v) <= tol:
            small_run += 1
            if small_run >= 2:
                return total, err + abs(v), 0
        else:
            small_run = 0
        if abs(total) > HUGE:
            return total, err, int(math.copysign(1.0, total))
        if len(increments) >= GROWTH_RUN + 1:
            tail = increments[-(GROWTH_RUN + 1):]
            mags = [abs(t) for t in tail]
            growing = all(mags[i + 1] >= mags[i] for i in range(GROWTH_RUN))
            if growing and mags[-1] > tol:
                signs = {int(math.copysign(1.0, t)) for t in tail if t != 0.0}
                if len(signs) == 1:
                    return total, err, signs.pop()
                raise NumericError(
                    "integral increments grow with alternating sign; divergence "
                    "direction is undetermined"
                )
    # windows exhausted: accept if the increments were clearly contracting
    if len(increments) >= 2 and abs(increments[-1]) <= 0.5 * abs(increments[-2]):
        return total, err + 2.0 * abs(increments[-1]), 0
    if not increments:
        return total, err, 0
    raise NumericError(
        f"tail integration did not settle within {GEOM_WINDOWS} geometric windows"
    )


def _windows_to_pos_inf(start: float, step: float) -> Iterator[tuple[float, float]]:
    for k in range(GEOM_WINDOWS):
        yield start + step * (2.0**k - 1.0), start + step * (2.0 ** (k + 1) - 1.0)


def _windows_to_neg_inf(start: float, step: float) -> Iterator[tuple[float, float]]:
    for k in range(GEOM_WINDOWS):
        yield start - step * (2.0 ** (k + 1) - 1.0), start - step * (2.0**k - 1.0)


def _windows_to_finite(endpoint: float, d0: float, from_right: bool) -> Iterator[tuple[float, float]]:
    """Halving windows approaching a finite endpoint from inside the domain."""
    floor = _EPS * max(1.0, abs(endpoint))
    for k in range(GEOM_WINDOWS):
        d = d0 * 2.0 ** (-k)
        if d < floor:
            return
        if from_right:
            yield endpoint + 0.5 * d, endpoint + d
        else:
            yield endpoint - d, endpoint - 0.5 * d


def expectation(
    integrand: Callable[[float], float],
    support: SupportInterval,
    anchor: float,
    scale: float,
    budget: int = 200,
) -> tuple[float, float]:
    """Integral of ``integrand`` over ``support`` with an error estimate.

    ``anchor`` and ``scale`` locate the bulk of the mass (typically mean and
    standard deviation) and only steer the window layout, never the value.
    Returns (value, error_bound); value is +/-inf when the integral diverges
    in a classifiable direction, and NumericError is raised when it cannot
    be classified.
    """
    fn = functools.partial(guarded, integrand)
    lo, hi = support.lower, support.upper
    limit = int(min(max(int(budget), 50), 1000))

    value, abserr, trusted = _quad(fn, lo, hi, limit)
    if trusted:
        return value, abserr

    anchor = float(anchor)
    scale = float(scale)
    if not math.isfinite(anchor):
        anchor = 0.0
    if not (math.isfinite(scale) and scale > 0.0):
        scale = 1.0

    a = lo if math.isfinite(lo) else anchor - 8.0 * scale
    b = hi if math.isfinite(hi) else anchor + 8.0 * scale
    if not a < b:
        if math.isfinite(lo):
            a, b = lo, lo + 16.0 * scale
        else:
            a, b = hi - 16.0 * scale, hi
    off_lo = (b - a) / 8.0 if math.isfinite(lo) else 0.0
    off_hi = (b - a) / 8.0 if math.isfinite(hi) else 0.0
    core_lo, core_hi = a + off_lo, b - off_hi

    total, err, ok = _quad(fn, core_lo, core_hi, limit)
    if not ok:
        raise NumericError(
            f"quadrature failed on the interior window [{core_lo}, {core_hi}]"
        )

    diverged = 0
    if math.isfinite(lo):
        windows = _windows_to_finite(lo, off_lo, from_right=True)
    else:
        windows = _windows_to_neg_inf(a, 8.0 * scale)
    s, e, sign = _geometric_side(fn, windows, limit)
    total += s
    err += e
    diverged = sign

    if math.isfinite(hi):
        windows = _windows_to_finite(hi, off_hi, from_right=False)
    else:
        windows = _windows_to_pos_inf(b, 8.0 * scale)
    s, e, sign = _geometric_side(fn, windows, limit)
    total += s
    err += e
    if sign:
        if diverged and sign != diverged:
            raise NumericError(
                "integral diverges toward +inf on one side and -inf on the other"
            )
        diverged = sign

    if diverged:
        return math.copysign(math.inf, diverged), 0.0
    return total, err
