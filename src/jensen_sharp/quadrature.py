"""Expectation integrals with divergence classification.

QUADPACK's adaptive routines (QAGSE on a finite range, QAGIE on an infinite
one) do the heavy lifting.  They are called straight from scipy's compiled
extension ``scipy.integrate._quadpack``, loaded by the first integral without
running ``scipy.integrate``'s ``__init__``, so integrating loads none of
scipy.integrate, scipy.optimize, scipy.special, scipy.sparse or scipy.linalg,
and code that never integrates loads no scipy at all.
When the direct pass is not trusted, the integral is re-accumulated over a
core window and one walk of geometric windows toward each endpoint (doubling
reach toward an infinite end, halving gaps toward a finite one).  A walk
converges once its increments fall below tolerance; at a finite end the
remainder of its contracting series is added.  Toward an infinite end,
GROWTH_RUN + 1 same-signed increments that never shrink call it divergent, and
so does a window, at either end or in the core, whose integral overflows past HUGE.
A walk that stops any other way (at an untrusted window, or with no windows
left) gets one verdict: geometrically contracting increments converge, with
the series remainder added and charged to the error; a same-signed run that
does not shrink diverges; anything else raises NumericError.  A finite end
gets no early growth exit, because an integrable singularity such as
y**-0.75 * log(1/y) grows for several halvings before it decays.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import NumericError
from .functions import SupportInterval, guarded

__all__ = ["expectation"]

QUAD_ABS = 1e-10
QUAD_REL = 1e-8
QUAD_LIMIT = 200  # QUADPACK subdivisions per pass; 1000 lets a divergent 1/x tail pass clean
GEOM_WINDOWS = 60  # cap on geometric subdivision depth per endpoint
GROWTH_RUN = 4  # this many consecutive non-shrinking increments => divergent
CONTRACTION = 0.9  # |ratio| of the last two increments at or below this => converging
HUGE = 1e300
_EPS = float(np.finfo(float).eps)


def _quadpack():
    """scipy's compiled QUADPACK extension, loaded without ``scipy.integrate``'s ``__init__``.

    ``sys.modules`` is the one cache: an entry there is used as it is, and a fresh load
    is registered, so a later ``import scipy.integrate`` reuses this module object,
    though it then lacks the private attribute ``scipy.integrate._quadpack``.
    """
    name = "scipy.integrate._quadpack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and importlib.machinery.FileFinder(
        os.path.join(scipy.submodule_search_locations[0], "integrate"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    ).find_spec(name)
    if spec is None:
        raise ImportError(f"integration needs scipy's compiled extension {name}, not found")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sys.modules.setdefault(name, module)


def _quad(fn, lo: float, hi: float) -> tuple[float, float, bool]:
    """One adaptive pass; trusted only when QUADPACK reports a clean run (ier 0)."""
    if lo == hi:
        return 0.0, 0.0, True
    assert lo < hi, (lo, hi)
    if math.isfinite(lo) and math.isfinite(hi):
        out = _quadpack()._qagse(fn, lo, hi, (), 0, QUAD_ABS, QUAD_REL, QUAD_LIMIT)
    else:
        # scipy's coding: 1 is (bound, +inf), -1 is (-inf, bound), 2 the whole line
        bound, inf = (lo, 1) if math.isfinite(lo) else (hi, -1) if math.isfinite(hi) else (0.0, 2)
        out = _quadpack()._qagie(fn, bound, inf, (), 0, QUAD_ABS, QUAD_REL, QUAD_LIMIT)
    value, abserr, ier = float(out[0]), float(out[1]), out[2]
    trusted = ier == 0 and math.isfinite(value) and math.isfinite(abserr)
    return value, abserr, trusted


def _trend_sign(increments: list[float]) -> int:
    """+/-1 when the last GROWTH_RUN + 1 increments (all, if 3 or 4) keep that sign unshrunk."""
    tail = increments[-(GROWTH_RUN + 1):]
    if len(tail) < 3 or any(abs(b) < abs(a) for a, b in zip(tail, tail[1:])):
        return 0
    signs = {int(math.copysign(1.0, t)) for t in tail if t != 0.0}
    return signs.pop() if len(signs) == 1 else 0


def _remainder(total: float, err: float, increments: list[float]) -> tuple[float, float] | None:
    """(sum, error) with the geometric series' remainder added and charged to the error,
    or None when the last two increments do not contract."""
    before, last = increments[-2:] if len(increments) >= 2 else (0.0, 0.0)
    ratio = last / before if before != 0.0 else 1.0
    if abs(ratio) > CONTRACTION:
        return None
    rest = last * ratio / (1.0 - ratio)
    return total + rest, err + max(2.0 * abs(last), abs(rest))


def _verdict(total: float, err: float, increments: list[float]) -> tuple[float, float, int]:
    """(partial_sum, error, diverged_sign) of a walk that stopped unsettled."""
    if settled := _remainder(total, err, increments):
        return *settled, 0
    sign = _trend_sign(increments)
    if sign:
        return total, err, sign
    raise NumericError(
        f"tail integration did not settle after {len(increments)} windows: the "
        "increments neither contract geometrically nor grow with one sign"
    )


def _walk(
    fn, windows: Iterable[tuple[float, float]], infinite_end: bool
) -> tuple[float, float, int]:
    """(partial_sum, error, diverged_sign) over windows approaching one endpoint;
    diverged_sign is 0 when the side converged."""
    total = 0.0
    err = 0.0
    increments: list[float] = []
    small_run = 0
    for a, b in windows:
        v, e, ok = _quad(fn, a, b)
        tol = 0.5 * (QUAD_ABS + QUAD_REL * abs(total))
        if not ok:
            # QUADPACK gives up on windows whose integrand has shrunk to
            # rounding level; a negligible value there means the tail is done
            if math.isfinite(v) and abs(v) <= tol:
                return total + v, err + tol, 0
            if small_run >= 1:
                return total, err + tol, 0
            if abs(v) > HUGE:  # the window alone overflows, as a HUGE total diverges
                return total, err, int(math.copysign(1.0, v))
            return _verdict(total, err, increments)
        increments.append(v)
        total += v
        err += e
        if abs(v) <= tol:
            small_run += 1
            if small_run >= 2:
                settled = not infinite_end and _remainder(total, err, increments)
                return (*settled, 0) if settled else (total, err + abs(v), 0)
        else:
            small_run = 0
        if abs(total) > HUGE:
            return total, err, int(math.copysign(1.0, total))
        if infinite_end and len(increments) > GROWTH_RUN:
            sign = _trend_sign(increments)
            if sign:
                return total, err, sign
    return _verdict(total, err, increments)


def _windows(
    origin: float, step: float, side: int, infinite_end: bool
) -> Iterator[tuple[float, float]]:
    """Windows toward the lower (side -1) or upper (side +1) endpoint: reach doubling
    from ``step`` past the core edge ``origin`` toward an infinite end, or gap halving
    from ``step`` toward a finite end ``origin``, down to its rounding floor."""
    floor = _EPS * max(1.0, abs(origin))
    direction = side if infinite_end else -side
    for k in range(GEOM_WINDOWS):
        if infinite_end:
            near, far = step * (2.0**k - 1.0), step * (2.0 ** (k + 1) - 1.0)
        else:
            far = step * 2.0 ** (-k)
            if far < floor:
                return
            near = 0.5 * far
        yield (origin + near, origin + far) if direction > 0 else (origin - far, origin - near)


def expectation(
    integrand: Callable[[float], float],
    support: SupportInterval,
    anchor: float,
    scale: float,
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
    # QUADPACK calls fn one node at a time: numpy's error state is set once for the whole integral
    with np.errstate(all="ignore"):
        value, abserr, trusted = _quad(fn, lo, hi)
        if trusted:
            return value, abserr

        anchor = float(anchor) if math.isfinite(anchor) else 0.0
        scale = float(scale) if math.isfinite(scale) and scale > 0.0 else 1.0

        a = lo if math.isfinite(lo) else anchor - 8.0 * scale
        b = hi if math.isfinite(hi) else anchor + 8.0 * scale
        if not a < b:
            if math.isfinite(lo):
                a, b = lo, lo + 16.0 * scale
            else:
                a, b = hi - 16.0 * scale, hi
        off = (b - a) / 8.0
        core_lo = a + off if math.isfinite(lo) else a
        core_hi = b - off if math.isfinite(hi) else b

        total, err, ok = _quad(fn, core_lo, core_hi)
        # the core overflows as a walk's window does, and both walks still run
        diverged = int(math.copysign(1.0, total)) if abs(total) > HUGE else 0
        if not (ok or diverged):
            raise NumericError(f"quadrature failed on the interior window [{core_lo}, {core_hi}]")

        for side, end, origin in ((-1, lo, a), (1, hi, b)):
            infinite_end = math.isinf(end)
            step = 8.0 * scale if infinite_end else off
            s, e, sign = _walk(fn, _windows(origin, step, side, infinite_end), infinite_end)
            total += s
            err += e
            if sign and diverged and sign != diverged:
                raise NumericError(
                    "integral diverges toward +inf on one side and -inf on the other"
                )
            diverged = sign or diverged

        if diverged:
            return math.copysign(math.inf, diverged), 0.0
        return total, err
