"""Catalog of twice-differentiable transform functions.

A :class:`FunctionSpec` bundles phi with its first two derivatives, the open
interval where it is defined, and the convex/concave classification of phi'
that unlocks the monotone fast path in the bounds engine.  Catalog entries
also carry analytic endpoint limits of the curvature ratio h where those are
known in closed form, so the engine does not need to probe for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import EvaluationError, ParameterError

__all__ = [
    "Shape",
    "SupportInterval",
    "FunctionSpec",
    "REAL_LINE",
    "POSITIVE_HALF_LINE",
    "exp_scaled",
    "power",
    "neg_log",
    "quadratic",
    "make_catalog_function",
    "classify_phi_prime_shape",
]


class Shape(Enum):
    """Shape of phi' over the natural domain."""

    CONVEX = "convex"
    CONCAVE = "concave"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SupportInterval:
    """An interval with independently open/closed endpoints.

    Endpoints may be infinite, in which case they are necessarily open.
    """

    lower: float
    upper: float
    lower_closed: bool = False
    upper_closed: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ParameterError("interval endpoints must not be NaN")
        if not self.lower < self.upper:
            raise ParameterError(
                f"interval needs lower < upper, got {self.lower} and {self.upper}"
            )
        if math.isinf(self.lower) and self.lower_closed:
            raise ParameterError("an infinite lower endpoint cannot be closed")
        if math.isinf(self.upper) and self.upper_closed:
            raise ParameterError("an infinite upper endpoint cannot be closed")

    def contains(self, x: float) -> bool:
        if math.isnan(x):
            return False
        above = x > self.lower or (self.lower_closed and x == self.lower)
        below = x < self.upper or (self.upper_closed and x == self.upper)
        return above and below

    def contains_interval(self, other: "SupportInterval") -> bool:
        """Set containment, honouring open/closed endpoints."""
        lo_ok = other.lower > self.lower or (
            other.lower == self.lower and (self.lower_closed or not other.lower_closed)
        )
        hi_ok = other.upper < self.upper or (
            other.upper == self.upper and (self.upper_closed or not other.upper_closed)
        )
        return lo_ok and hi_ok

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lower) and math.isfinite(self.upper)

    def __str__(self) -> str:
        left = "[" if self.lower_closed else "("
        right = "]" if self.upper_closed else ")"
        return f"{left}{self.lower:g}, {self.upper:g}{right}"


REAL_LINE = SupportInterval(-math.inf, math.inf)
POSITIVE_HALF_LINE = SupportInterval(0.0, math.inf)

#: Optional analytic endpoint limit of h: (endpoint, nu) -> value or None.
HLimitHint = Callable[[float, float], Optional[float]]


@dataclass(frozen=True)
class FunctionSpec:
    """phi with derivatives, domain, phi'-shape tag, and optional h-limit hints.

    ``h_limit_hint(endpoint, nu)`` may return the limit of the curvature
    ratio h(x; nu) as x approaches a natural-domain endpoint, or ``None``
    when it has nothing to offer; the bounds engine then falls back to
    numeric probing.  All callables must accept floats; the catalog entries
    also broadcast over numpy arrays.
    """

    func: Callable[[float], float]
    deriv1: Callable[[float], float]
    deriv2: Callable[[float], float]
    natural_domain: SupportInterval
    phi_prime_shape: Shape = Shape.UNKNOWN
    h_limit_hint: HLimitHint | None = None
    label: str = "custom"

    def __call__(self, x: float) -> float:
        return self.func(x)

    def __repr__(self) -> str:
        return (
            f"FunctionSpec({self.label!r}, domain={self.natural_domain}, "
            f"phi_prime={self.phi_prime_shape.value})"
        )


def guarded(fn: Callable[[float], float], x: float) -> float:
    """fn(x) as a float, NaN where the evaluation fails (overflow, bad input)."""
    try:
        with np.errstate(all="ignore"):
            return float(fn(x))
    except (OverflowError, ValueError, ZeroDivisionError):
        return math.nan


def finite_value(fn: Callable[[float], float], x: float, name: str) -> float:
    """fn(x) as a float; raises EvaluationError where it fails or is not finite."""
    v = guarded(fn, x)
    if not math.isfinite(v):
        raise EvaluationError(f"{name} is not finite at x={x}")
    return v


def exp_scaled(t: float) -> FunctionSpec:
    """phi(x) = exp(t*x) on the whole line.

    phi' is convex for t > 0 and concave for t < 0.  h decays to 0 on the
    side where t*x falls and grows without bound on the other, which the
    hint encodes so infinite supports resolve instantly.
    """
    t = float(t)
    if t == 0.0 or not math.isfinite(t):
        raise ParameterError(f"exp needs a finite nonzero rate t, got {t}")

    def hint(endpoint: float, nu: float) -> float | None:
        if math.isinf(endpoint):
            return math.inf if (endpoint > 0) == (t > 0) else 0.0
        return None

    return FunctionSpec(
        func=lambda x: np.exp(t * x),
        deriv1=lambda x: t * np.exp(t * x),
        deriv2=lambda x: (t * t) * np.exp(t * x),
        natural_domain=REAL_LINE,
        phi_prime_shape=Shape.CONVEX if t > 0 else Shape.CONCAVE,
        h_limit_hint=hint,
        label=f"exp:t={t:g}",
    )


def power(p: float) -> FunctionSpec:
    """phi(x) = x**p on (0, inf).

    phi' is convex for p >= 2 or p in (0, 1], concave for p < 0 or p in
    [1, 2].  The boundary exponents p = 1 and p = 2 make phi' linear, which
    satisfies both tests; they are tagged convex.  The hint gives the h
    limits in closed form, which probing misses where they converge slowly.
    """
    p = float(p)
    if p == 0.0 or not math.isfinite(p):
        raise ParameterError(f"power needs a finite nonzero exponent p, got {p}")
    shape = Shape.CONVEX if (p >= 2.0 or 0.0 < p <= 1.0) else Shape.CONCAVE

    def hint(endpoint: float, nu: float) -> float | None:
        if endpoint == 0.0:
            if p < 0.0:
                return math.inf
            try:
                return (p - 1.0) * nu ** (p - 2.0)
            except OverflowError:
                return None  # nu too close to 0 or too far out: leave it to probing
        if endpoint == math.inf:
            return math.inf if p > 2.0 else (1.0 if p == 2.0 else 0.0)
        return None

    return FunctionSpec(
        func=lambda x: np.power(x, p),
        deriv1=lambda x: p * np.power(x, p - 1.0),
        deriv2=lambda x: p * (p - 1.0) * np.power(x, p - 2.0),
        natural_domain=POSITIVE_HALF_LINE,
        phi_prime_shape=shape,
        h_limit_hint=hint,
        label=f"power:p={p:g}",
    )


def neg_log() -> FunctionSpec:
    """phi(x) = -log(x) on (0, inf); phi' = -1/x is concave.

    h vanishes at +inf (the log numerator loses to the squared denominator)
    and blows up at 0+, both encoded as hints.
    """

    def hint(endpoint: float, nu: float) -> float | None:
        if endpoint == math.inf:
            return 0.0
        if endpoint == 0.0:
            return math.inf
        return None

    return FunctionSpec(
        func=lambda x: -np.log(x),
        deriv1=lambda x: -1.0 / x,
        deriv2=lambda x: 1.0 / (x * x),
        natural_domain=POSITIVE_HALF_LINE,
        phi_prime_shape=Shape.CONCAVE,
        h_limit_hint=hint,
        label="neglog",
    )


def quadratic(a: float, b: float = 0.0, c: float = 0.0) -> FunctionSpec:
    """phi(x) = a*x**2 + b*x + c on the whole line; h is identically a."""
    coeffs = []
    for name, v in (("a", a), ("b", b), ("c", c)):
        v = float(v)
        if not math.isfinite(v):
            raise ParameterError(f"quad coefficient {name} must be finite, got {v}")
        coeffs.append(v)
    a, b, c = coeffs
    return FunctionSpec(
        func=lambda x: (a * x + b) * x + c,
        deriv1=lambda x: 2.0 * a * x + b,
        # 0.0 * x keeps the result array-shaped when x is an array
        deriv2=lambda x: 2.0 * a + 0.0 * x,
        natural_domain=REAL_LINE,
        phi_prime_shape=Shape.CONVEX,
        h_limit_hint=lambda endpoint, nu: a,
        label=f"quad:a={a:g},b={b:g},c={c:g}",
    )


def make_catalog_function(kind: str, **params: float) -> FunctionSpec:
    """Build a catalog entry by name.

    Recognised kinds and parameters:
      * ``exp``     with ``t`` (nonzero)
      * ``power``   with ``p`` (nonzero)
      * ``neglog``  with no parameters
      * ``quad``    with ``a`` and optional ``b``, ``c``
    """
    kind = kind.strip().lower()
    if kind == "exp":
        return exp_scaled(_take(params, "t"))
    if kind == "power":
        return power(_take(params, "p"))
    if kind == "neglog":
        _no_extras(kind, params)
        return neg_log()
    if kind == "quad":
        a = _take(params, "a", consume_only=True)
        b = params.pop("b", 0.0)
        c = params.pop("c", 0.0)
        _no_extras(kind, params)
        return quadratic(a, b, c)
    raise ParameterError(
        f"unknown function kind {kind!r}; expected exp, power, neglog, or quad"
    )


def _take(params: dict, key: str, consume_only: bool = False) -> float:
    if key not in params:
        raise ParameterError(f"missing required parameter {key!r}")
    value = params.pop(key)
    if not consume_only:
        _no_extras(key, params)
    return float(value)


def _no_extras(kind: str, params: dict) -> None:
    if params:
        raise ParameterError(f"unexpected parameter(s) for {kind!r}: {sorted(params)}")


def classify_phi_prime_shape(
    f: FunctionSpec,
    probe_grid_size: int = 32,
    window: SupportInterval | tuple[float, float] | None = None,
) -> Shape:
    """Midpoint-convexity test of phi' over a finite probe window.

    Every pair of probe points is tested: convexity demands
    ``phi'((u+v)/2) <= (phi'(u)+phi'(v))/2`` up to a slack of 1e-9 times the
    local magnitude of phi' (pure midpoint tests are brittle in floating
    point), concavity the mirror.  Linear phi' passes both and is reported
    convex.  When no window is given one is derived from the natural domain,
    clamping infinite sides to an 8-unit reach around a finite anchor.
    """
    probe_grid_size = int(probe_grid_size)
    if probe_grid_size < 8:
        raise ParameterError(f"probe_grid_size must be >= 8, got {probe_grid_size}")
    lo, hi = _probe_window(f.natural_domain, window)
    # interior probes only, so open endpoints and singular edges stay untouched
    xs = np.linspace(lo, hi, probe_grid_size + 2)[1:-1]
    d1 = np.array([finite_value(f.deriv1, x, "phi'") for x in xs])
    scale = max(1.0, float(np.max(np.abs(d1))))
    slack = 1e-9 * scale
    convex = concave = True
    n = len(xs)
    for i in range(n):
        for j in range(i + 1, n):
            mid = finite_value(f.deriv1, 0.5 * (xs[i] + xs[j]), "phi'")
            chord = 0.5 * (d1[i] + d1[j])
            if mid > chord + slack:
                convex = False
            if mid < chord - slack:
                concave = False
        if not (convex or concave):
            break
    if convex:
        return Shape.CONVEX
    if concave:
        return Shape.CONCAVE
    return Shape.UNKNOWN


def _probe_window(
    domain: SupportInterval,
    window: SupportInterval | tuple[float, float] | None,
) -> tuple[float, float]:
    if window is not None:
        if isinstance(window, SupportInterval):
            lo, hi = window.lower, window.upper
        else:
            lo, hi = float(window[0]), float(window[1])
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ParameterError(f"probe window must be finite with lo < hi, got ({lo}, {hi})")
        if lo < domain.lower or hi > domain.upper:
            raise ParameterError(
                f"probe window ({lo}, {hi}) is not inside the natural domain {domain}"
            )
        return lo, hi
    a, b = domain.lower, domain.upper
    if math.isfinite(a) and math.isfinite(b):
        return a, b
    if math.isfinite(a):
        return a, a + 16.0
    if math.isfinite(b):
        return b - 16.0, b
    return -8.0, 8.0
