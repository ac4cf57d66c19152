"""Catalog of twice-differentiable transform functions.

A :class:`FunctionSpec` bundles phi with its first two derivatives, the open
interval where it is defined, and the convex/concave classification of phi'
that unlocks the monotone fast path in the bounds engine.  Catalog entries
also carry analytic endpoint limits of the curvature ratio h where those are
known in closed form, so the engine does not need to probe for them.
"""

from __future__ import annotations

import inspect
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

    def contains(self, x):
        """Whether x lies in the interval; a bool mask for an ndarray x.

        NaN lies in no interval: it fails every comparison.
        """
        above = x >= self.lower if self.lower_closed else x > self.lower
        below = x <= self.upper if self.upper_closed else x < self.upper
        return above & below

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
    also broadcast over numpy arrays.  A callable that accepts an ndarray
    must act elementwise, because the extrema scan calls it once on its
    whole grid; one that raises on an ndarray, or returns another shape, is
    evaluated point by point.
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


def guarded(fn: Callable[[float], float], x):
    """fn(x) as a float, NaN where the evaluation fails (overflow, bad input).

    An ndarray x is passed to fn whole, once, and a float array of its shape
    comes back.  Should that call raise or return another shape, fn is taken
    as scalar-only and called point by point, each point guarded as above.
    """
    # a float, the common case (quadrature nodes, searches, probes), skips the costlier ndarray test
    if type(x) is not float and isinstance(x, np.ndarray):
        try:
            with np.errstate(all="ignore"):
                v = np.asarray(fn(x), dtype=float)
            if v.shape == x.shape:
                return v
        except Exception:  # the per-point calls below raise whatever a point raises
            pass
        return np.array([guarded(fn, t) for t in x.ravel().tolist()], dtype=float).reshape(x.shape)
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
    build = _CATALOG.get(kind)
    if build is None:
        raise ParameterError(
            f"unknown function kind {kind!r}; expected exp, power, neglog, or quad"
        )
    return build_named(build, kind, params)


_CATALOG = {"exp": exp_scaled, "power": power, "neglog": neg_log, "quad": quadratic}


def build_named(build: Callable, kind: str, params: dict):
    """build(**params) once params names every required parameter of build and no other."""
    accepted = inspect.signature(build).parameters
    for key, param in accepted.items():
        if param.default is param.empty and key not in params:
            raise ParameterError(f"missing required parameter {key!r}")
    extras = sorted(set(params) - set(accepted))
    if extras:
        raise ParameterError(f"unexpected parameter(s) for {kind!r}: {extras}")
    return build(**params)
