"""Core bounds engine for the Jensen gap E[phi(X)] - phi(E[X]).

Everything revolves around the curvature ratio

    h(x; nu) = (phi(x) - phi(nu)) / (x - nu)**2 - phi'(nu) / (x - nu),

which equals half the mean-value second derivative between x and nu and has
the removable-singularity value phi''(nu)/2 at x = nu.  The gap satisfies

    inf h(x; mu) * var(X)  <=  E[phi(X)] - phi(E[X])  <=  sup h(x; mu) * var(X)

with the extrema taken over the support of X and mu = E[X].  When phi' is
convex, h is increasing in x, so the extrema sit at the support endpoints
(mirrored for concave phi'); otherwise a grid scan with golden-section
refinement locates them.  Endpoint extrema may be genuine limits (possibly
infinite); evaluation, probing, and hint lookup are layered accordingly.

Numerical policy:

* h switches to its Taylor value phi''(nu)/2 within a radius of
  eps**(1/3) * max(1, |nu|) of nu, balancing truncation against the
  catastrophic cancellation of the direct formula.
* The scan grid has 480-512 points (geometric toward finite endpoints,
  log-spaced into infinite tails).  Golden-section refinement starts at the
  grid's best point and at any point no worse than both neighbours and
  better than one of them by more than the evaluation noise (mirrored for
  maxima), so the ties of a flat h start no search.
* Endpoint limits are probed along geometric sequences: convergence is
  declared when successive values agree to 1e-8 of their magnitude,
  divergence when values exceed 1e12 or keep drifting monotonically after
  the probe budget; oscillation raises LimitUndeterminedError.
* All products with variances use the 0 * inf = 0 convention, so a
  degenerate law yields the exact bounds [0, 0].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .distributions import DistributionSpec, transform_power
from .errors import (
    DomainError,
    EvaluationError,
    LimitUndeterminedError,
    NumericError,
    ParameterError,
)
from .extreal import encode, ext_mul
from .functions import FunctionSpec, Shape, SupportInterval, finite_value, guarded, power

__all__ = [
    "HMethod",
    "BoundMethod",
    "HEvaluation",
    "GapBounds",
    "PowerMeanBounds",
    "h_eval",
    "h_endpoint_limit",
    "h_extrema",
    "jensen_bounds",
    "sample_bounds",
    "curvature_bounds",
    "power_mean_bounds",
    "generalized_mean_bounds",
    "EPS_CBRT",
    "switch_radius",
]

_EPS = float(np.finfo(float).eps)
EPS_CBRT = _EPS ** (1.0 / 3.0)
DIVERGENCE_CUTOFF = 1e12
LIMIT_RTOL = 1e-8
LIMIT_PROBES = 60
GRID_CORE = 432
GRID_TAIL = 40
GOLDEN_RTOL = 1e-10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class HMethod(Enum):
    """How an h value (or extremum) was obtained."""

    DIRECT = "direct"
    TAYLOR_NEAR_CENTER = "taylor-near-center"
    ENDPOINT_LIMIT = "endpoint-limit"


class BoundMethod(Enum):
    """Which pipeline produced a GapBounds."""

    DISTRIBUTION = "distribution"  # h extrema over the law's support
    SAMPLE = "sample"  # h extrema over the closed sample range
    CURVATURE = "curvature"  # phi''/2 extrema (cruder)
    PARTITION = "partition"  # cellwise refinement


@dataclass(frozen=True)
class HEvaluation:
    """An h value together with where and how it was taken.

    Finite values may be attained at a point (DIRECT / TAYLOR_NEAR_CENTER)
    or be one-sided limits; infinite values are always endpoint limits.
    """

    value: float
    attained_at: float
    method: HMethod

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "attained_at", float(self.attained_at))
        if math.isnan(self.value) or math.isnan(self.attained_at):
            raise NumericError("h evaluation produced NaN")
        if math.isinf(self.value) and self.method is not HMethod.ENDPOINT_LIMIT:
            raise NumericError("an infinite h value must come from an endpoint limit")


@dataclass(frozen=True)
class GapBounds:
    """Two-sided bounds on the Jensen gap, with provenance.

    ``lower``/``upper`` may be +/-inf but never NaN.  The details record
    where the h (or phi''/2) extremum was taken; partition bounds aggregate
    many extrema and leave them None.
    """

    lower: float
    upper: float
    lower_detail: HEvaluation | None
    upper_detail: HEvaluation | None
    variance_used: float
    method: BoundMethod

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        object.__setattr__(self, "variance_used", float(self.variance_used))
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise NumericError("gap bounds must not be NaN")
        if not self.lower <= self.upper:
            raise NumericError(f"lower bound {self.lower} exceeds upper bound {self.upper}")
        if not (self.variance_used >= 0.0 and math.isfinite(self.variance_used)):
            raise NumericError(f"variance must be finite and nonnegative, got {self.variance_used}")

    def to_json_dict(self) -> dict:
        return {
            "lower": encode(self.lower),
            "upper": encode(self.upper),
            "variance": self.variance_used,
            "method": self.method.value,
            "witness_lower": encode(self.lower_detail.attained_at) if self.lower_detail else None,
            "witness_upper": encode(self.upper_detail.attained_at) if self.upper_detail else None,
        }


# ---------------------------------------------------------------------------
# h evaluation
# ---------------------------------------------------------------------------


def switch_radius(nu: float) -> float:
    """|x - nu| below which h is evaluated by its Taylor value."""
    return EPS_CBRT * max(1.0, abs(nu))


def h_eval(f: FunctionSpec, nu: float, x: float) -> HEvaluation:
    """Evaluate h(x; nu), switching to phi''(nu)/2 near the removable singularity."""
    dom = f.natural_domain
    if not dom.contains(x):
        raise DomainError(f"x={x} is outside the natural domain {dom} of {f.label}")
    if not dom.contains(nu):
        raise DomainError(f"nu={nu} is outside the natural domain {dom} of {f.label}")
    v = finite_value(_h_objective(f, nu).value, x, f"h(.; {nu}) of {f.label}")
    near = abs(x - nu) <= switch_radius(nu)
    return HEvaluation(v, x, HMethod.TAYLOR_NEAR_CENTER if near else HMethod.DIRECT)


# ---------------------------------------------------------------------------
# endpoint limits
# ---------------------------------------------------------------------------


def _probe_limit(value_fn: Callable[[float], float], endpoint: float, ref: float) -> float:
    """Limit of value_fn toward an endpoint along a geometric probe sequence."""
    if math.isinf(endpoint):
        base = max(1.0, abs(ref))
        sign = 1.0 if endpoint > 0 else -1.0
        probes = (ref + sign * base * 2.0**k for k in range(LIMIT_PROBES))
    else:
        gap = abs(endpoint - ref)
        d0 = 0.5 * gap if gap > 0 else max(1.0, abs(endpoint)) * 1e-3
        toward = 1.0 if ref > endpoint else -1.0
        probes = (endpoint + toward * d0 * 2.0 ** (-k) for k in range(LIMIT_PROBES))

    vals: list[float] = []
    for x in probes:
        v = value_fn(x)
        if math.isnan(v):
            sign = _monotone_sign(vals)
            if sign:
                return math.copysign(math.inf, sign)
            raise LimitUndeterminedError(
                f"evaluation broke down near endpoint {endpoint} with no trend to follow"
            )
        if math.isinf(v) or abs(v) > DIVERGENCE_CUTOFF:
            return math.copysign(math.inf, v)
        vals.append(v)
        if len(vals) >= 3:
            tol = LIMIT_RTOL * max(1.0, abs(vals[-1]))
            if abs(vals[-1] - vals[-2]) <= tol and abs(vals[-2] - vals[-3]) <= tol:
                return vals[-1]
    sign = _monotone_sign(vals)
    if sign:
        return math.copysign(math.inf, sign)
    raise LimitUndeterminedError(
        f"no monotone trend over {LIMIT_PROBES} probes toward endpoint {endpoint}; "
        "the limit is undetermined"
    )


def _monotone_sign(vals: list[float], run: int = 8) -> int:
    """Sign of a sustained drift in the probe tail, 0 when none."""
    if len(vals) < 4:
        return 0
    diffs = [b - a for a, b in zip(vals[-run - 1:], vals[-run:])]
    if all(d > 0 for d in diffs):
        return 1
    if all(d < 0 for d in diffs):
        return -1
    return 0


def h_endpoint_limit(f: FunctionSpec, nu: float, endpoint: float) -> float:
    """Limit of h(x; nu) as x approaches an endpoint of the working interval.

    Resolution order: catalog hint, direct evaluation (finite endpoints inside
    the natural domain), then geometric probing with divergence detection.
    """
    return _h_objective(f, float(nu)).limit(float(endpoint))


# ---------------------------------------------------------------------------
# extrema machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Objective:
    """A scalar field to be minimised/maximised over an interval."""

    value: Callable[[float], float]  # tolerant: NaN on failure
    limit: Callable[[float], float]  # endpoint limit; may raise
    domain: SupportInterval  # where value() may be called
    noise: Callable[[float], float] | None = None  # evaluation-noise bound at x


def _h_objective(f: FunctionSpec, nu: float) -> _Objective:
    """The one evaluator of h(.; nu): phi(nu), phi'(nu), phi''(nu)/2 are taken once.

    ``value`` costs one guarded phi call.  It takes Python floats, whose
    arithmetic overflows to inf without a numpy warning.
    """
    nu = float(nu)
    phi_nu = guarded(f.func, nu)
    d1_nu = guarded(f.deriv1, nu)
    half_d2_nu = 0.5 * guarded(f.deriv2, nu)
    radius = switch_radius(nu)

    def value(x: float) -> float:
        dx = x - nu
        if abs(dx) <= radius:
            return half_d2_nu
        return (guarded(f.func, x) - phi_nu) / (dx * dx) - d1_nu / dx

    def limit(e: float) -> float:
        if f.h_limit_hint is not None:
            hinted = f.h_limit_hint(e, nu)
            if hinted is not None:
                return float(hinted)
        if math.isfinite(e) and f.natural_domain.contains(e):
            v = value(e)
            if math.isnan(v):
                raise EvaluationError(f"h is not evaluable at endpoint {e} for {f.label}")
            return v
        return _probe_limit(value, e, nu)

    def noise(x: float) -> float:
        # rounding of phi is amplified by 1/dx^2 in the direct formula
        dx = max(abs(x - nu), radius)
        phi_x = abs(guarded(f.func, x))
        if not math.isfinite(phi_x):
            phi_x = 0.0
        return 8.0 * _EPS * (phi_x + abs(phi_nu)) / (dx * dx) + 4.0 * _EPS * abs(d1_nu) / dx

    return _Objective(value=value, limit=limit, domain=f.natural_domain, noise=noise)


def _curvature_objective(f: FunctionSpec) -> _Objective:
    def val(x: float) -> float:
        return 0.5 * guarded(f.deriv2, x)

    def lim(e: float) -> float:
        # only reached for endpoints outside the domain (see _endpoint_evaluation):
        # anchor the probe walk just inside it
        dom = f.natural_domain
        if math.isfinite(e):
            ref = e + (1.0 if e <= dom.lower else -1.0)
        elif math.isfinite(dom.lower):
            ref = dom.lower + 1.0
        elif math.isfinite(dom.upper):
            ref = dom.upper - 1.0
        else:
            ref = 0.0
        return _probe_limit(val, e, ref)

    return _Objective(value=val, limit=lim, domain=f.natural_domain)


def _endpoint_evaluation(obj: _Objective, interval: SupportInterval, side: str) -> HEvaluation:
    if side == "lower":
        e, closed = interval.lower, interval.lower_closed
    else:
        e, closed = interval.upper, interval.upper_closed
    if math.isfinite(e) and obj.domain.contains(e):
        v = obj.value(e)
        if math.isnan(v):
            raise EvaluationError(f"objective is not evaluable at endpoint {e}")
        if math.isinf(v):
            return HEvaluation(v, e, HMethod.ENDPOINT_LIMIT)
        return HEvaluation(v, e, HMethod.DIRECT if closed else HMethod.ENDPOINT_LIMIT)
    return HEvaluation(obj.limit(e), e, HMethod.ENDPOINT_LIMIT)


def _golden_section(fn: Callable[[float], float], a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section minimum of fn on [a, b]; NaN values repel the search."""

    def g(x: float) -> float:
        v = fn(x)
        return math.inf if math.isnan(v) else v

    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = g(x1), g(x2)
    for _ in range(200):
        if b - a <= tol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = g(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = g(x2)
    x = x1 if f1 <= f2 else x2
    return x, g(x)


def _scan_grid(interval: SupportInterval, anchor: float, domain: SupportInterval) -> np.ndarray:
    lo, hi = interval.lower, interval.upper
    base = max(1.0, abs(anchor))
    core_lo = lo if math.isfinite(lo) else anchor - 8.0 * base
    core_hi = hi if math.isfinite(hi) else anchor + 8.0 * base
    if not core_lo < core_hi:
        core_lo, core_hi = anchor - 8.0 * base, anchor + 8.0 * base
    pts = [np.linspace(core_lo, core_hi, GRID_CORE)]
    if not math.isfinite(lo):
        # log-spaced reach into the left tail
        pts.append(anchor - base * 2.0 ** np.arange(3, 3 + GRID_TAIL, dtype=float))
    else:
        # geometric approach to a finite lower endpoint
        span = core_hi - lo
        pts.append(lo + span * 2.0 ** -np.arange(2.0, 26.0))
    if not math.isfinite(hi):
        pts.append(anchor + base * 2.0 ** np.arange(3, 3 + GRID_TAIL, dtype=float))
    else:
        span = hi - core_lo
        pts.append(hi - span * 2.0 ** -np.arange(2.0, 26.0))
    grid = np.unique(np.concatenate(pts))
    keep = [x for x in grid if interval.contains(x) and domain.contains(x)]
    return np.asarray(keep, dtype=float)


def _scan_extrema(
    obj: _Objective, interval: SupportInterval, anchor: float
) -> tuple[HEvaluation, HEvaluation]:
    """Dense grid + golden-section refinement of standout extrema + endpoint limits."""
    xs = _scan_grid(interval, anchor, obj.domain)
    vs = np.array([obj.value(x) for x in xs.tolist()])
    finite = np.isfinite(vs)
    xs_f, vs_f = xs[finite].tolist(), vs[finite].tolist()
    n = len(xs_f)
    i_min = min(range(n), key=vs_f.__getitem__, default=-1)
    i_max = max(range(n), key=vs_f.__getitem__, default=-1)
    noise = obj.noise or (lambda x: 0.0)

    min_candidates: list[tuple[float, float]] = []  # (value, x)
    max_candidates: list[tuple[float, float]] = []
    for i in range(1, n - 1):
        v = vs_f[i]
        near, far = sorted((vs_f[i - 1], vs_f[i + 1]))
        is_min, is_max = v <= near, v >= far
        if not (is_min or is_max):
            continue
        eps, a, b = noise(xs_f[i]), xs_f[i - 1], xs_f[i + 1]
        tol = GOLDEN_RTOL * max(1.0, abs(xs_f[i]))
        if is_min and (i == i_min or far - v > eps):
            x, g = _golden_section(obj.value, a, b, tol)
            min_candidates.append((g, x))
        if is_max and (i == i_max or v - near > eps):
            x, g = _golden_section(lambda t: -obj.value(t), a, b, tol)
            max_candidates.append((-g, x))
    if n > 0:
        min_candidates.append((vs_f[i_min], xs_f[i_min]))
        max_candidates.append((vs_f[i_max], xs_f[i_max]))

    lo_end = _endpoint_evaluation(obj, interval, "lower")
    hi_end = _endpoint_evaluation(obj, interval, "upper")

    def as_eval(v: float, x: float) -> HEvaluation:
        if math.isinf(v):
            # overflow at an interior grid point: charge it to the nearer endpoint
            nearer = lo_end if abs(x - interval.lower) < abs(x - interval.upper) else hi_end
            return HEvaluation(v, nearer.attained_at, HMethod.ENDPOINT_LIMIT)
        return HEvaluation(v, x, HMethod.DIRECT)

    def pick(cands: list[tuple[float, float]], sign: float, ends) -> HEvaluation:
        """Best candidate at the given sign (+1 min, -1 max).

        An interior candidate must beat the endpoint value by more than the
        evaluation-noise bound at its location: the direct formula's
        cancellation can fake dips and bumps near the center, and an
        endpoint that ties within noise is the trustworthy value.  Exact
        ties go to the interior point (an attained witness reads better
        than a limit).
        """
        end_best = min(ends, key=lambda e: sign * e.value)
        if cands:
            v, x = min(cands, key=lambda c: sign * c[0])
            if sign * v < sign * end_best.value - noise(x) or v == end_best.value:
                return as_eval(v, x)
        return end_best

    inf_ev = pick(min_candidates, 1.0, (lo_end, hi_end))
    sup_ev = pick(max_candidates, -1.0, (lo_end, hi_end))
    return inf_ev, sup_ev


def h_extrema(
    f: FunctionSpec, interval: SupportInterval, nu: float
) -> tuple[HEvaluation, HEvaluation]:
    """(inf, sup) of h(.; nu) over the interval, with witnesses.

    Convex phi' sends the infimum to the left endpoint and the supremum to
    the right (h is increasing); concave phi' mirrors that.  Unknown shape
    falls back to the global scan.
    """
    if not f.natural_domain.contains_interval(interval):
        raise DomainError(
            f"interval {interval} is not inside the natural domain "
            f"{f.natural_domain} of {f.label}"
        )
    if not interval.contains(nu):
        raise DomainError(f"center nu={nu} lies outside the interval {interval}")
    obj = _h_objective(f, nu)
    if f.phi_prime_shape is Shape.CONVEX:
        return _ordered(
            _endpoint_evaluation(obj, interval, "lower"),
            _endpoint_evaluation(obj, interval, "upper"),
        )
    if f.phi_prime_shape is Shape.CONCAVE:
        return _ordered(
            _endpoint_evaluation(obj, interval, "upper"),
            _endpoint_evaluation(obj, interval, "lower"),
        )
    return _scan_extrema(obj, interval, nu)


def _ordered(
    inf_ev: HEvaluation, sup_ev: HEvaluation
) -> tuple[HEvaluation, HEvaluation]:
    # a monotone shape tag guarantees inf <= sup mathematically; a flipped
    # pair can only be endpoint-evaluation noise (e.g. h of a linear phi is
    # all cancellation), so restore the ordering rather than erroring out
    if inf_ev.value > sup_ev.value:
        return sup_ev, inf_ev
    return inf_ev, sup_ev


def curvature_extrema(
    f: FunctionSpec, interval: SupportInterval, anchor: float
) -> tuple[HEvaluation, HEvaluation]:
    """(inf, sup) of phi''/2 over the interval via the scan machinery."""
    if not f.natural_domain.contains_interval(interval):
        raise DomainError(
            f"interval {interval} is not inside the natural domain "
            f"{f.natural_domain} of {f.label}"
        )
    return _scan_extrema(_curvature_objective(f), interval, anchor)


# ---------------------------------------------------------------------------
# assembled bounds
# ---------------------------------------------------------------------------


def _check_mass_in_domain(f: FunctionSpec, d: DistributionSpec) -> None:
    lo, hi, lo_at, hi_at = d.mass_bounds()
    dom = f.natural_domain
    if lo == hi:
        ok = dom.contains(lo)
    else:
        ok = dom.contains_interval(SupportInterval(lo, hi, lo_at, hi_at))
    if not ok:
        raise DomainError(
            f"support [{lo}, {hi}] of {d!r} is not inside the natural domain "
            f"{dom} of {f.label}"
        )


def _degenerate_bounds(f: FunctionSpec, at: float, method: BoundMethod) -> GapBounds:
    detail = HEvaluation(0.5 * finite_value(f.deriv2, at, "phi''"), at, HMethod.TAYLOR_NEAR_CENTER)
    return GapBounds(0.0, 0.0, detail, detail, 0.0, method)


def jensen_bounds(f: FunctionSpec, d: DistributionSpec) -> GapBounds:
    """Two-sided gap bounds from the h extrema over the support of d."""
    _check_mass_in_domain(f, d)
    var = d.variance()
    nu = d.mean()
    lo, hi, *_ = d.mass_bounds()
    if var == 0.0 or lo == hi:
        return _degenerate_bounds(f, nu, BoundMethod.DISTRIBUTION)
    inf_ev, sup_ev = h_extrema(f, d.support, nu)
    return GapBounds(
        lower=ext_mul(inf_ev.value, var),
        upper=ext_mul(sup_ev.value, var),
        lower_detail=inf_ev,
        upper_detail=sup_ev,
        variance_used=var,
        method=BoundMethod.DISTRIBUTION,
    )


def sample_bounds(f: FunctionSpec, xs) -> GapBounds:
    """Gap bounds for a data sample: closed range [min, max], population variance."""
    arr = np.asarray(list(xs) if not isinstance(xs, np.ndarray) else xs, dtype=float).ravel()
    if arr.size < 2:
        raise ParameterError(f"need at least 2 samples, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ParameterError("samples must all be finite")
    a, b = float(arr.min()), float(arr.max())
    if not (f.natural_domain.contains(a) and f.natural_domain.contains(b)):
        raise DomainError(
            f"sample range [{a}, {b}] is not inside the natural domain "
            f"{f.natural_domain} of {f.label}"
        )
    xbar = math.fsum(arr) / arr.size
    s2 = math.fsum((x - xbar) ** 2 for x in arr) / arr.size
    # a == b also catches constant samples whose mean rounded off the point
    if s2 == 0.0 or a == b:
        return _degenerate_bounds(f, xbar, BoundMethod.SAMPLE)
    interval = SupportInterval(a, b, lower_closed=True, upper_closed=True)
    inf_ev, sup_ev = h_extrema(f, interval, xbar)
    return GapBounds(
        lower=ext_mul(inf_ev.value, s2),
        upper=ext_mul(sup_ev.value, s2),
        lower_detail=inf_ev,
        upper_detail=sup_ev,
        variance_used=s2,
        method=BoundMethod.SAMPLE,
    )


def curvature_bounds(f: FunctionSpec, d: DistributionSpec) -> GapBounds:
    """Cruder bounds replacing the h extrema by the extrema of phi''/2.

    These can never be tighter than :func:`jensen_bounds`; the nesting is
    asserted (to 1e-10 of scale) whenever the h bounds are computable.
    """
    _check_mass_in_domain(f, d)
    var = d.variance()
    nu = d.mean()
    lo, hi, *_ = d.mass_bounds()
    if var == 0.0 or lo == hi:
        return _degenerate_bounds(f, nu, BoundMethod.CURVATURE)
    inf_ev, sup_ev = curvature_extrema(f, d.support, nu)
    result = GapBounds(
        lower=ext_mul(inf_ev.value, var),
        upper=ext_mul(sup_ev.value, var),
        lower_detail=inf_ev,
        upper_detail=sup_ev,
        variance_used=var,
        method=BoundMethod.CURVATURE,
    )
    try:
        hb = jensen_bounds(f, d)
    except (NumericError, EvaluationError, LimitUndeterminedError):
        return result
    finite = [abs(v) for v in (result.lower, result.upper, hb.lower, hb.upper) if math.isfinite(v)]
    tol = 1e-10 * max(1.0, *finite) if finite else 1e-10
    # probed endpoint limits resolve values only to LIMIT_RTOL of their
    # magnitude, which scales into the bounds through the variance
    tol += 2.0 * LIMIT_RTOL * max(var, *finite) if finite else 2.0 * LIMIT_RTOL * var
    if result.lower > hb.lower + tol or result.upper < hb.upper - tol:
        raise NumericError(
            "curvature bounds came out tighter than the h bounds: "
            f"[{result.lower}, {result.upper}] vs [{hb.lower}, {hb.upper}]"
        )
    return result


@dataclass(frozen=True)
class PowerMeanBounds:
    """Bracket on the raw power moment E[X**s] and on the power mean M_s."""

    moment_lower: float
    moment_upper: float
    mean_lower: float
    mean_upper: float
    r: float
    s: float
    gap: GapBounds

    def to_json_dict(self) -> dict:
        return {
            "moment_lower": encode(self.moment_lower),
            "moment_upper": encode(self.moment_upper),
            "mean_lower": encode(self.mean_lower),
            "mean_upper": encode(self.mean_upper),
            "r": self.r,
            "s": self.s,
            "gap": self.gap.to_json_dict(),
        }


def power_mean_bounds(d: DistributionSpec, r: float, s: float) -> PowerMeanBounds:
    """Bracket E[X**s] through the transformed variable Y = X**r.

    With p = s/r, E[X**s] = E[Y**p], so the gap bounds for phi(y) = y**p
    around (E[X**r])**p bracket the raw moment; the induced bracket on
    M_s = E[X**s]**(1/s) flips ends when s < 0.
    """
    r = float(r)
    s = float(s)
    if r == 0.0 or s == 0.0:
        raise ParameterError(f"power mean needs nonzero exponents, got r={r}, s={s}")
    y = transform_power(d, r)  # validates positive support
    p = s / r
    f = power(p)
    gb = jensen_bounds(f, y)
    base = y.mean() ** p
    mo_lo = base + gb.lower
    mo_hi = base + gb.upper

    def as_mean(v: float) -> float:
        if math.isinf(v):
            return math.inf if (v > 0) == (s > 0) else 0.0
        if v <= 0.0:
            return 0.0 if s > 0 else math.inf
        return v ** (1.0 / s)

    if s > 0:
        mean_lo, mean_hi = as_mean(mo_lo), as_mean(mo_hi)
    else:
        mean_lo, mean_hi = as_mean(mo_hi), as_mean(mo_lo)
    return PowerMeanBounds(
        moment_lower=mo_lo,
        moment_upper=mo_hi,
        mean_lower=mean_lo,
        mean_upper=mean_hi,
        r=r,
        s=s,
        gap=gb,
    )


def generalized_mean_bounds(
    f: FunctionSpec,
    f_inverse: Callable[[float], float],
    d: DistributionSpec,
) -> tuple[float, float]:
    """Bracket the phi-mean phi^{-1}(E[phi(X)]) for strictly monotone phi.

    The gap bounds bracket E[phi(X)] around phi(E[X]); mapping both ends
    through the inverse (swapping when phi is decreasing) brackets the mean.
    An end that escapes the range of phi maps to the corresponding domain
    endpoint.
    """
    gb = jensen_bounds(f, d)
    mu = d.mean()
    phimu = finite_value(f.func, mu, "phi")
    slope = finite_value(f.deriv1, mu, "phi'")
    if slope == 0.0:
        raise ParameterError(f"{f.label} is not strictly monotone at the mean {mu}")
    increasing = slope > 0.0
    dom = f.natural_domain

    def invert(v: float) -> float:
        if math.isinf(v):
            high_side = v > 0
            return dom.upper if high_side == increasing else dom.lower
        w = guarded(f_inverse, v)
        if math.isfinite(w) and dom.lower <= w <= dom.upper:
            return w
        high_side = v > phimu
        return dom.upper if high_side == increasing else dom.lower

    lo_end = invert(phimu + gb.lower)
    hi_end = invert(phimu + gb.upper)
    return (lo_end, hi_end) if increasing else (hi_end, lo_end)
