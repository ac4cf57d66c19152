"""Core bounds engine for the Jensen gap E[phi(X)] - phi(E[X]).

Everything revolves around the curvature ratio

    h(x; nu) = (phi(x) - phi(nu)) / (x - nu)**2 - phi'(nu) / (x - nu),

which equals half the mean-value second derivative between x and nu and has
the removable-singularity value phi''(nu)/2 at x = nu.  The gap satisfies

    inf h(x; mu) * var(X)  <=  E[phi(X)] - phi(E[X])  <=  sup h(x; mu) * var(X)

with the extrema taken over the support of X and mu = E[X].  When phi' is
convex, h and phi''/2 are nondecreasing, so their extrema sit at the support
endpoints (mirrored for concave phi'); otherwise a grid scan refined by
golden-section search locates them.  Endpoint extrema may be genuine limits
(possibly infinite).

Numerical policy:

* Within a radius of eps**(1/4) * max(1, |nu|) of nu, h switches from the
  direct formula to the second-order rule (2 phi''(nu) + phi''(x)) / 6 for
  h = int_0^1 (1 - s) phi''(nu + s (x - nu)) ds (phi''(nu)/2 at x = nu).
  At that radius the rule's truncation and the direct formula's
  cancellation both fall near 1e-8.
* The scan grid has 480-512 points (geometric toward finite endpoints,
  log-spaced into infinite tails).  It is, bit for bit, the reference
  construction np.unique(np.concatenate([np.linspace(core_lo, core_hi,
  GRID_CORE), left, right])) restricted to the interval and phi's domain,
  with the tails made of ``_TAIL_REACH`` and ``_END_APPROACH``.
  Golden-section refinement starts at the grid's best point and at any
  point no worse than both neighbours and better than one of them by more
  than the evaluation noise (mirrored for maxima), so the ties of a flat h
  start no search.  phi (phi'' for the curvature scan) is called once on
  the whole grid, so a callable that accepts an ndarray must act
  elementwise; one that raises on an ndarray is called point by point.
  The searches call it on floats.
* Every end of h and of phi''/2 is read one way: the closed-form hint when
  it gives a value, else the value at a finite end inside phi's domain,
  else a probe along a geometric sequence from nu (or the anchor).  A probe
  converges when successive values agree to 1e-8 of their magnitude and
  diverges when values exceed 1e12; a run that stops without either, at a
  failed evaluation or at the end of its budget, diverges if it kept
  drifting one way and raises LimitUndeterminedError if not.
* All products with variances use the 0 * inf = 0 convention, so a
  degenerate law yields the exact bounds [0, 0].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .distributions import (
    DistributionSpec,
    Empirical,
    _cell_slice,
    _check_mass_in_domain,
    transform_power,
)
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
    "switch_radius",
]

_EPS = float(np.finfo(float).eps)
SWITCH_RTOL = _EPS**0.25
DIVERGENCE_CUTOFF = 1e12
LIMIT_RTOL = 1e-8
LIMIT_PROBES = 60
GRID_CORE = 432
GRID_TAIL = 40
GOLDEN_RTOL = 1e-10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# the scan grid's fixed parts: the core's step indices and the tails' powers of two
_CORE_STEPS = np.arange(GRID_CORE, dtype=float)
_TAIL_REACH = 2.0 ** np.arange(3, 3 + GRID_TAIL, dtype=float)  # into an infinite tail
_END_APPROACH = 2.0 ** -np.arange(2.0, 26.0)  # toward a finite end


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
    many extrema and leave them None, and keep each cell's (inf, sup) of h
    in ``cell_extrema`` instead (empty for the other methods).
    """

    lower: float
    upper: float
    lower_detail: HEvaluation | None
    upper_detail: HEvaluation | None
    variance_used: float
    method: BoundMethod
    cell_extrema: tuple[tuple[HEvaluation, HEvaluation], ...] = ()

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
    """|x - nu| below which h is evaluated by its second-order rule."""
    return SWITCH_RTOL * max(1.0, abs(nu))


def h_eval(f: FunctionSpec, nu: float, x: float) -> HEvaluation:
    """Evaluate h(x; nu), switching to its second-order rule near the removable singularity."""
    dom = f.natural_domain
    if not dom.contains(x):
        raise DomainError(f"x={x} is outside the natural domain {dom} of {f.label}")
    if not dom.contains(nu):
        raise DomainError(f"nu={nu} is outside the natural domain {dom} of {f.label}")
    # the objective is built under finite_value's one error state
    v = finite_value(lambda t: _h_objective(f, nu).value(t), x, f"h(.; {nu}) of {f.label}")
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
            break
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
        f"{len(vals)} probes toward endpoint {endpoint} neither settled nor kept "
        "one trend; the limit is undetermined"
    )


def _monotone_sign(vals: list[float], run: int = 8) -> int:
    """Sign of a sustained drift over the last run + 1 probe values, 0 when none.

    A shorter run, of 4 to run values, counts only when its steps never shrink:
    values still settling toward a finite limit keep one sign too.
    """
    if len(vals) < 4:
        return 0
    tail = vals[-(run + 1):]
    diffs = [b - a for a, b in zip(tail, tail[1:])]
    if len(tail) <= run and any(abs(b) < abs(a) for a, b in zip(diffs, diffs[1:])):
        return 0
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
    with np.errstate(all="ignore"):
        return _endpoint(_h_objective(f, float(nu)), float(endpoint), False).value


# ---------------------------------------------------------------------------
# extrema machinery
# ---------------------------------------------------------------------------


class _Objective(NamedTuple):
    """A scalar field to be minimised/maximised over an interval.

    A named tuple, not a frozen dataclass: every h evaluation and every
    extrema search builds one, and a tuple is the cheaper to build.
    """

    value: Callable[[float], float]  # tolerant: NaN on failure
    domain: SupportInterval  # where value() may be called
    anchor: float  # where endpoint probes start
    # the values over an ndarray of points and their evaluation-noise bounds
    on_grid: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    hint: Callable[[float, float], float | None] | None = None  # (endpoint, anchor) -> value
    noise: Callable[[float], float] | None = None  # evaluation-noise bound at a point x


def _h_objective(f: FunctionSpec, nu: float) -> _Objective:
    """The one evaluator of h(.; nu): phi(nu) and phi'(nu) are taken once, and phi''(nu)
    once, on first use, by the second-order rule or at x = nu.

    ``value`` costs one guarded call of phi (of phi'' within the switch
    radius).  It takes Python floats, whose arithmetic overflows to inf
    without a numpy warning.  ``on_grid`` evaluates phi once on the whole
    grid, and phi'' once on its points within the switch radius; the
    noise bounds reuse those phi values.  Both forms share one direct
    formula and one second-order rule.  All of it runs under the error
    state of the loop that evaluates: the extrema search, the endpoint rule
    or ``h_eval``.
    """
    nu = float(nu)
    phi_nu = guarded(f.func, nu)
    d1_nu = guarded(f.deriv1, nu)
    d2_nu = None  # the monotone fast path away from nu never reads it
    radius = switch_radius(nu)

    def centre_d2() -> float:
        nonlocal d2_nu
        if d2_nu is None:
            d2_nu = guarded(f.deriv2, nu)
        return d2_nu

    def direct(phi_x, dx):
        return (phi_x - phi_nu) / (dx * dx) - d1_nu / dx

    def rule(d2_x):
        return (2.0 * centre_d2() + d2_x) / 6.0

    def value(x: float) -> float:
        dx = x - nu
        if dx == 0.0:
            return 0.5 * centre_d2()
        if abs(dx) <= radius:
            return rule(guarded(f.deriv2, x))
        return direct(guarded(f.func, x), dx)

    def noise_bound(abs_phi_x, dx):
        # rounding of phi is amplified by 1/dx^2 in the direct formula; dx is at least radius
        return 8.0 * _EPS * (abs_phi_x + abs(phi_nu)) / (dx * dx) + 4.0 * _EPS * abs(d1_nu) / dx

    def noise(x: float) -> float:
        # in float arithmetic: the scan calls it once for each winning candidate
        abs_phi_x = abs(guarded(f.func, x))
        return noise_bound(abs_phi_x if math.isfinite(abs_phi_x) else 0.0, max(abs(x - nu), radius))

    def on_grid(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        dx = xs - nu
        phi_x = guarded(f.func, xs)
        vs = direct(phi_x, dx)
        abs_dx = np.abs(dx)
        near = abs_dx <= radius
        if near.any():
            vs[near] = rule(guarded(f.deriv2, xs[near]))
            vs[dx == 0.0] = 0.5 * centre_d2()
            np.maximum(abs_dx, radius, out=abs_dx)  # elsewhere |dx| already exceeds the radius
        abs_phi_x = np.abs(phi_x)
        abs_phi_x = np.where(np.isfinite(abs_phi_x), abs_phi_x, 0.0)
        return vs, noise_bound(abs_phi_x, abs_dx)

    return _Objective(value, f.natural_domain, nu, on_grid, hint=f.h_limit_hint, noise=noise)


def _curvature_objective(f: FunctionSpec, anchor: float) -> _Objective:
    """phi''/2; an endpoint outside the domain is probed from the anchor, as h probes from nu."""

    def half_d2(x):
        return 0.5 * guarded(f.deriv2, x)

    def on_grid(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return half_d2(xs), np.zeros_like(xs)

    return _Objective(half_d2, f.natural_domain, anchor, on_grid)


def _endpoint(obj: _Objective, e: float, closed: bool) -> HEvaluation:
    """The objective at an end: its hint, else its value there, else its probed limit.

    A finite value hinted or taken at a closed end inside the domain is
    attained there (DIRECT); every other end is a limit.
    """
    v = obj.hint(e, obj.anchor) if obj.hint is not None else None
    inside = obj.domain.contains(e)
    if v is None and inside:
        v = obj.value(e)
        if math.isnan(v):
            raise EvaluationError(f"objective is not evaluable at endpoint {e}")
    if v is None:
        v = _probe_limit(obj.value, e, obj.anchor)
    attained = closed and inside and math.isfinite(v)
    return HEvaluation(v, e, HMethod.DIRECT if attained else HMethod.ENDPOINT_LIMIT)


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
    """The scan's points: those of ``np.unique`` of the core and the two tails that lie in
    the interval and the domain, bit for bit.

    The core is ``np.linspace(core_lo, core_hi, GRID_CORE)`` by linspace's own arithmetic;
    one sort, a slice for the interval and the domain, and a mask that drops each point
    equal to its left neighbour stand for ``np.unique`` and the masks.
    """
    lo, hi = interval.lower, interval.upper
    base = max(1.0, abs(anchor))
    core_lo = lo if math.isfinite(lo) else anchor - 8.0 * base
    core_hi = hi if math.isfinite(hi) else anchor + 8.0 * base
    if not core_lo < core_hi:
        core_lo, core_hi = anchor - 8.0 * base, anchor + 8.0 * base
    n_lo = _TAIL_REACH.size if not math.isfinite(lo) else _END_APPROACH.size
    n_hi = _TAIL_REACH.size if not math.isfinite(hi) else _END_APPROACH.size
    grid = np.empty(GRID_CORE + n_lo + n_hi)
    core, left, right = grid[:GRID_CORE], grid[GRID_CORE:-n_hi], grid[-n_hi:]
    step = (core_hi - core_lo) / (GRID_CORE - 1)
    if step == 0.0:  # a subnormal span, which linspace scales by its own route
        core[:] = np.linspace(core_lo, core_hi, GRID_CORE)
    else:
        np.multiply(_CORE_STEPS, step, out=core)
        core += core_lo
        core[-1] = core_hi
    if not math.isfinite(lo):
        # log-spaced reach into the left tail
        np.subtract(anchor, np.multiply(_TAIL_REACH, base, out=left), out=left)
    else:
        # geometric approach to a finite lower endpoint
        np.multiply(_END_APPROACH, core_hi - lo, out=left)
        left += lo
    if not math.isfinite(hi):
        np.multiply(_TAIL_REACH, base, out=right)
        right += anchor
    else:
        np.subtract(hi, np.multiply(_END_APPROACH, hi - core_lo, out=right), out=right)
    grid.sort()
    # NaN sorts last, past every end, so no slice takes it in
    inside, allowed = _cell_slice(grid, interval), _cell_slice(grid, domain)
    grid = grid[max(inside.start, allowed.start):min(inside.stop, allowed.stop)]
    first = np.empty(grid.size, dtype=bool)
    first[:1] = True
    np.not_equal(grid[1:], grid[:-1], out=first[1:])
    return grid[first]


def _scan_extrema(
    obj: _Objective, interval: SupportInterval, anchor: float, ends: tuple[HEvaluation, HEvaluation]
) -> tuple[HEvaluation, HEvaluation]:
    """Dense grid + golden-section refinement of standout extrema, set against the two ends."""
    xs = _scan_grid(interval, anchor, obj.domain)
    vs, eps = obj.on_grid(xs)
    finite = np.isfinite(vs)
    if not finite.all():
        xs, vs, eps = xs[finite], vs[finite], eps[finite]
    n = len(xs)

    # a point no worse than both neighbours starts a search when it beats one
    # of them by more than its noise bound, or when it is the grid's best
    mid, margin = vs[1:-1], eps[1:-1]
    near, far = np.minimum(vs[:-2], vs[2:]), np.maximum(vs[:-2], vs[2:])
    starts_min = (mid <= near) & (far - mid > margin)
    starts_max = (mid >= far) & (mid - near > margin)
    i_min, i_max = (int(vs.argmin()), int(vs.argmax())) if n else (-1, -1)
    # the best point is no worse than both neighbours: only its margin test is waived
    if 0 < i_min < n - 1:
        starts_min[i_min - 1] = True
    if 0 < i_max < n - 1:
        starts_max[i_max - 1] = True

    def refine(i: int, sign: float) -> tuple[float, float, None]:
        """(value, x, None) of the search between grid point i's neighbours (+1 min, -1 max);
        its noise bound is taken only if it wins."""
        tol = GOLDEN_RTOL * max(1.0, abs(xs.item(i)))
        x, g = _golden_section(lambda t: sign * obj.value(t), xs.item(i - 1), xs.item(i + 1), tol)
        return sign * g, x, None

    # (value, x, noise bound or None): a grid point brings the noise bound of the grid
    min_candidates = [refine(i + 1, 1.0) for i in starts_min.nonzero()[0].tolist()]
    max_candidates = [refine(i + 1, -1.0) for i in starts_max.nonzero()[0].tolist()]
    if n > 0:
        min_candidates.append((vs.item(i_min), xs.item(i_min), eps.item(i_min)))
        max_candidates.append((vs.item(i_max), xs.item(i_max), eps.item(i_max)))
    noise = obj.noise or (lambda x: 0.0)

    def as_eval(v: float, x: float) -> HEvaluation:
        if math.isinf(v):
            # non-finite grid values are dropped above, so only a golden-section search can
            # return an infinite candidate: charge it to the nearer endpoint
            nearer = ends[0] if abs(x - interval.lower) < abs(x - interval.upper) else ends[1]
            return HEvaluation(v, nearer.attained_at, HMethod.ENDPOINT_LIMIT)
        return HEvaluation(v, x, HMethod.DIRECT)

    def pick(cands: list[tuple[float, float, float | None]], sign: float, ends) -> HEvaluation:
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
            v, x, e = min(cands, key=lambda c: sign * c[0])
            if e is None:
                e = noise(x)
            if sign * v < sign * end_best.value - e or v == end_best.value:
                return as_eval(v, x)
        return end_best

    inf_ev = pick(min_candidates, 1.0, ends)
    sup_ev = pick(max_candidates, -1.0, ends)
    return inf_ev, sup_ev


def _check_domain(f: FunctionSpec, interval: SupportInterval) -> None:
    """Raise DomainError unless the interval lies in the natural domain of phi."""
    if not f.natural_domain.contains_interval(interval):
        raise DomainError(
            f"interval {interval} is not inside the natural domain "
            f"{f.natural_domain} of {f.label}"
        )


def _search(
    f: FunctionSpec,
    objective: Callable[[FunctionSpec, float], _Objective],
    interval: SupportInterval,
    anchor: float,
) -> tuple[HEvaluation, HEvaluation]:
    """(inf, sup) over the interval, with witnesses, of ``objective(f, anchor)``: h or phi''/2.

    Both are nondecreasing when phi' is convex, so the infimum sits at the
    left endpoint and the supremum at the right; concave phi' mirrors that.
    An unknown shape falls back to the global scan around the anchor.  It
    evaluates under the error state of its caller, the loop that holds it:
    ``curvature_extrema`` or ``_h_extrema_each``.
    """
    obj = objective(f, anchor)
    inf_ev = _endpoint(obj, interval.lower, interval.lower_closed)
    sup_ev = _endpoint(obj, interval.upper, interval.upper_closed)
    if f.phi_prime_shape is Shape.UNKNOWN:
        return _scan_extrema(obj, interval, anchor, (inf_ev, sup_ev))
    if f.phi_prime_shape is Shape.CONCAVE:
        inf_ev, sup_ev = sup_ev, inf_ev
    # the shape tag guarantees inf <= sup mathematically; a flipped pair can
    # only be endpoint-evaluation noise (e.g. h of a linear phi is all
    # cancellation), so restore the ordering rather than erroring out
    if inf_ev.value > sup_ev.value:
        return sup_ev, inf_ev
    return inf_ev, sup_ev


def _h_extrema_each(
    f: FunctionSpec, intervals: Iterable[tuple[SupportInterval, float]]
) -> list[tuple[HEvaluation, HEvaluation]]:
    """(inf, sup) of h(.; nu) over each (interval, nu), in order, with witnesses.

    The one loop that holds the error state for all its searches: ``h_extrema``
    passes one interval, ``partition.cell_h_extrema`` all the cells of a partition.
    """
    extrema = []
    with np.errstate(all="ignore"):
        for interval, nu in intervals:
            if not interval.contains(nu):
                raise DomainError(f"center nu={nu} lies outside the interval {interval}")
            _check_domain(f, interval)
            extrema.append(_search(f, _h_objective, interval, nu))
    return extrema


def h_extrema(
    f: FunctionSpec, interval: SupportInterval, nu: float
) -> tuple[HEvaluation, HEvaluation]:
    """(inf, sup) of h(.; nu) over the interval, with witnesses."""
    return _h_extrema_each(f, ((interval, nu),))[0]


def curvature_extrema(
    f: FunctionSpec, interval: SupportInterval, anchor: float
) -> tuple[HEvaluation, HEvaluation]:
    """(inf, sup) of phi''/2 over the interval, with witnesses."""
    _check_domain(f, interval)
    with np.errstate(all="ignore"):
        return _search(f, _curvature_objective, interval, anchor)


# ---------------------------------------------------------------------------
# assembled bounds
# ---------------------------------------------------------------------------


def _assemble(
    f: FunctionSpec,
    d: DistributionSpec,
    extrema: Callable[[FunctionSpec, SupportInterval, float], tuple[HEvaluation, HEvaluation]],
    method: BoundMethod,
) -> GapBounds:
    """inf * var(d) and sup * var(d), the extrema taken over the support at the mean."""
    _check_mass_in_domain(f, d)
    var = d.variance()
    nu = d.mean()
    lo, hi, *_ = d.mass_bounds()
    # lo == hi also catches constant samples whose mean rounded off the point
    if var == 0.0 or lo == hi:
        detail = HEvaluation(
            0.5 * finite_value(f.deriv2, nu, "phi''"), nu, HMethod.TAYLOR_NEAR_CENTER
        )
        return GapBounds(0.0, 0.0, detail, detail, 0.0, method)
    inf_ev, sup_ev = extrema(f, d.support, nu)
    return GapBounds(
        lower=ext_mul(inf_ev.value, var),
        upper=ext_mul(sup_ev.value, var),
        lower_detail=inf_ev,
        upper_detail=sup_ev,
        variance_used=var,
        method=method,
    )


def jensen_bounds(f: FunctionSpec, d: DistributionSpec) -> GapBounds:
    """Two-sided gap bounds from the h extrema over the support of d."""
    return _assemble(f, d, h_extrema, BoundMethod.DISTRIBUTION)


def sample_bounds(f: FunctionSpec, xs) -> GapBounds:
    """The distribution bounds of the empirical law of a sample.

    The extrema run over the closed range [min, max] and the variance is the
    population (n divisor) one.  ``xs`` may be any iterable of numbers, or
    an :class:`Empirical` law, which is used as it is.
    """
    if not isinstance(xs, Empirical):
        xs = Empirical(xs if isinstance(xs, np.ndarray) else list(xs))
    return _assemble(f, xs, h_extrema, BoundMethod.SAMPLE)


def curvature_bounds(f: FunctionSpec, d: DistributionSpec) -> GapBounds:
    """Cruder bounds replacing the h extrema by the extrema of phi''/2.

    These can never be tighter than :func:`jensen_bounds`; the nesting is
    asserted (to 1e-10 of scale) whenever the h bounds are computable.
    """
    result = _assemble(f, d, curvature_extrema, BoundMethod.CURVATURE)
    try:
        hb = jensen_bounds(f, d)
    except (NumericError, EvaluationError, LimitUndeterminedError):
        return result
    var = result.variance_used
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
    try:
        base = y.mean() ** p
    except OverflowError as exc:
        raise NumericError(f"the power-mean base E[X**r]**(s/r) = {y.mean()}**{p} is past the float "
                           "range") from exc
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
        with np.errstate(all="ignore"):
            w = guarded(f_inverse, v)
        if math.isfinite(w) and dom.lower <= w <= dom.upper:
            return w
        high_side = v > phimu
        return dom.upper if high_side == increasing else dom.lower

    lo_end = invert(phimu + gb.lower)
    hi_end = invert(phimu + gb.upper)
    return (lo_end, hi_end) if increasing else (hi_end, lo_end)
