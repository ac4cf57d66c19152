"""Distribution layer: everything the bounds engine needs from X.

Uniform access to means, variances, interval probabilities, truncated
moments, quantile cuts, and power transforms for analytic laws, empirical
samples, weighted discrete laws, and user-supplied densities.

Conventions:

* Empirical variance uses the n divisor (population form), matching the
  sample version of the gap bounds exactly.
* Interval probabilities are measured against the law as given; open/closed
  endpoint flags matter only for laws with atoms (Empirical, Discrete).
* Empirical quantiles are nearest-rank, hence deterministic and exact on
  order statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from .errors import DomainError, EmptyCellError, NumericError, ParameterError
from .functions import SupportInterval
from .quadrature import expectation

__all__ = [
    "DistributionSpec",
    "Normal",
    "Exponential",
    "Uniform",
    "Empirical",
    "Discrete",
    "CustomPdf",
    "TruncatedStats",
    "mean",
    "variance",
    "interval_prob",
    "truncated_stats",
    "equal_probability_cuts",
    "transform_power",
    "load_samples",
]

_EPS = float(np.finfo(float).eps)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class TruncatedStats:
    """Probability mass, conditional mean, and conditional variance of a cell.

    A zero-probability cell is representable (prob=0) but carries no mean or
    variance; they are ``None`` rather than fabricated numbers.
    """

    prob: float
    mean: float | None
    variance: float | None

    def __post_init__(self) -> None:
        object.__setattr__(self, "prob", float(self.prob))
        if not 0.0 <= self.prob <= 1.0 + 1e-12:
            raise ParameterError(f"cell probability {self.prob} outside [0, 1]")
        if self.prob == 0.0:
            if self.mean is not None or self.variance is not None:
                raise ParameterError("a zero-probability cell has no defined moments")
            return
        if self.mean is None or self.variance is None:
            raise ParameterError("a positive-probability cell needs mean and variance")
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "variance", float(self.variance))
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise ParameterError("conditional moments must be finite")
        if self.variance < 0.0:
            raise ParameterError(f"conditional variance {self.variance} is negative")

    @property
    def defined(self) -> bool:
        return self.prob > 0.0


def _clamp_variance(raw: float, scale: float) -> float:
    """Round tiny negative variances (cancellation noise) up to zero."""
    if raw < -1e-8 * max(1.0, scale):
        raise NumericError(f"conditional variance came out at {raw}; cancellation blew up")
    return max(0.0, raw)


class DistributionSpec:
    """Common query interface; concrete laws are the dataclasses below."""

    def mean(self) -> float:
        raise NotImplementedError

    def variance(self) -> float:
        raise NotImplementedError

    def interval_prob(self, cell: SupportInterval) -> float:
        raise NotImplementedError

    def truncated_stats(self, cell: SupportInterval) -> TruncatedStats:
        raise NotImplementedError

    def quantile(self, q: float) -> float:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def mass_bounds(self) -> tuple[float, float, bool, bool]:
        """(lo, hi, lo_attained, hi_attained) of the mass-carrying range.

        Unlike :attr:`support` this stays usable for degenerate laws
        (e.g. a constant sample), where lo == hi.
        """
        raise NotImplementedError

    @property
    def support(self) -> SupportInterval:
        lo, hi, lo_at, hi_at = self.mass_bounds()
        if not lo < hi:
            raise ParameterError(
                f"law is concentrated at a single point ({lo}); it has no "
                "non-degenerate support interval"
            )
        return SupportInterval(lo, hi, lo_at, hi_at)

    def _require_prob(self, cell: SupportInterval) -> float:
        p = self.interval_prob(cell)
        if p <= 0.0:
            raise EmptyCellError(f"cell {cell} has zero probability under {self!r}")
        return p


@dataclass(frozen=True)
class Normal(DistributionSpec):
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "sigma", float(self.sigma))
        if not math.isfinite(self.mu):
            raise ParameterError(f"normal mean must be finite, got {self.mu}")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ParameterError(f"normal sigma must be positive, got {self.sigma}")

    def mass_bounds(self):
        return -math.inf, math.inf, False, False

    def mean(self) -> float:
        return self.mu

    def variance(self) -> float:
        return self.sigma * self.sigma

    def pdf(self, x: float) -> float:
        z = (x - self.mu) / self.sigma
        return math.exp(-0.5 * z * z) / (self.sigma * _SQRT_2PI)

    def cdf(self, x: float) -> float:
        if x == math.inf:
            return 1.0
        if x == -math.inf:
            return 0.0
        return float(ndtr((x - self.mu) / self.sigma))

    def interval_prob(self, cell: SupportInterval) -> float:
        return max(0.0, self.cdf(cell.upper) - self.cdf(cell.lower))

    def truncated_stats(self, cell: SupportInterval) -> TruncatedStats:
        p = self._require_prob(cell)
        alpha = (cell.lower - self.mu) / self.sigma if math.isfinite(cell.lower) else -math.inf
        beta = (cell.upper - self.mu) / self.sigma if math.isfinite(cell.upper) else math.inf
        z = float(ndtr(beta) - ndtr(alpha))
        if z <= 0.0:
            raise EmptyCellError(f"cell {cell} has zero probability under {self!r}")
        pa = _std_normal_pdf(alpha)
        pb = _std_normal_pdf(beta)
        apa = alpha * pa if math.isfinite(alpha) else 0.0
        bpb = beta * pb if math.isfinite(beta) else 0.0
        shift = (pa - pb) / z
        m = self.mu + self.sigma * shift
        v = self.sigma**2 * _clamp_variance(1.0 + (apa - bpb) / z - shift * shift, 1.0)
        return TruncatedStats(prob=p, mean=m, variance=v)

    def quantile(self, q: float) -> float:
        return self.mu + self.sigma * float(ndtri(q))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(self.mu, self.sigma, n)


def _std_normal_pdf(z: float) -> float:
    if math.isinf(z):
        return 0.0
    return math.exp(-0.5 * z * z) / _SQRT_2PI


@dataclass(frozen=True)
class Exponential(DistributionSpec):
    rate: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", float(self.rate))
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ParameterError(f"exponential rate must be positive, got {self.rate}")

    def mass_bounds(self):
        return 0.0, math.inf, False, False

    def mean(self) -> float:
        return 1.0 / self.rate

    def variance(self) -> float:
        return 1.0 / (self.rate * self.rate)

    def pdf(self, x: float) -> float:
        if x < 0.0:
            return 0.0
        return self.rate * math.exp(-self.rate * x)

    def _sf(self, x: float) -> float:
        """P(X > x), exact at the support edges."""
        if x <= 0.0:
            return 1.0
        if x == math.inf:
            return 0.0
        return math.exp(-self.rate * x)

    def interval_prob(self, cell: SupportInterval) -> float:
        return max(0.0, self._sf(cell.lower) - self._sf(cell.upper))

    def truncated_stats(self, cell: SupportInterval) -> TruncatedStats:
        p = self._require_prob(cell)
        lo = max(0.0, cell.lower)
        hi = cell.upper
        lam = self.rate
        if hi == math.inf:
            # memorylessness: the overhang is a fresh exponential
            return TruncatedStats(prob=p, mean=lo + 1.0 / lam, variance=1.0 / lam**2)
        z = lam * (hi - lo)
        q = math.exp(-z)
        mass = -math.expm1(-z)
        m1 = (1.0 - q * (1.0 + z)) / (lam * mass)
        m2 = (2.0 - q * (z * z + 2.0 * z + 2.0)) / (lam * lam * mass)
        v = _clamp_variance(m2 - m1 * m1, m2)
        return TruncatedStats(prob=p, mean=lo + m1, variance=v)

    def quantile(self, q: float) -> float:
        return -math.log1p(-q) / self.rate

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, n)


@dataclass(frozen=True)
class Uniform(DistributionSpec):
    lo: float
    hi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ParameterError(f"uniform needs finite lo < hi, got {self.lo}, {self.hi}")

    def mass_bounds(self):
        return self.lo, self.hi, False, False

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def variance(self) -> float:
        w = self.hi - self.lo
        return w * w / 12.0

    def pdf(self, x: float) -> float:
        if self.lo <= x <= self.hi:
            return 1.0 / (self.hi - self.lo)
        return 0.0

    def _clip(self, cell: SupportInterval) -> tuple[float, float]:
        return max(self.lo, cell.lower), min(self.hi, cell.upper)

    def interval_prob(self, cell: SupportInterval) -> float:
        a, b = self._clip(cell)
        return max(0.0, (b - a) / (self.hi - self.lo))

    def truncated_stats(self, cell: SupportInterval) -> TruncatedStats:
        p = self._require_prob(cell)
        a, b = self._clip(cell)
        return TruncatedStats(prob=p, mean=0.5 * (a + b), variance=(b - a) ** 2 / 12.0)

    def quantile(self, q: float) -> float:
        return self.lo + q * (self.hi - self.lo)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, n)


@dataclass(frozen=True, eq=False, repr=False)
class Empirical(DistributionSpec):
    """Equal-weight atoms at the sample points; population (n divisor) variance."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=float).ravel().copy()
        if arr.size < 2:
            raise ParameterError(f"need at least 2 samples, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("samples must all be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        srt = np.sort(arr)
        srt.setflags(write=False)
        object.__setattr__(self, "_sorted", srt)

    def __repr__(self) -> str:
        s = self._sorted
        return f"Empirical(n={s.size}, min={s[0]:g}, max={s[-1]:g})"

    def mass_bounds(self):
        s = self._sorted
        return float(s[0]), float(s[-1]), True, True

    def mean(self) -> float:
        return math.fsum(self.samples) / self.samples.size

    def variance(self) -> float:
        m = self.mean()
        return math.fsum((x - m) ** 2 for x in self.samples) / self.samples.size

    def _mask(self, cell: SupportInterval) -> np.ndarray:
        x = self.samples
        lo_ok = (x >= cell.lower) if cell.lower_closed else (x > cell.lower)
        hi_ok = (x <= cell.upper) if cell.upper_closed else (x < cell.upper)
        return lo_ok & hi_ok

    def interval_prob(self, cell: SupportInterval) -> float:
        return float(np.count_nonzero(self._mask(cell))) / self.samples.size

    def truncated_stats(self, cell: SupportInterval) -> TruncatedStats:
        p = self._require_prob(cell)
        sub = self.samples[self._mask(cell)]
        m = math.fsum(sub) / sub.size
        v = math.fsum((x - m) ** 2 for x in sub) / sub.size
        return TruncatedStats(prob=p, mean=m, variance=v)

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the sorted sample."""
        if not 0.0 < q < 1.0:
            raise ParameterError(f"quantile level must lie in (0, 1), got {q}")
        n = self._sorted.size
        idx = max(1, math.ceil(q * n))
        return float(self._sorted[idx - 1])

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.choice(self.samples, size=n, replace=True)


@dataclass(frozen=True, eq=False)
class Discrete(DistributionSpec):
    """Weighted atoms; the coarse variable of a partition lives here."""

    points: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float).ravel().copy()
        pr = np.asarray(self.probs, dtype=float).ravel().copy()
        if pts.size == 0 or pts.size != pr.size:
            raise ParameterError("points and probs must be non-empty and equal-length")
        if not np.all(np.isfinite(pts)):
            raise ParameterError("atom locations must be finite")
        if np.any(pr < 0.0):
            raise ParameterError("atom probabilities must be nonnegative")
        if abs(math.fsum(pr) - 1.0) > 1e-12:
            raise ParameterError(f"atom probabilities sum to {math.fsum(pr)}, need 1")
        order = np.argsort(pts)
        pts, pr = pts[order], pr[order]
        if pts.size > 1 and np.any(np.diff(pts) <= 0.0):
            raise ParameterError("atom locations must be distinct")
        pts.setflags(write=False)
        pr.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probs", pr)

    def mass_bounds(self):
        return float(self.points[0]), float(self.points[-1]), True, True

    def mean(self) -> float:
        return math.fsum(p * x for p, x in zip(self.probs, self.points))

    def variance(self) -> float:
        m = self.mean()
        return math.fsum(p * (x - m) ** 2 for p, x in zip(self.probs, self.points))

    def _mask(self, cell: SupportInterval) -> np.ndarray:
        x = self.points
        lo_ok = (x >= cell.lower) if cell.lower_closed else (x > cell.lower)
        hi_ok = (x <= cell.upper) if cell.upper_closed else (x < cell.upper)
        return lo_ok & hi_ok

    def interval_prob(self, cell: SupportInterval) -> float:
        return float(math.fsum(self.probs[self._mask(cell)]))

    def truncated_stats(self, cell: SupportInterval) -> TruncatedStats:
        p = self._require_prob(cell)
        mask = self._mask(cell)
        pts, pr = self.points[mask], self.probs[mask]
        m = math.fsum(w * x for w, x in zip(pr, pts)) / p
        v = math.fsum(w * (x - m) ** 2 for w, x in zip(pr, pts)) / p
        return TruncatedStats(prob=p, mean=m, variance=v)

    def quantile(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            raise ParameterError(f"quantile level must lie in (0, 1), got {q}")
        acc = 0.0
        for x, w in zip(self.points, self.probs):
            acc += w
            if acc >= q:
                return float(x)
        return float(self.points[-1])

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.choice(self.points, size=n, replace=True, p=self.probs)


@dataclass(frozen=True, eq=False)
class CustomPdf(DistributionSpec):
    """Law given by a density callable over an explicit support.

    The density must integrate to 1 over the support (checked to 1e-6).
    ``anchor``/``scale_hint`` locate the bulk of the mass for the adaptive
    integrator; when omitted they are derived from the support geometry.
    Moments are computed once at construction and cached.
    """

    pdf: Callable[[float], float]
    support_interval: SupportInterval
    quadrature_budget: int = 200
    anchor: float | None = None
    scale_hint: float | None = None
    label: str = "custom-pdf"

    def __post_init__(self) -> None:
        sup = self.support_interval
        anchor = self.anchor
        if anchor is None:
            if sup.bounded:
                anchor = 0.5 * (sup.lower + sup.upper)
            elif math.isfinite(sup.lower):
                anchor = sup.lower + 1.0
            elif math.isfinite(sup.upper):
                anchor = sup.upper - 1.0
            else:
                anchor = 0.0
        scale = self.scale_hint
        if scale is None or not (math.isfinite(scale) and scale > 0.0):
            scale = sup.width / 4.0 if sup.bounded else 1.0
        object.__setattr__(self, "anchor", float(anchor))
        object.__setattr__(self, "scale_hint", float(scale))

        guarded = self._guarded_pdf()
        norm, _ = expectation(guarded, sup, anchor, scale, self.quadrature_budget)
        if not math.isfinite(norm):
            raise NumericError("pdf does not integrate to a finite mass")
        if abs(norm - 1.0) > 1e-6:
            raise ParameterError(f"pdf integrates to {norm!r}; expected 1 within 1e-6")
        m1, _ = expectation(lambda x: x * guarded(x), sup, anchor, scale, self.quadrature_budget)
        if not math.isfinite(m1):
            raise NumericError("law has non-finite mean")
        m1 /= norm
        m2, _ = expectation(
            lambda x: (x - m1) ** 2 * guarded(x), sup, anchor, scale, self.quadrature_budget
        )
        if not math.isfinite(m2):
            raise NumericError("law has non-finite variance")
        v = _clamp_variance(m2 / norm, abs(m1) + 1.0)
        object.__setattr__(self, "_mean", float(m1))
        object.__setattr__(self, "_variance", float(v))
        object.__setattr__(self, "_cdf_grid", None)

    def _guarded_pdf(self) -> Callable[[float], float]:
        sup = self.support_interval
        raw = self.pdf

        def guarded(x: float) -> float:
            if x < sup.lower or x > sup.upper:
                return 0.0
            return float(raw(x))

        return guarded

    def __repr__(self) -> str:
        return f"CustomPdf({self.label!r}, support={self.support_interval})"

    def mass_bounds(self):
        sup = self.support_interval
        return sup.lower, sup.upper, sup.lower_closed, sup.upper_closed

    def mean(self) -> float:
        return self._mean

    def variance(self) -> float:
        return self._variance

    def _scale(self) -> float:
        return max(math.sqrt(self._variance), 1e-6 * max(1.0, abs(self._mean)))

    def interval_prob(self, cell: SupportInterval) -> float:
        sup = self.support_interval
        lo = max(sup.lower, cell.lower)
        hi = min(sup.upper, cell.upper)
        if not lo < hi:
            return 0.0
        window = SupportInterval(lo, hi)
        p, _ = expectation(
            self._guarded_pdf(), window, self._cell_anchor(window), self._scale(),
            self.quadrature_budget,
        )
        return min(1.0, max(0.0, p))

    def _cell_anchor(self, cell: SupportInterval) -> float:
        if cell.bounded:
            return 0.5 * (cell.lower + cell.upper)
        m = self._mean if hasattr(self, "_mean") else self.anchor
        if cell.contains(m):
            return m
        if math.isfinite(cell.lower):
            return cell.lower + self._scale()
        return cell.upper - self._scale()

    def truncated_stats(self, cell: SupportInterval) -> TruncatedStats:
        p = self._require_prob(cell)
        sup = self.support_interval
        window = SupportInterval(max(sup.lower, cell.lower), min(sup.upper, cell.upper))
        anchor = self._cell_anchor(window)
        guarded = self._guarded_pdf()
        m1, _ = expectation(
            lambda x: x * guarded(x), window, anchor, self._scale(), self.quadrature_budget
        )
        m1 /= p
        m2, _ = expectation(
            lambda x: (x - m1) ** 2 * guarded(x), window, anchor, self._scale(),
            self.quadrature_budget,
        )
        v = _clamp_variance(m2 / p, abs(m1) + 1.0)
        return TruncatedStats(prob=p, mean=m1, variance=v)

    def _cdf(self, x: float) -> float:
        sup = self.support_interval
        if x <= sup.lower:
            return 0.0
        if x >= sup.upper:
            return 1.0
        return self.interval_prob(SupportInterval(sup.lower, x))

    def quantile(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            raise ParameterError(f"quantile level must lie in (0, 1), got {q}")
        sup = self.support_interval
        step = max(self._scale(), 1e-6)
        lo = sup.lower if math.isfinite(sup.lower) else self._mean - step
        hi = sup.upper if math.isfinite(sup.upper) else self._mean + step
        while not math.isfinite(sup.lower) and self._cdf(lo) > q:
            lo -= step
            step *= 2.0
        step = max(self._scale(), 1e-6)
        while not math.isfinite(sup.upper) and self._cdf(hi) < q:
            hi += step
            step *= 2.0
        return float(brentq(lambda x: self._cdf(x) - q, lo, hi, xtol=1e-12, rtol=1e-12))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Inverse-CDF sampling off a cached dense grid (fallback-grade)."""
        grid = getattr(self, "_cdf_grid")
        if grid is None:
            sup = self.support_interval
            sd = self._scale()
            a = sup.lower if math.isfinite(sup.lower) else self._mean - 40.0 * sd
            b = sup.upper if math.isfinite(sup.upper) else self._mean + 40.0 * sd
            xs = np.linspace(a, b, 65537)
            guarded = self._guarded_pdf()
            ys = np.array([guarded(x) for x in xs])
            cdf = np.concatenate([[0.0], np.cumsum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs))])
            cdf /= cdf[-1]
            grid = (xs, cdf)
            object.__setattr__(self, "_cdf_grid", grid)
        xs, cdf = grid
        u = rng.uniform(0.0, 1.0, n)
        return np.interp(u, cdf, xs)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def mean(d: DistributionSpec) -> float:
    return d.mean()


def variance(d: DistributionSpec) -> float:
    return d.variance()


def interval_prob(d: DistributionSpec, cell: SupportInterval) -> float:
    return d.interval_prob(cell)


def truncated_stats(d: DistributionSpec, cell: SupportInterval) -> TruncatedStats:
    return d.truncated_stats(cell)


def equal_probability_cuts(d: DistributionSpec, m: int) -> list[float]:
    """Interior cut points splitting the law into m equal-probability cells."""
    m = int(m)
    if m < 1:
        raise ParameterError(f"cell count must be >= 1, got {m}")
    cuts = [float(d.quantile(j / m)) for j in range(1, m)]
    support = d.support
    for c in cuts:
        if not support.lower < c < support.upper:
            raise ParameterError(
                f"equal-probability cut {c} falls on an endpoint of the support "
                f"{support}; the law is too concentrated for {m} cells"
            )
    for left, right in zip(cuts, cuts[1:]):
        if not left < right:
            raise ParameterError(
                f"equal-probability cuts are not strictly increasing ({left} then "
                f"{right}); the law is too concentrated for {m} cells"
            )
    return cuts


def transform_power(d: DistributionSpec, r: float) -> DistributionSpec:
    """Pushforward law of Y = X**r for a positively supported X."""
    r = float(r)
    if r == 0.0 or not math.isfinite(r):
        raise ParameterError(f"power transform needs a finite nonzero exponent, got {r}")
    lo, hi, lo_at, hi_at = d.mass_bounds()
    if lo < 0.0 or (lo == 0.0 and lo_at):
        raise DomainError(f"power transform needs a strictly positive support, got lower end {lo}")
    if r == 1.0:
        return d
    if isinstance(d, Empirical):
        return Empirical(np.power(d.samples, r))
    if isinstance(d, Discrete):
        return Discrete(np.power(d.points, r), d.probs)
    return _transform_continuous(d, r)


def _map_power_end(t: float, r: float) -> float:
    if t == 0.0:
        return math.inf if r < 0.0 else 0.0
    if math.isinf(t):
        return 0.0 if r < 0.0 else math.inf
    return t**r


def _transform_continuous(d: DistributionSpec, r: float) -> CustomPdf:
    lo, hi, lo_at, hi_at = d.mass_bounds()
    ends = [(_map_power_end(lo, r), lo_at), (_map_power_end(hi, r), hi_at)]
    ends.sort(key=lambda e: e[0])
    (new_lo, lo_closed), (new_hi, hi_closed) = ends
    support = SupportInterval(
        new_lo,
        new_hi,
        lo_closed and math.isfinite(new_lo),
        hi_closed and math.isfinite(new_hi),
    )
    inv_r = 1.0 / r

    def pdf_y(y: float) -> float:
        if y <= 0.0:
            return 0.0
        x = y**inv_r
        return d.pdf(x) * abs(inv_r) * y ** (inv_r - 1.0)

    m = d.mean()
    sd = math.sqrt(d.variance())
    anchor = m**r
    scale = abs(r) * m ** (r - 1.0) * sd  # delta-method spread of Y
    budget = getattr(d, "quadrature_budget", 200)
    return CustomPdf(
        pdf=pdf_y,
        support_interval=support,
        quadrature_budget=budget,
        anchor=anchor,
        scale_hint=scale,
        label=f"power-transform(r={r:g})",
    )


def load_samples(path: str | Path) -> list[float]:
    """Read one decimal number per line; blank lines and ``#`` comments ignored."""
    values: list[float] = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError as exc:
            raise ParameterError(f"{path}:{lineno}: not a decimal number: {line!r}") from exc
    return values


def empirical_from_file(path: str | Path) -> Empirical:
    return Empirical(np.asarray(load_samples(path), dtype=float))
