"""Distribution layer: everything the bounds engine needs from X.

Uniform access to means, variances, integrals (``expect``), interval
probabilities, truncated moments, quantile cuts, and power transforms for
analytic laws, empirical samples, weighted atoms, and user-supplied densities.

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
import statistics
import sys
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DomainError, EmptyCellError, NumericError, ParameterError
from .functions import FunctionSpec, SupportInterval, guarded
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
    "equal_probability_cuts",
    "transform_power",
    "PowerTransform",
    "load_samples",
    "empirical_from_file",
]

_EPS = float(np.finfo(float).eps)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
_STD_NORMAL = statistics.NormalDist()
_FAR_TAIL = 3.0  # a normal tail from here on takes 60 terms of the Mills-ratio continued fraction


def _ndtr(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-z / _SQRT2)


def _ndtri(q: float) -> float:
    """Standard normal quantile: -inf at 0, +inf at 1, NaN outside [0, 1]."""
    if q == 0.0:
        return -math.inf
    if q == 1.0:
        return math.inf
    if not 0.0 < q < 1.0:
        return math.nan
    return _STD_NORMAL.inv_cdf(q)


@dataclass(frozen=True)
class TruncatedStats:
    """Probability mass, conditional mean, and conditional variance of a cell.

    The cell carries mass: a massless cell has no conditional moments, so
    ``truncated_stats`` raises EmptyCellError for it instead.
    """

    prob: float
    mean: float
    variance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "prob", float(self.prob))
        if not 0.0 < self.prob <= 1.0 + 1e-12:
            raise ParameterError(f"cell probability {self.prob} outside (0, 1]")
        if self.mean is None or self.variance is None:
            raise ParameterError("a cell with mass needs a mean and a variance")
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "variance", float(self.variance))
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise ParameterError("conditional moments must be finite")
        if self.variance < 0.0:
            raise ParameterError(f"conditional variance {self.variance} is negative")


def _clamp_variance(raw: float, scale: float) -> float:
    """Round tiny negative variances (cancellation noise) up to zero."""
    if raw < -1e-8 * max(1.0, scale):
        raise NumericError(f"conditional variance came out at {raw}; cancellation blew up")
    return max(0.0, raw)


_FSUM_VECTOR_MIN = 512  # math.fsum is as fast below about 300 terms; at 512 it is 1.5x slower
_FSUM_BLOCK = 2**14  # 128 KB of float64 a scratch buffer, which stays in cache
_NORMAL_MIN_EXP = sys.float_info.min_exp - 1  # 2**-1022, the smallest normal double


def _fsum(xs: np.ndarray, term: Callable | None = None, bound: float | None = None) -> float:
    """math.fsum(xs), or math.fsum(term(xs)) for an elementwise ufunc ``term`` that takes
    ``out=``, bit for bit, in a few numpy passes over each block of _FSUM_BLOCK terms.

    Error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31(1), 2008, Lemma 3.3):
    with 2**m >= n + 2 and sigma = 2**e at least 2**m * max|p|, q = (sigma + p) - sigma and
    p - q are exact, the q lie on a grid fine enough that np.sum(q) is exact in any order, and
    |p - q| <= 2**(e - 53).  m is sized by all n terms.  A block's first sigma comes from a
    scan of its own max|p|, which also finds a non-finite term; each later round's sigma is
    2**(e - 53 + m), from that bound, so a round costs no scan, and the rounds stop once no
    term is left.  A round thus takes 53 - m bits off the block, and ordinary data are used
    up in two or three.  Where that bound's grid 2**(e - 53) would fall below the normal
    range, the round's sigma comes from a scan of the terms left instead, as the first one
    does.  What a third round leaves goes in term by term, as does a block under
    _FSUM_VECTOR_MIN terms; math.fsum rounds the exact round sums and those terms once.  The
    round sums of every block are exact, and a block passes its first scan exactly when the
    whole array would: a non-finite term, all zeros or a sigma past the double range send
    every term to math.fsum, which then returns or raises as it would have.  A caller that
    knows max|p| over all the terms exactly passes it as ``bound``, which stands in for the
    first scans.  Two scratch buffers of one block are made a call; the terms are never all
    held."""
    n = xs.size
    if n < _FSUM_VECTOR_MIN:
        return math.fsum((xs if term is None else term(xs)).tolist())
    m = (n + 1).bit_length()
    p, q = np.empty(min(n, _FSUM_BLOCK)), np.empty(min(n, _FSUM_BLOCK))

    def blocks():
        for i in range(0, n, _FSUM_BLOCK):
            b = xs[i:i + _FSUM_BLOCK]
            yield b if term is None else term(b, out=p[:b.size])

    def every_term():
        return chain.from_iterable(b.tolist() for b in blocks())

    sums, top = [], 0.0
    for b in blocks():
        pb, qb = p[:b.size], q[:b.size]
        big = float(np.abs(b, out=qb).max()) if bound is None else bound
        e = math.frexp(big)[1] + m
        if not big < math.inf or e > 1023:
            return math.fsum(every_term())
        top = max(top, big)
        if b.size < _FSUM_VECTOR_MIN:
            sums += b.tolist()
            continue
        if big == 0.0:
            continue
        for _ in range(3):
            sigma = math.ldexp(1.0, e)
            np.add(b, sigma, out=qb)
            qb -= sigma
            sums.append(float(qb.sum()))
            b = np.subtract(b, qb, out=pb)
            if not b.any():
                break
            e += m - 53
            if e - 53 < _NORMAL_MIN_EXP:  # the bound's grid would be subnormal: scan, as at first
                e = math.frexp(float(np.abs(b, out=qb).max()))[1] + m
        else:
            sums += b[b != 0.0].tolist()
    return math.fsum(sums if top > 0.0 else every_term())


def _moments(xs: np.ndarray, lo: float, hi: float) -> tuple[float, float]:
    """fsum mean and population (n divisor) variance of equal-weight atoms.  The atoms' least
    and greatest, lo and hi, bound both sums' terms exactly: rounding is monotone, so the
    largest |x| and (x - m)**2 lie at those ends.  Once that bound is finite no numpy
    operation here can overflow, so none needs an error state.  Squares that overflow, or
    sum past the float range, are left to ``_scaled_variance``."""
    try:
        m = _fsum(xs, bound=max(-lo, hi)) / xs.size
    except OverflowError as exc:
        raise NumericError("the atoms sum past the float range") from exc
    bound = max((lo - m) * (lo - m), (hi - m) * (hi - m))  # float arithmetic: inf, no warning
    if bound < math.inf:
        squared_deviation = lambda b, out=None: np.square(np.subtract(b, m, out=out), out=out)
        try:
            return m, _fsum(xs, squared_deviation, bound) / xs.size
        except OverflowError:
            pass
    return m, _scaled_variance(xs, m, max(m - lo, hi - m))


def _scaled_variance(xs: np.ndarray, m: float, reach: float) -> float:
    """The variance about m of equal-weight atoms whose largest squared deviation, reach**2,
    is past the float range, though the variance itself may not be.  Each deviation is
    scaled by a power of two to below 2**500 before it is squared, and the mean square is
    scaled back: no term overflows, and the scalings are exact except for squares under some
    2**-2020 of the largest, which fall below the normal range.  A deviation past the float range
    leaves a variance past it for any number of atoms."""
    past = NumericError(f"the atoms have mean {m} and variance inf, past the float range")
    if reach == math.inf:
        raise past
    k = math.frexp(reach)[1] - 500
    scale = math.ldexp(1.0, -k)
    scaled_square = lambda b, out=None: np.square(
        np.multiply(np.subtract(b, m, out=out), scale, out=out), out=out)
    try:
        return math.ldexp(_fsum(xs, scaled_square, (reach * scale) ** 2) / xs.size, 2 * k)
    except OverflowError:
        raise past from None


def _weighted_moments(xs: np.ndarray, ws: np.ndarray, total: float) -> tuple[float, float]:
    """fsum mean and variance of atoms xs with weights ws summing to total.  float_power
    squares with libm's pow like a scalar ``x ** 2``, which np.square can miss by an ulp.
    The weights do not bound the products, so the sums hold one error state."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            m = _fsum(ws * xs) / total
            v = _fsum(ws * np.float_power(xs - m, 2)) / total
        except OverflowError as exc:
            raise NumericError("the atoms sum past the float range") from exc
    if not (math.isfinite(m) and math.isfinite(v)):
        raise NumericError(f"the atoms have mean {m} and variance {v}, past the float range")
    return m, v


def _moments_by(expect: Callable, mass: float) -> tuple[float, float]:
    """Mean and variance of a law, or of its cell of that mass, from expect(g) on it."""
    m1, _ = expect(lambda x: x)
    if not math.isfinite(m1):
        raise NumericError("law has non-finite mean")
    m1 /= mass
    m2, _ = expect(lambda x: (x - m1) ** 2)
    if not math.isfinite(m2):
        raise NumericError("law has non-finite variance")
    return m1, _clamp_variance(m2 / mass, abs(m1) + 1.0)


_CANCELLATION = 1e-4  # a variance under this share of E[Y**2] keeps fewer than about 12 of 16 digits


def _closed_power_moments(raw: Callable[[float], float], r: float, pole: float,
                          share: Callable[[float], float] | None = None):
    """Mean and variance of Y = X**r from raw(k) = E[X**k], a closed form finite for k > pole.
    The variance is E[Y**2] * share(r) when a share is given, share(r) = Var Y / E[Y**2] in a
    form that does not cancel, and Var Y = E[Y**2] - E[Y]**2 otherwise.  A divergent moment
    raises the NumericError of ``_moments_by``; None leaves both to ``expect`` where a moment
    leaves the normal float range, or where the difference would cancel more than about 4
    digits (a tiny |r|, or a narrow law far from 0)."""
    if r <= pole:
        raise NumericError("law has non-finite mean")
    if 2.0 * r <= pole:
        raise NumericError("law has non-finite variance")
    try:
        m1, m2 = raw(r), raw(2.0 * r)
    except (OverflowError, ZeroDivisionError):
        return None
    if not (sys.float_info.min <= m1 * m1 and m2 < math.inf):
        return None
    if share is not None:
        return m1, m2 * share(r)
    v = m2 - m1 * m1
    return (m1, v) if v >= _CANCELLATION * m2 else None


# zeta(k), k = 2..26: log Gamma(1 + z) = -euler_gamma z + sum_k (-1)**k zeta(k) z**k / k, |z| < 1
_ZETA = (1.6449340668482264, 1.2020569031595942, 1.0823232337111381, 1.03692775514337,
         1.0173430619844492, 1.008349277381923, 1.0040773561979444, 1.0020083928260821,
         1.000994575127818, 1.0004941886041194, 1.000246086553308, 1.0001227133475785,
         1.0000612481350588, 1.000030588236307, 1.0000152822594086, 1.0000076371976379,
         1.000003817293265, 1.0000019082127165, 1.0000009539620338, 1.0000004769329869,
         1.0000002384505027, 1.000000119219926, 1.000000059608189, 1.0000000298035034,
         1.0000000149015549)


def _gamma_share(r: float) -> float:
    """1 - Gamma(1 + r)**2 / Gamma(1 + 2 r) for |r| < 1/8: the share of E[Y**2] that Var Y takes
    for Y = X**r on an exponential X, where E[Y**2] - E[Y]**2 cancels 1.6 digits at |r| = 1/8
    and 4 at 0.008.  It is -expm1(-d) with d = lgamma(1 + 2 r) - 2 lgamma(1 + r) summed as its
    series sum_k (-1)**k zeta(k) (2**k - 2) r**k / k, k >= 2, whose terms fall by about 2 |r|
    each: the lgamma difference itself cancels the -euler_gamma r of each lgamma (8.8e-6
    relative off at r = 1e-5)."""
    d = 0.0
    for k in range(len(_ZETA) + 1, 1, -1):
        d = d * -r + _ZETA[k - 2] * (2.0**k - 2.0) / k
    return -math.expm1(-d * r * r)


def _atom_expect(g, xs: np.ndarray, ws: np.ndarray | float, cell) -> tuple[float, float]:
    """(fsum of w * g(x) over the atoms in the cell, the rounding of its products); ws is
    one weight an atom, or a float that weighs every atom alike.  A cell's atoms are the
    ``_cell_slice`` of xs, which must then be sorted; fsum rounds correctly, so the order of
    the atoms does not change a bit."""
    if cell is not None:
        inside = _cell_slice(xs, cell)
        xs, ws = xs[inside], ws[inside] if np.ndim(ws) else ws
    with np.errstate(all="ignore"):  # the exact sum is the loop that evaluates g
        terms = ws * guarded(g, xs)
    if not np.isfinite(terms).all():
        raise NumericError("g is not finite at a mass point of the law")
    return _fsum(terms), 16.0 * _EPS * max(1.0, _fsum(terms, np.abs))


def _cell_slice(xs: np.ndarray, cell: SupportInterval) -> slice:
    """The atoms of the sorted xs that lie in the cell, honouring its endpoint flags, as one
    slice found by two binary searches: every cell query of a law with atoms costs O(log n)."""
    start = xs.searchsorted(cell.lower, "left" if cell.lower_closed else "right")
    return slice(start, xs.searchsorted(cell.upper, "right" if cell.upper_closed else "left"))


class _cached:
    """functools.cached_property for the frozen laws, stored by ``object.__setattr__``.
    cached_property reads the instance ``__dict__``, and on CPython 3.11 a law whose
    ``__dict__`` has been read takes a slower path for every later attribute read: about
    1.4x for ``Normal.pdf``, which the quadrature oracle calls at every node."""

    def __init__(self, compute: Callable):
        self.compute, self.__doc__ = compute, compute.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, law, owner=None):
        if law is None:
            return self
        value = self.compute(law)
        object.__setattr__(law, self.name, value)  # found before this descriptor from now on
        return value


def _check_level(q: float) -> None:
    """Raise ParameterError unless the quantile level q lies in (0, 1)."""
    if not 0.0 < q < 1.0:
        raise ParameterError(f"quantile level must lie in (0, 1), got {q}")


class DistributionSpec:
    """Common query interface; concrete laws are the dataclasses below."""

    # every law works its moments out once, in its __post_init__, into _mean and _variance
    def mean(self) -> float:
        return self._mean

    def variance(self) -> float:
        return self._variance

    def interval_prob(self, cell: SupportInterval) -> float:
        """Cell mass; a density law without a closed form integrates it by ``expect``."""
        return min(1.0, max(0.0, self.expect(lambda x: 1.0, cell)[0]))

    def expect(
        self, g: Callable[[float], float], cell: SupportInterval | None = None
    ) -> tuple[float, float]:
        """(value, error) of E[g(X); X in cell], the integral of g against the law over
        the cell (all of the support when cell is None), not divided by the cell's mass;
        +/-inf when it diverges.  A density law integrates g * pdf, laid out by its mean
        and standard deviation on the support and by its mean and ``_scale`` on a cell.
        """
        if cell is None:
            return self._integrate(g, self.support, self.mean(), math.sqrt(self.variance()))
        lo, hi, *_ = self.mass_bounds()
        lo, hi = max(lo, cell.lower), min(hi, cell.upper)
        if not lo < hi:
            return 0.0, 0.0
        window = SupportInterval(lo, hi)
        return self._integrate(g, window, self.mean(), self._scale())

    def _integrate(self, g, window: SupportInterval, anchor: float, scale: float):
        """The one integral of g * pdf; ``expect`` picks its window and layout."""
        pdf = self.pdf
        return expectation(lambda x: float(g(x)) * pdf(x), window, anchor, scale)

    def _scale(self) -> float:
        return max(math.sqrt(self.variance()), 1e-6 * max(1.0, abs(self.mean())))

    def truncated_stats(self, cell: SupportInterval) -> TruncatedStats:
        """Cell mass p, then the cell's mean and variance by ``expect`` of g / p, which keeps
        QUADPACK's absolute tolerance at the scale of g however small p is."""
        p = self._require_prob(cell, self.interval_prob(cell))
        m, v = _moments_by(lambda g: self.expect(lambda x: g(x) / p, cell), 1.0)
        return TruncatedStats(prob=p, mean=m, variance=v)

    def quantile(self, q: float) -> float:
        raise NotImplementedError

    def _power_moments(self, r: float) -> tuple[float, float] | None:
        """Mean and variance of X**r in closed form; None when the law has none, and
        ``PowerTransform`` integrates them by ``expect``."""
        return None

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n draws of the law from ``rng``.  The Monte Carlo oracle asks for its blocks in
        turn on a helper thread, while phi runs on the calling thread: a law's sampler must
        not share state with the phi it is checked against."""
        raise ParameterError(f"{self!r} has no exact sampler; use the quadrature oracle")

    def mass_bounds(self) -> tuple[float, float, bool, bool]:
        """(lo, hi, lo_attained, hi_attained) of the mass-carrying range.

        Unlike :attr:`support` this stays usable for degenerate laws
        (e.g. a constant sample), where lo == hi.
        """
        raise NotImplementedError

    @_cached
    def support(self) -> SupportInterval:
        lo, hi, lo_at, hi_at = self.mass_bounds()
        if not lo < hi:
            raise ParameterError(
                f"law is concentrated at a single point ({lo}); it has no "
                "non-degenerate support interval"
            )
        return SupportInterval(lo, hi, lo_at, hi_at)

    def _require_prob(self, cell: SupportInterval, p: float) -> float:
        """p, the mass of the cell; EmptyCellError when it has none."""
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
        variance = self.sigma * self.sigma
        if variance == math.inf:
            raise ParameterError(f"normal sigma {self.sigma} is too large: its variance "
                                 "sigma**2 is past the float range")
        object.__setattr__(self, "_mean", self.mu)
        object.__setattr__(self, "_variance", variance)

    def mass_bounds(self):
        return -math.inf, math.inf, False, False

    def pdf(self, x: float) -> float:
        z = (x - self.mu) / self.sigma
        return math.exp(-0.5 * z * z) / (self.sigma * _SQRT_2PI)

    def cdf(self, x: float) -> float:
        if x == math.inf:
            return 1.0
        if x == -math.inf:
            return 0.0
        return _ndtr((x - self.mu) / self.sigma)

    def _standardize(self, cell: SupportInterval) -> tuple[float, float]:
        alpha = (cell.lower - self.mu) / self.sigma if math.isfinite(cell.lower) else -math.inf
        beta = (cell.upper - self.mu) / self.sigma if math.isfinite(cell.upper) else math.inf
        return alpha, beta

    def interval_prob(self, cell: SupportInterval) -> float:
        """Cell mass.

        A cell right of the mean is measured by upper tails, so that it does
        not round to zero past about 8.3 sigma.  A mass below the smallest
        normal float counts as zero: it carries too few correct digits to
        divide by.
        """
        alpha, beta = self._standardize(cell)
        if alpha >= 0.0:
            p = 0.5 * (math.erfc(alpha / _SQRT2) - math.erfc(beta / _SQRT2))
        else:
            p = _ndtr(beta) - _ndtr(alpha)
        return p if p >= sys.float_info.min else 0.0

    def truncated_stats(self, cell: SupportInterval) -> TruncatedStats:
        alpha, beta = self._standardize(cell)
        # an end whose tail carries under eps of the other end's tail is dropped: a wide cell on
        # one side of the mean is a one-sided tail, and one left bounded spans under 8.5 sd
        if alpha >= 0.0 and math.erfc(beta / _SQRT2) < _EPS * math.erfc(alpha / _SQRT2):
            beta = math.inf
        elif beta <= 0.0 and math.erfc(-alpha / _SQRT2) < _EPS * math.erfc(-beta / _SQRT2):
            alpha = -math.inf
        # the closed form below cancels terms of size 1 + a**2 against a variance of about
        # width**2/12: a bounded cell that is narrow or far out in a tail is integrated instead
        bounded = math.isfinite(alpha) and math.isfinite(beta)
        if bounded and (beta - alpha < 0.1 or alpha >= _FAR_TAIL or beta <= -_FAR_TAIL):
            return super().truncated_stats(cell)
        z = self._require_prob(cell, self.interval_prob(cell))
        # a one-sided tail from a: the closed form below cancels terms of size a**2
        a = alpha if beta == math.inf else -beta if alpha == -math.inf else 0.0
        if a >= _FAR_TAIL:
            shift, v = _tail_moments(a)
            shift = shift if beta == math.inf else -shift
            return TruncatedStats(z, self.mu + self.sigma * shift, self.sigma**2 * v)
        pa, pb = (math.exp(-0.5 * t * t) / _SQRT_2PI for t in (alpha, beta))  # 0 at +/-inf
        apa = alpha * pa if math.isfinite(alpha) else 0.0
        bpb = beta * pb if math.isfinite(beta) else 0.0
        shift = (pa - pb) / z
        m = self.mu + self.sigma * shift
        v = self.sigma**2 * _clamp_variance(1.0 + (apa - bpb) / z - shift * shift, 1.0)
        return TruncatedStats(prob=z, mean=m, variance=v)

    def quantile(self, q: float) -> float:
        _check_level(q)
        return self.mu + self.sigma * _ndtri(q)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(self.mu, self.sigma, n)


def _tail_moments(a: float) -> tuple[float, float]:
    """Mean and variance of a standard normal beyond a >= _FAR_TAIL by Laplace's continued
    fraction for the Mills ratio (Botev, JRSS-B 2017): 1/(a + t), t = 1/(a + u) and
    u = 2/(a + 3/(a + ...)) give the mean a + t and the variance 1 - (a + t) t = (u - t)/(a + u)."""
    u = 0.0
    for k in range(60, 1, -1):
        u = k / (a + u)
    t = 1.0 / (a + u)
    return a + t, (u - t) / (a + u)


# B_2k / (2k)!, k = 1..10: 1/z - 1/expm1(z) = 1/2 - sum_k B_2k z**(2k - 1) / (2k)!; at z < 1
# ten terms hold an exponential cell's mean and variance to 3e-15 (mpmath), as the closed forms do above
_BERNOULLI_TERMS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000,
                    1 / 74724249600, -3617 / 10670622842880000, 43867 / 5109094217170944000,
                    -174611 / 802857662698291200000)


@dataclass(frozen=True)
class Exponential(DistributionSpec):
    rate: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", float(self.rate))
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ParameterError(f"exponential rate must be positive, got {self.rate}")
        square = self.rate * self.rate
        variance = 1.0 / square if square > 0.0 else math.inf
        if variance == math.inf:
            raise ParameterError(f"exponential rate {self.rate} is too small: its variance "
                                 "1/rate**2 is past the float range")
        object.__setattr__(self, "_mean", 1.0 / self.rate)
        object.__setattr__(self, "_variance", variance)

    def mass_bounds(self):
        return 0.0, math.inf, False, False

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
        # the mass beyond lo times the share of it below hi: a narrow cell's mass does not cancel
        lo, hi = max(0.0, cell.lower), cell.upper
        if not lo < hi:
            return 0.0
        if hi == math.inf:
            return self._sf(lo)
        return self._sf(lo) * -math.expm1(-self.rate * (hi - lo))

    def truncated_stats(self, cell: SupportInterval) -> TruncatedStats:
        p = self._require_prob(cell, self.interval_prob(cell))
        lo = max(0.0, cell.lower)
        hi = cell.upper
        lam = self.rate
        if hi == math.inf:
            # memorylessness: the overhang is a fresh exponential
            return TruncatedStats(prob=p, mean=lo + 1.0 / lam, variance=1.0 / lam**2)
        # from lo in units of the width w, with z = lam * w, the mean is 1/z - 1/expm1(z) and the
        # variance 1/z**2 - 1/(4 sinh(z/2)**2); both cancel as z falls, so below 1 their series are summed
        w = hi - lo
        z = lam * w
        if z < 1.0:
            z2, mean, variance = z * z, 0.0, 0.0
            for k, c in reversed(list(enumerate(_BERNOULLI_TERMS))):
                mean, variance = mean * z2 + c, variance * z2 + (2 * k + 1) * c
            mean = 0.5 - z * mean
        else:
            q, mass = math.exp(-z), -math.expm1(-z)
            mean, variance = 1.0 / z - q / mass, 1.0 / (z * z) - q / (mass * mass)
        return TruncatedStats(prob=p, mean=lo + w * mean, variance=w * w * variance)

    def quantile(self, q: float) -> float:
        _check_level(q)
        return -math.log1p(-q) / self.rate

    def _power_moments(self, r: float) -> tuple[float, float] | None:
        # E[X**k] = Gamma(k + 1) / rate**k, which diverges at 0 for k <= -1
        share = _gamma_share if abs(r) < 0.125 else None
        return _closed_power_moments(lambda k: math.gamma(k + 1.0) / self.rate**k, r, -1.0, share)

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
        w = self.hi - self.lo
        if w * w == math.inf:
            raise ParameterError(f"uniform width {w} is too large: width**2 is past the float range")
        object.__setattr__(self, "_mean", 0.5 * (self.lo + self.hi))
        object.__setattr__(self, "_variance", w * w / 12.0)

    def mass_bounds(self):
        return self.lo, self.hi, False, False

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
        p = self._require_prob(cell, self.interval_prob(cell))
        a, b = self._clip(cell)
        return TruncatedStats(prob=p, mean=0.5 * (a + b), variance=(b - a) ** 2 / 12.0)

    def quantile(self, q: float) -> float:
        _check_level(q)
        return self.lo + q * (self.hi - self.lo)

    def _power_moments(self, r: float) -> tuple[float, float] | None:
        # E[X**k] = (hi**c - lo**c) / (c (hi - lo)) with c = k + 1, or log(hi / lo) / (hi - lo) at
        # c = 0, taken as the larger end's power times -expm1(-|c| log(hi / lo)) / |c|, which does
        # not cancel however narrow the law; with lo = 0 it diverges for k <= -1
        w = self.hi - self.lo
        log_ratio = math.log1p(w / self.lo) if self.lo > 0.0 else math.inf

        def raw(k: float) -> float:
            c = k + 1.0
            if c == 0.0:
                return log_ratio / w
            end = self.hi**c if c > 0.0 else self.lo**c
            return end * -math.expm1(-abs(c) * log_ratio) / (abs(c) * w)

        return _closed_power_moments(raw, r, -1.0 if self.lo == 0.0 else -math.inf)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, n)


@dataclass(frozen=True, eq=False, repr=False)
class Empirical(DistributionSpec):
    """Equal-weight atoms at the sample points; population (n divisor) variance.

    The sample is sorted once, on the first quantile or the first cell query; every cell's
    atoms are then one slice of the sorted sample, and its ends bound the cell's moment sums.
    Sums over the whole law take the samples as given and sort nothing.
    """

    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.samples, dtype=float).ravel()
        if arr.size < 2:
            raise ParameterError(f"need at least 2 samples, got {arr.size}")
        lo, hi = float(arr.min()), float(arr.max())  # NaN when any sample is NaN
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ParameterError("samples must all be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_hi", hi)
        m, v = _moments(arr, lo, hi)
        object.__setattr__(self, "_mean", m)
        object.__setattr__(self, "_variance", v)

    @_cached
    def _sorted(self) -> np.ndarray:
        srt = np.sort(self.samples)
        srt.setflags(write=False)
        return srt

    def __repr__(self) -> str:
        return f"Empirical(n={self.samples.size}, min={self._lo:g}, max={self._hi:g})"

    def mass_bounds(self):
        return self._lo, self._hi, True, True

    def interval_prob(self, cell: SupportInterval) -> float:
        inside = _cell_slice(self._sorted, cell)
        return float(inside.stop - inside.start) / self.samples.size

    def expect(self, g, cell=None):
        return _atom_expect(g, self.samples if cell is None else self._sorted,
                            1.0 / self.samples.size, cell)

    def truncated_stats(self, cell: SupportInterval) -> TruncatedStats:
        """Moments of the cell's slice of the sorted sample, bounded by its ends; fsum rounds
        correctly, so the order of the atoms does not change a bit."""
        inside = self._sorted[_cell_slice(self._sorted, cell)]
        p = self._require_prob(cell, float(inside.size) / self.samples.size)
        m, v = _moments(inside, float(inside[0]), float(inside[-1]))
        return TruncatedStats(prob=p, mean=m, variance=v)

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the sorted sample."""
        _check_level(q)
        n = self._sorted.size
        idx = max(1, math.ceil(q * n))
        return float(self._sorted[idx - 1])

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.choice(self.samples, size=n, replace=True)


@dataclass(frozen=True, eq=False)
class Discrete(DistributionSpec):
    """Weighted atoms; the coarse variable of a partition lives here.

    Atoms without mass are dropped and the rest sorted at construction, so every cell query
    (mass, moments, ``expect``) takes one slice of them.
    """

    points: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float).ravel()
        pr = np.array(self.probs, dtype=float).ravel()
        if pts.size == 0 or pts.size != pr.size:
            raise ParameterError("points and probs must be non-empty and equal-length")
        if not np.isfinite(pts).all():
            raise ParameterError("atom locations must be finite")
        if not (np.isfinite(pr) & (pr >= 0.0)).all():
            raise ParameterError("atom probabilities must be finite and nonnegative")
        total = _fsum(pr)
        if abs(total - 1.0) > 1e-12:
            raise ParameterError(f"atom probabilities sum to {total}, need 1")
        if not pr.all():  # an atom without mass is no part of the law
            pts, pr = pts[pr > 0.0], pr[pr > 0.0]
        if not (pts[1:] > pts[:-1]).all():  # a partition's coarse law comes sorted
            order = np.argsort(pts)
            pts, pr = pts[order], pr[order]
            if (pts[1:] <= pts[:-1]).any():
                raise ParameterError("atom locations must be distinct")
        pts.setflags(write=False)
        pr.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probs", pr)
        m, v = _weighted_moments(pts, pr, 1.0)
        object.__setattr__(self, "_mean", m)
        object.__setattr__(self, "_variance", v)

    def mass_bounds(self):
        return float(self.points[0]), float(self.points[-1]), True, True

    def interval_prob(self, cell: SupportInterval) -> float:
        return _fsum(self.probs[_cell_slice(self.points, cell)])

    def expect(self, g, cell=None):
        return _atom_expect(g, self.points, self.probs, cell)

    def truncated_stats(self, cell: SupportInterval) -> TruncatedStats:
        inside = _cell_slice(self.points, cell)
        p = self._require_prob(cell, _fsum(self.probs[inside]))
        m, v = _weighted_moments(self.points[inside], self.probs[inside], p)
        return TruncatedStats(prob=p, mean=m, variance=v)

    def quantile(self, q: float) -> float:
        """The first atom whose running mass reaches q, or the last atom where the running
        masses round below q; cumsum adds them in order, one rounding a step."""
        _check_level(q)
        return float(self.points[min(np.cumsum(self.probs).searchsorted(q), self.points.size - 1)])

    @_cached
    def _cdf(self) -> np.ndarray:
        cdf = np.cumsum(self.probs)
        cdf /= cdf[-1]
        return cdf

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # the draws of rng.choice(points, p=probs), which checks and sums probs on every
        # call: the same uniforms searched in the same cumulative sum, kept once
        return self.points[self._cdf.searchsorted(rng.random(n), side="right")]


@dataclass(frozen=True, eq=False)
class CustomPdf(DistributionSpec):
    """Law given by a density callable over an explicit support.

    The density must integrate to 1 over the support (checked to 1e-6).
    Its norm and moments are integrated once, at construction, laid out by
    the support: around the midpoint with a quarter of the width when it is
    bounded, one unit in from a finite end, and around 0 with scale 1 on
    the whole line.
    """

    pdf: Callable[[float], float]
    support_interval: SupportInterval
    label: str = field(default="custom-pdf", kw_only=True)

    def __post_init__(self) -> None:
        sup = self.support_interval
        if sup.bounded:
            anchor, scale = 0.5 * (sup.lower + sup.upper), sup.width / 4.0
        elif math.isfinite(sup.lower):
            anchor, scale = sup.lower + 1.0, 1.0
        elif math.isfinite(sup.upper):
            anchor, scale = sup.upper - 1.0, 1.0
        else:
            anchor, scale = 0.0, 1.0

        def integrate(g):  # the moments are not known yet, so the support lays out the integrals
            return self._integrate(g, sup, anchor, scale)

        norm, _ = integrate(lambda x: 1.0)
        if not math.isfinite(norm):
            raise NumericError("pdf does not integrate to a finite mass")
        if abs(norm - 1.0) > 1e-6:
            raise ParameterError(f"pdf integrates to {norm!r}; expected 1 within 1e-6")
        m, v = _moments_by(integrate, norm)
        object.__setattr__(self, "_mean", m)
        object.__setattr__(self, "_variance", v)

    def __repr__(self) -> str:
        return f"CustomPdf({self.label!r}, support={self.support_interval})"

    def mass_bounds(self):
        sup = self.support_interval
        return sup.lower, sup.upper, sup.lower_closed, sup.upper_closed

    def _tail_share(self, x: float, level: float, upper: bool) -> float:
        """P(X >= x) / level when upper, else P(X <= x) / level: integrating 1 / level keeps
        QUADPACK's absolute tolerance at the scale of the tail's mass however small it is."""
        sup = self.support_interval
        if not sup.lower < x < sup.upper:
            return 1.0 / level if (x <= sup.lower) == upper else 0.0
        cell = SupportInterval(x, sup.upper) if upper else SupportInterval(sup.lower, x)
        return self.expect(lambda t: 1.0 / level, cell)[0]

    def quantile(self, q: float) -> float:
        """The root of P(X <= x) = q, or of P(X >= x) = 1 - q (exact) above q = 1/2: each level
        is solved on its own tail, whose integral keeps the digits that the other side's
        would round off against 1.  The root holds its 1e-12 * (1 + |x|) only on the computed
        tail mass, which carries QUADPACK's 1e-10 absolute error: the median of a lognormal
        density comes out 8.8e-12 from 1, 4.4 times that tolerance."""
        _check_level(q)
        if q > 0.5:
            excess = lambda x: 1.0 - self._tail_share(x, 1.0 - q, upper=True)
        else:
            excess = lambda x: self._tail_share(x, q, upper=False) - 1.0
        sup = self.support_interval
        step = max(self._scale(), 1e-6)
        lo = sup.lower if math.isfinite(sup.lower) else self._mean - step
        hi = sup.upper if math.isfinite(sup.upper) else self._mean + step
        while not math.isfinite(sup.lower) and excess(lo) > 0.0:
            lo, step = lo - step, 2.0 * step
        step = max(self._scale(), 1e-6)
        while not math.isfinite(sup.upper) and excess(hi) < 0.0:
            hi, step = hi + step, 2.0 * step
        return _increasing_root(excess, lo, hi)


def _increasing_root(g: Callable[[float], float], a: float, b: float) -> float:
    """The root in [a, b] of an increasing g with g(a) <= 0 <= g(b), to 1e-12 * (1 + |x|) as
    brentq with xtol = rtol = 1e-12 has it.  False position in the Anderson-Bjorck form (BIT
    12, 1972): b is the latest point, and g(a) shrinks whenever a is kept twice.  Each step lands
    half a tolerance inside the bracket, and bisects it after three steps that did not halve it.
    The tolerance is on the root of g as computed: where g carries an error of its own, the true
    root can lie further off, by that error over the slope of g."""
    ga, gb = g(a), g(b)
    widths = [math.inf] * 3
    while ga != 0.0 != gb:
        lo, hi = min(a, b), max(a, b)
        tol = 1e-12 * (1.0 + max(abs(lo), abs(hi)))
        if hi - lo <= tol:
            break
        bisect = 2.0 * (hi - lo) > widths[-3]
        widths.append(hi - lo)
        x = 0.5 * (lo + hi) if bisect else b - gb * (b - a) / (gb - ga)
        x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        gx = g(x)
        if (gx < 0.0) != (gb < 0.0):
            a, ga = b, gb
        elif not bisect:
            m = 1.0 - gx / gb
            ga *= m if m > 0.0 else 0.5
        b, gb = x, gx
    return a if abs(ga) < abs(gb) else b


def _check_power(d: DistributionSpec, r: float) -> None:
    """Raise unless r is a finite nonzero exponent and the mass of d lies above 0."""
    if r == 0.0 or not math.isfinite(r):
        raise ParameterError(f"power transform needs a finite nonzero exponent, got {r}")
    lo, _, lo_at, _ = d.mass_bounds()
    if lo < 0.0 or (lo == 0.0 and lo_at):
        raise DomainError(f"power transform needs a strictly positive support, got lower end {lo}")


@dataclass(frozen=True, eq=False)
class PowerTransform(DistributionSpec):
    """Y = X**r for a continuous, positively supported X, as ``transform_power`` builds it.
    Y has no density of its own: ``expect`` integrates g(x**r) on X's law over the cell of X
    that maps onto Y's cell, and masses, quantiles and draws are X's.  Y's mean and variance
    are closed-form on an exponential or uniform X (``_power_moments``), and integrated by
    ``expect`` on any other law, or where the closed-form variance would cancel."""

    source: DistributionSpec
    r: float

    def __post_init__(self) -> None:
        _check_power(self.source, self.r)
        m, v = self.source._power_moments(self.r) or _moments_by(self.expect, 1.0)
        object.__setattr__(self, "_mean", m)
        object.__setattr__(self, "_variance", v)

    def _source_cell(self, cell: SupportInterval) -> SupportInterval | None:
        """The cell of X that x -> x**r maps onto the cell of Y; None when it is empty."""
        lo = max(cell.lower, 0.0)
        return _power_image(lo, cell.upper, cell.lower_closed, cell.upper_closed, 1.0 / self.r)

    def mass_bounds(self):
        y = _power_image(*self.source.mass_bounds(), self.r)
        return y.lower, y.upper, y.lower_closed, y.upper_closed

    def expect(self, g, cell=None):
        x_cell = None if cell is None else self._source_cell(cell)
        if cell is not None and x_cell is None:
            return 0.0, 0.0
        return self.source.expect(lambda x: g(x**self.r), x_cell)

    def interval_prob(self, cell: SupportInterval) -> float:
        x_cell = self._source_cell(cell)
        return 0.0 if x_cell is None else self.source.interval_prob(x_cell)

    def quantile(self, q: float) -> float:
        _check_level(q)
        # x -> x**r reverses the order of the levels when r < 0
        return float(self.source.quantile(q if self.r > 0.0 else 1.0 - q) ** self.r)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.power(self.source.sample(rng, n), self.r)


def _power_image(lo, hi, lo_closed: bool, hi_closed: bool, s: float) -> SupportInterval | None:
    """The image of (lo, hi), 0 <= lo, under t -> t**s (ends swap when s < 0); None if empty."""
    if not lo < hi:
        return None
    a, b = (math.inf if t == 0.0 and s < 0.0 else t**s for t in (lo, hi))
    if s < 0.0:
        a, b, lo_closed, hi_closed = b, a, hi_closed, lo_closed
    if not a < b:
        return None
    return SupportInterval(a, b, lo_closed and math.isfinite(a), hi_closed and math.isfinite(b))


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def _check_mass_in_domain(f: FunctionSpec, d: DistributionSpec, cell=None) -> None:
    """Raise DomainError unless the mass of d (in cell, a cell with mass, if given) lies in
    the domain of f: on a law with atoms, its atoms in the cell."""
    lo, hi, lo_at, hi_at = d.mass_bounds()
    if isinstance(d, (Empirical, Discrete)) and cell is not None:
        xs = d.points if isinstance(d, Discrete) else d._sorted
        xs = xs[_cell_slice(xs, cell)]
        lo, hi = float(xs[0]), float(xs[-1])
    elif cell is not None:
        lo, hi, lo_at, hi_at = max(lo, cell.lower), min(hi, cell.upper), False, False
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


def equal_probability_cuts(d: DistributionSpec, m: int) -> list[float]:
    """Interior cut points splitting the law into m equal-probability cells."""
    m = int(m)
    if m < 1:
        raise ParameterError(f"cell count must be >= 1, got {m}")
    cuts = [float(d.quantile(j / m)) for j in range(1, m)]
    support = d.support
    ends = [support.lower, *cuts, support.upper]
    for left, right in zip(ends, ends[1:]):
        if not left < right:
            raise ParameterError(
                f"equal-probability cuts {cuts} do not split the support {support} into "
                f"{m} cells; the law is too concentrated for {m} cells"
            )
    return cuts


def transform_power(d: DistributionSpec, r: float) -> DistributionSpec:
    """Pushforward law of Y = X**r for a positively supported X."""
    r = float(r)
    _check_power(d, r)
    if r == 1.0:
        return d
    if isinstance(d, (Empirical, Discrete)):
        with np.errstate(over="ignore", under="ignore"):  # an overflow leaves inf, refused below
            ys = np.power(d.samples if isinstance(d, Empirical) else d.points, r)
        try:
            return Empirical(ys) if isinstance(d, Empirical) else Discrete(ys, d.probs)
        except ParameterError as exc:  # the atoms are finite and positive, so X**r overflowed
            raise NumericError(
                f"X**r = X**{r} is past the float range at an atom of {d!r}") from exc
    return PowerTransform(d, r)


def load_samples(path: str | Path) -> list[float]:
    """Read one decimal number per line; blank lines and ``#`` comments ignored."""
    return _parse_samples(Path(path).read_text(encoding="utf-8"), path)


def _parse_samples(text: str, source) -> list[float]:
    """The numbers of a sample file's text; ``source`` names the file in errors."""
    values: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError as exc:
            raise ParameterError(f"{source}:{lineno}: not a decimal number: {line!r}") from exc
    return values


def empirical_from_file(path: str | Path) -> Empirical:
    return Empirical(np.asarray(load_samples(path), dtype=float))
