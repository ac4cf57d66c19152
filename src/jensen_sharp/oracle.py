"""Independent ground-truth estimation of the Jensen gap.

Estimates E[phi(X)] - phi(E[X]) by exact summation (laws with atoms),
adaptive quadrature with divergence classification (laws with densities),
or seeded Monte Carlo on request, always reporting an error bound.  The
bounds modules never feed these estimates; they exist to verify that every
computed [lower, upper] pair brackets the truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distributions import (
    CustomPdf,
    Discrete,
    DistributionSpec,
    Empirical,
    SupportInterval,
)
from .errors import DomainError, EmptyCellError, NumericError, ParameterError
from .extreal import encode
from .functions import FunctionSpec, guarded
from .quadrature import expectation

__all__ = [
    "OracleMethod",
    "GapEstimate",
    "estimate_gap",
    "estimate_conditional_gap",
    "DEFAULT_SEED",
    "DEFAULT_MC_BUDGET",
]

DEFAULT_SEED = 42
DEFAULT_MC_BUDGET = 1_000_000
_EPS = float(np.finfo(float).eps)


class OracleMethod(Enum):
    QUADRATURE = "quadrature"
    EXACT_SUM = "exact-sum"
    MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True)
class GapEstimate:
    """Gap estimate with a finite error bound.

    ``value`` is +/-inf when the defining integral diverges (the direction
    is then certain, so the error bound is zero).  Monte Carlo estimates
    carry their seed and sample count and use 3 standard errors as the bound.
    """

    value: float
    error_bound: float
    method: OracleMethod
    mc_seed: int | None = None
    mc_samples: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "error_bound", float(self.error_bound))
        if math.isnan(self.value):
            raise NumericError("gap estimate is NaN")
        if not (math.isfinite(self.error_bound) and self.error_bound >= 0.0):
            raise NumericError(f"error bound must be finite and >= 0, got {self.error_bound}")

    def to_json_dict(self) -> dict:
        method = self.method.value
        if self.method is OracleMethod.MONTE_CARLO:
            method = f"monte-carlo(n={self.mc_samples},seed={self.mc_seed})"
        return {"value": encode(self.value), "error_bound": self.error_bound, "method": method}


def _check_domain(f: FunctionSpec, d: DistributionSpec) -> None:
    lo, hi, lo_at, hi_at = d.mass_bounds()
    dom = f.natural_domain
    ok = dom.contains(lo) if lo == hi else dom.contains_interval(
        SupportInterval(lo, hi, lo_at, hi_at)
    )
    if not ok:
        raise DomainError(
            f"support [{lo}, {hi}] of {d!r} is not inside the natural domain "
            f"{dom} of {f.label}"
        )


def _apply(fn, xs: np.ndarray) -> np.ndarray:
    """Vectorised application with a scalar fallback for plain-Python callables."""
    try:
        with np.errstate(all="ignore"):
            out = np.asarray(fn(xs), dtype=float)
        if out.shape == xs.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([guarded(fn, x) for x in xs])


def _exact_sum(f: FunctionSpec, points: np.ndarray, weights: np.ndarray, mu: float) -> GapEstimate:
    phivals = _apply(f.func, points)
    if not np.all(np.isfinite(phivals)):
        raise NumericError("phi is not finite at a mass point of the law")
    e_phi = math.fsum(w * v for w, v in zip(weights, phivals))
    phimu = float(f.func(mu))
    scale = max(1.0, math.fsum(abs(w * v) for w, v in zip(weights, phivals)), abs(phimu))
    # fsum is exactly rounded; the products and the final subtraction dominate
    err = 16.0 * _EPS * scale
    return GapEstimate(e_phi - phimu, err, OracleMethod.EXACT_SUM)


def _quadrature(f: FunctionSpec, d, budget: int) -> GapEstimate:
    mu = d.mean()
    sd = math.sqrt(d.variance())

    def integrand(x: float) -> float:
        return float(f.func(x)) * d.pdf(x)

    value, err = expectation(integrand, d.support, mu, sd, budget)
    if math.isinf(value):
        return GapEstimate(value, 0.0, OracleMethod.QUADRATURE)
    phimu = float(f.func(mu))
    err += 4.0 * _EPS * max(1.0, abs(value), abs(phimu))
    return GapEstimate(value - phimu, err, OracleMethod.QUADRATURE)


def _monte_carlo(f: FunctionSpec, d, budget: int, seed: int) -> GapEstimate:
    n = int(budget)
    if n < 2:
        raise ParameterError(f"monte carlo needs at least 2 samples, got {n}")
    rng = np.random.default_rng(seed)
    xs = np.asarray(d.sample(rng, n), dtype=float)
    vals = _apply(f.func, xs)
    if not np.all(np.isfinite(vals)):
        raise NumericError(
            "monte carlo hit non-finite phi values; the gap likely diverges "
            "(use the quadrature oracle for a classified verdict)"
        )
    e_phi = float(np.mean(vals))
    se = float(np.std(vals, ddof=1)) / math.sqrt(n)
    phimu = float(f.func(d.mean()))
    return GapEstimate(
        e_phi - phimu, 3.0 * se, OracleMethod.MONTE_CARLO, mc_seed=seed, mc_samples=n
    )


def estimate_gap(
    f: FunctionSpec,
    d: DistributionSpec,
    budget: int = DEFAULT_MC_BUDGET,
    method: str = "auto",
    seed: int | None = None,
) -> GapEstimate:
    """Estimate E[phi(X)] - phi(E[X]) with a reported error bound.

    ``method`` is one of ``auto`` (exact summation for laws with atoms,
    quadrature otherwise), ``quad``, ``mc``, or ``exact``.  ``budget`` is
    the Monte Carlo sample count or the quadrature subdivision allowance.
    A divergent integral comes back as value +/-inf rather than an error.
    """
    _check_domain(f, d)
    seed = DEFAULT_SEED if seed is None else int(seed)
    method = method.lower()
    if method not in ("auto", "quad", "mc", "exact"):
        raise ParameterError(f"unknown oracle method {method!r}; expected auto, quad, mc, or exact")

    has_atoms = isinstance(d, (Empirical, Discrete))
    if method == "exact" or (method == "auto" and has_atoms):
        if isinstance(d, Empirical):
            n = d.samples.size
            return _exact_sum(f, d.samples, np.full(n, 1.0 / n), d.mean())
        if isinstance(d, Discrete):
            return _exact_sum(f, d.points, d.probs, d.mean())
        raise ParameterError(f"exact summation needs a law with atoms, got {d!r}")
    if method == "mc":
        return _monte_carlo(f, d, budget, seed)
    if has_atoms:  # quad requested on an atomic law: exact summation is the honest answer
        return estimate_gap(f, d, budget, "exact", seed)
    return _quadrature(f, d, budget)


def _conditional(d: DistributionSpec, cell: SupportInterval) -> DistributionSpec:
    """The law of X given X in cell, built without the closed-form moments."""
    p = d.interval_prob(cell)
    if p <= 0.0:
        raise EmptyCellError(f"cell {cell} has zero probability under {d!r}")
    if isinstance(d, Empirical):
        sub = d.samples[d._mask(cell)]
        values, counts = np.unique(sub, return_counts=True)
        if values.size == 1:
            return Discrete(values, np.array([1.0]))
        return Empirical(sub)
    if isinstance(d, Discrete):
        mask = d._mask(cell)
        return Discrete(d.points[mask], d.probs[mask] / p)
    lo, hi, *_ = d.mass_bounds()
    window = SupportInterval(max(lo, cell.lower), min(hi, cell.upper))
    ts = d.truncated_stats(cell)
    sd = math.sqrt(d.variance())

    def cond_pdf(x: float) -> float:
        return d.pdf(x) / p

    return CustomPdf(
        pdf=cond_pdf,
        support_interval=window,
        quadrature_budget=getattr(d, "quadrature_budget", 200),
        anchor=ts.mean,
        scale_hint=min(math.sqrt(ts.variance), sd) if ts.variance else sd,
        label=f"conditional({d!r} | {cell})",
    )


def estimate_conditional_gap(
    f: FunctionSpec,
    d: DistributionSpec,
    cell: SupportInterval,
    budget: int = DEFAULT_MC_BUDGET,
    method: str = "auto",
    seed: int | None = None,
) -> GapEstimate:
    """Gap estimate for the truncated law X | X in cell.

    The conditional law is rebuilt from the density (or the restricted
    sample), so the estimate stays independent of the closed-form truncated
    moments it is used to check.
    """
    return estimate_gap(f, _conditional(d, cell), budget, method, seed)
