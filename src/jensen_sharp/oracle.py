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
    Discrete,
    DistributionSpec,
    Empirical,
    SupportInterval,
    _check_mass_in_domain,
    _mask,
)
from .errors import NumericError, ParameterError
from .extreal import encode, ext_mul
from .functions import FunctionSpec, guarded

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


def _phi_of_mean(f: FunctionSpec, d, cell, p: float) -> tuple[float, float]:
    """phi(E[X | X in cell]) by ``expect`` on d and the error that the mean's own error puts on
    it (none on d's own mean).  The cell's mass p must integrate to 1 within 1e-6; integrals
    take g / p, so that QUADPACK's absolute tolerance stays at g's scale however small p is."""
    mu, charge = d.mean(), 0.0
    if cell is not None:
        # x ** 0 is 1 shaped like x, so that atoms take it in one vector pass
        mass, _ = d.expect(lambda x: x**0 / p, cell)
        if not abs(mass - 1.0) <= 1e-6:
            raise NumericError(f"the mass {p!r} of {cell} integrates to {mass!r} of itself, not 1")
        mu, err_mu = d.expect(lambda x: x / p, cell)
        charge = ext_mul(abs(float(f.deriv1(mu))), err_mu)
    return float(f.func(mu)), charge


def _integral(f: FunctionSpec, d, cell, p: float, atoms: bool) -> GapEstimate:
    """E[phi(X) | X in cell] by ``expect`` on d, less phi of the cell's mean: an exact sum
    on a law with atoms, a quadrature on a density."""
    method = OracleMethod.EXACT_SUM if atoms else OracleMethod.QUADRATURE
    value, err = d.expect(f.func if cell is None else lambda x: f.func(x) / p, cell)
    if math.isinf(value):
        return GapEstimate(value, 0.0, method)
    phimu, err_phimu = _phi_of_mean(f, d, cell, p)
    # the final subtraction rounds at the scale of phi(mu) too
    if atoms:
        err = max(err, 16.0 * _EPS * abs(phimu))
    else:
        err += 4.0 * _EPS * max(1.0, abs(value), abs(phimu))
    return GapEstimate(value - phimu, err + err_phimu, method)


def _monte_carlo(f: FunctionSpec, d, budget: int, seed: int, cell, p: float) -> GapEstimate:
    """Mean of phi over budget draws of d (those that land in the cell, when given)."""
    n = int(budget)
    if n < 2:
        raise ParameterError(f"monte carlo needs at least 2 samples, got {n}")
    xs = np.asarray(d.sample(np.random.default_rng(seed), n), dtype=float)
    if cell is not None:
        xs = xs[_mask(xs, cell)]
        if xs.size < 2:
            raise ParameterError(f"monte carlo needs 2 draws in {cell}, got {xs.size} of {n}")
    vals = guarded(f.func, xs)
    if not np.all(np.isfinite(vals)):
        raise NumericError("monte carlo hit non-finite phi values; the gap likely diverges "
                           "(use the quadrature oracle for a classified verdict)")
    e_phi = float(np.mean(vals))
    se = float(np.std(vals, ddof=1)) / math.sqrt(xs.size)
    phimu, err_phimu = _phi_of_mean(f, d, cell, p)
    # np.mean of n equal draws is off by a few eps of their size, which 3 se does not cover
    err = 3.0 * se + 4.0 * _EPS * max(1.0, abs(e_phi), abs(phimu)) + err_phimu
    return GapEstimate(e_phi - phimu, err, OracleMethod.MONTE_CARLO, seed, xs.size)


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
    the Monte Carlo sample count; the other methods ignore it.
    A divergent integral comes back as value +/-inf rather than an error.
    """
    return _estimate(f, d, budget, method, seed)


def _estimate(f, d, budget, method, seed, cell=None) -> GapEstimate:
    """The gap of d, or of d given X in cell when a cell is given."""
    p = 1.0 if cell is None else d._require_prob(cell, d.interval_prob(cell))
    _check_mass_in_domain(f, d, cell)
    seed = DEFAULT_SEED if seed is None else int(seed)
    method = method.lower()
    if method not in ("auto", "quad", "mc", "exact"):
        raise ParameterError(f"unknown oracle method {method!r}; expected auto, quad, mc, or exact")

    if method == "mc":
        return _monte_carlo(f, d, budget, seed, cell, p)
    # a law with atoms is summed exactly, also when quad is asked for: that is the honest answer
    atoms = isinstance(d, (Empirical, Discrete))
    if method == "exact" and not atoms:
        raise ParameterError(f"exact summation needs a law with atoms, got {d!r}")
    return _integral(f, d, cell, p, atoms)


def estimate_conditional_gap(
    f: FunctionSpec,
    d: DistributionSpec,
    cell: SupportInterval,
    budget: int = DEFAULT_MC_BUDGET,
    method: str = "auto",
    seed: int | None = None,
) -> GapEstimate:
    """Gap estimate for the truncated law X | X in cell.

    Every law is integrated (or summed) on itself, as E[g(X) / p; X in cell] with
    p the cell's mass, and the error of the cell's mean is charged to the bound;
    Monte Carlo keeps the draws of X that land in the cell.  Neither uses the
    closed-form truncated moments that the estimate is meant to check.
    """
    return _estimate(f, d, budget, method, seed, cell)
