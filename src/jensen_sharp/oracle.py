"""Independent ground-truth estimation of the Jensen gap.

Estimates E[phi(X)] - phi(E[X]) by exact summation (laws with atoms),
adaptive quadrature with divergence classification (laws with densities),
or seeded Monte Carlo on request, always reporting an error bound.  The
bounds modules never feed these estimates; they exist to verify that every
computed [lower, upper] pair brackets the truth.
"""

from __future__ import annotations

import math
import queue
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distributions import (
    Discrete,
    DistributionSpec,
    Empirical,
    SupportInterval,
    _check_mass_in_domain,
)
from .errors import NumericError, ParameterError
from .extreal import encode, ext_mul
from .functions import FunctionSpec, finite_value, guarded

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
# Monte Carlo draws per block: 128 KB arrays, which stay in cache
_MC_BLOCK = 2**14
# Monte Carlo blocks that the helper thread may hold, drawn or being drawn, before the
# calling thread takes them: with one the helper waits on each block, and more gain nothing
# while drawing takes longer than evaluating
_MC_AHEAD = 2


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
        charge = ext_mul(abs(finite_value(f.deriv1, mu, "phi'")), err_mu)
    return finite_value(f.func, mu, "phi"), charge


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


def _draw_blocks(d, rng, n: int, blocks: queue.SimpleQueue, tokens: queue.SimpleQueue,
                 stop: threading.Event) -> None:
    """Put ``d.sample(rng, k)`` on ``blocks`` for each block of n draws, in order, taking a
    token from ``tokens`` before each, until done or stopped; a sampler's exception is put
    in place of its block and ends the run."""
    # a new thread does not take the caller's numpy error state: a sampler that overflows
    # must not warn here either
    with np.errstate(all="ignore"):
        for start in range(0, n, _MC_BLOCK):
            tokens.get()
            if stop.is_set():
                return
            try:
                xs = d.sample(rng, min(_MC_BLOCK, n - start))
            except BaseException as exc:  # re-raised on the calling thread
                blocks.put(exc)
                return
            blocks.put(xs)


def _monte_carlo(f: FunctionSpec, d, budget: int, seed: int, cell, p: float) -> GapEstimate:
    """Mean of phi over budget draws of d (those that land in the cell, when given).

    The draws come from one ``np.random.default_rng(seed)`` stream in blocks of
    ``_MC_BLOCK``, so memory does not grow with the budget; the blocks together are the
    draws of one ``d.sample(rng, budget)`` call, and the estimate is bit-reproducible for
    a fixed seed and budget.  A helper thread draws the blocks ahead of the one being
    evaluated, so ``d.sample`` may run on that thread while phi runs on this one; phi is
    only ever called here.  The helper ends with the call, also when either side raises.
    E[phi] is the ``math.fsum`` of the block sums over the count; the standard error comes
    from the sums of squares about the first block's mean (Chan, Golub & LeVeque, 1983).
    """
    n = int(budget)
    if n < 2:
        raise ParameterError(f"monte carlo needs at least 2 samples, got {n}")
    rng = np.random.default_rng(seed)
    # a token goes back for each block taken, so at most _MC_AHEAD blocks are held; both
    # queues put and get in C, without the Python locking of a bounded queue.Queue
    blocks, tokens, stop = queue.SimpleQueue(), queue.SimpleQueue(), threading.Event()
    for _ in range(_MC_AHEAD):
        tokens.put(None)
    helper = threading.Thread(target=_draw_blocks, args=(d, rng, n, blocks, tokens, stop))
    helper.start()
    count, sums, squares, shift, finite = 0, [], [], 0.0, True
    try:
        # a sum over inf and -inf, or a sum or square that overflows, must not warn: the
        # checks below decide
        with np.errstate(all="ignore"):
            for _ in range(0, n, _MC_BLOCK):
                xs = blocks.get()
                tokens.put(None)
                if isinstance(xs, BaseException):
                    raise xs
                xs = np.asarray(xs, dtype=float)
                if cell is not None:
                    xs = xs[cell.contains(xs)]
                count += xs.size
                # after a non-finite value only the count matters: too few draws in the cell wins
                if not (finite and xs.size):
                    continue
                vals = guarded(f.func, xs)
                total = float(np.sum(vals))
                if not math.isfinite(total):  # a NaN or inf value, or a sum past the float range
                    finite = False
                    continue
                if not sums:
                    shift = total / vals.size
                sums.append(total)
                squares.append(float(np.sum(np.square(vals - shift))))
    finally:
        # a helper that waits for a token wakes, and one that draws puts its block and
        # stops at the next token
        stop.set()
        tokens.put(None)
        helper.join()
    if count < 2:
        raise ParameterError(f"monte carlo needs 2 draws in {cell}, got {count} of {n}")
    # finite block sums can total past the float range (fsum then raises), and squares of
    # finite values can overflow: such a sample has no finite mean or spread either
    try:
        e_phi = math.fsum(sums) / count
        var = (math.fsum(squares) - count * (e_phi - shift) * (e_phi - shift)) / (count - 1)
    except OverflowError:
        var = math.inf
    if not (finite and math.isfinite(var)):
        raise NumericError("monte carlo hit non-finite phi values; the gap likely diverges "
                           "(use the quadrature oracle for a classified verdict)")
    se = math.sqrt(max(var, 0.0) / count)
    phimu, err_phimu = _phi_of_mean(f, d, cell, p)
    # the division and the block sums round at a few eps of the mean, which 3 se does not cover
    err = 3.0 * se + 4.0 * _EPS * max(1.0, abs(e_phi), abs(phimu)) + err_phimu
    return GapEstimate(e_phi - phimu, err, OracleMethod.MONTE_CARLO, seed, count)


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
