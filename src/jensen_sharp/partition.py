"""Support-partition refinement of the gap bounds.

Splitting the support at cut points x_1 < ... < x_{m-1} induces cells
I_j = [x_{j-1}, x_j) with masses eta_j, conditional means mu_j, and
conditional variances.  The coarse variable Y taking value mu_j with
probability eta_j has EY = EX, and the gap decomposes into the coarse gap
plus the mass-weighted conditional gaps.  Bounding each piece by its own
h extrema gives

    lower = inf_{y in [mu_1, mu_m]} h(y; EY) var(Y)
            + sum_j eta_j inf_{x in I_j} h(x; mu_j) var(X | X in I_j)

and the upper bound replaces every inf by sup.  The coarse extrema run over
the closed interval [mu_1, mu_m]; each conditional term runs over its cell.
A finer partition does not necessarily tighten the lower bound, so no
monotonicity is promised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .bounds import BoundMethod, GapBounds, HEvaluation, _assemble, curvature_extrema, h_extrema
from .bounds import _h_extrema_each
from .distributions import Discrete, DistributionSpec, TruncatedStats
from .errors import EmptyCellError, NumericError, ParameterError
from .extreal import ext_mul, ext_sum
from .functions import FunctionSpec, SupportInterval

__all__ = [
    "PartitionPlan",
    "build_partition",
    "partition_bounds",
    "cell_h_extrema",
    "positivity_certificate",
]


@dataclass(frozen=True, eq=False)
class PartitionPlan:
    """Adjoining cells, in order, with their conditional statistics under the source law.

    ``coarse`` is the law taking each cell's conditional mean with the cell's mass, and
    ``cuts`` the first cell's lower end and then each cell's upper end: m+1 extended reals
    for m cells.
    """

    cells: tuple[tuple[SupportInterval, TruncatedStats], ...]
    source: DistributionSpec

    def __post_init__(self) -> None:
        for (left, _), (right, _) in zip(self.cells, self.cells[1:]):
            if left.upper != right.lower:
                raise ParameterError(f"cells must adjoin in order, got {left} then {right}")
        # Discrete refuses masses that do not sum to 1
        coarse = Discrete([ts.mean for _, ts in self.cells], [ts.prob for _, ts in self.cells])
        object.__setattr__(self, "coarse", coarse)
        m_src, m_coarse = self.source.mean(), coarse.mean()
        if abs(m_coarse - m_src) > 1e-8 * max(1.0, abs(m_src)):
            raise NumericError(f"coarse mean {m_coarse} disagrees with the source mean {m_src}")

    @property
    def cuts(self) -> tuple[float, ...]:
        return (self.cells[0][0].lower, *(cell.upper for cell, _ in self.cells))

    @property
    def m(self) -> int:
        return len(self.cells)


def build_partition(d: DistributionSpec, cuts: Sequence[float]) -> PartitionPlan:
    """Split the support of d at the given interior cut points.

    Cells are left-closed right-open; the outermost cells inherit the
    support's own endpoint flags so that the cells cover the support.
    Every cell must carry positive probability.
    """
    cuts = [float(c) for c in cuts]
    for a, b in zip(cuts, cuts[1:]):
        if not a < b:
            raise ParameterError(f"cut points must be strictly increasing, got {a} then {b}")
    support = d.support
    for c in cuts:
        if not support.lower < c < support.upper:
            raise ParameterError(f"cut {c} is not interior to the support {support}")

    edges = [support.lower, *cuts, support.upper]
    m = len(edges) - 1
    cells: list[tuple[SupportInterval, TruncatedStats]] = []
    for j in range(m):
        cell = SupportInterval(
            edges[j],
            edges[j + 1],
            lower_closed=support.lower_closed if j == 0 else True,
            upper_closed=support.upper_closed if j == m - 1 else False,
        )
        cells.append((cell, d.truncated_stats(cell)))  # raises EmptyCellError on a massless cell

    total = math.fsum(ts.prob for _, ts in cells)
    if abs(total - 1.0) > 1e-9:
        raise NumericError(f"cell probabilities sum to {total!r}; the law leaks mass")
    if total != 1.0:
        # absorb quadrature-level leakage so the masses sum to 1 exactly
        cells = [
            (cell, TruncatedStats(prob=ts.prob / total, mean=ts.mean, variance=ts.variance))
            for cell, ts in cells
        ]
    return PartitionPlan(cells=tuple(cells), source=d)


def cell_h_extrema(
    f: FunctionSpec, plan: PartitionPlan
) -> list[tuple[HEvaluation, HEvaluation]]:
    """(inf, sup) of h(.; mu_j) over each cell, in cell order.

    Each cell is checked and searched as ``h_extrema`` does it, by the same
    search, but all the cells' searches share one numpy error state instead
    of entering one each.
    """
    return _h_extrema_each(f, ((cell, ts.mean) for cell, ts in plan.cells))


def partition_bounds(f: FunctionSpec, plan: PartitionPlan) -> GapBounds:
    """Assemble the refined lower/upper bounds from a partition plan.

    Extended-real rules apply: an infinite cell supremum makes the upper
    bound infinite, and any term with zero variance contributes zero.
    With no cuts the plan collapses to the single-interval bounds.  Each
    cell's (inf, sup) of h is kept in ``cell_extrema``, in cell order.
    """
    lows: list[float] = []
    highs: list[float] = []
    var_total = 0.0
    if plan.m > 1:
        coarse = _assemble(f, plan.coarse, h_extrema, BoundMethod.PARTITION)
        lows, highs, var_total = [coarse.lower], [coarse.upper], coarse.variance_used

    per_cell = tuple(cell_h_extrema(f, plan))
    for (cell, ts), (inf_ev, sup_ev) in zip(plan.cells, per_cell):
        lows.append(ts.prob * ext_mul(inf_ev.value, ts.variance))
        highs.append(ts.prob * ext_mul(sup_ev.value, ts.variance))
        var_total += ts.prob * ts.variance

    return GapBounds(
        lower=ext_sum(lows),
        upper=ext_sum(highs),
        lower_detail=None,
        upper_detail=None,
        variance_used=var_total,
        method=BoundMethod.PARTITION,
        cell_extrema=per_cell,
    )


def positivity_certificate(
    f: FunctionSpec, d: DistributionSpec, window: SupportInterval
) -> bool:
    """True certifies a strictly positive gap.

    The certificate holds when phi'' is bounded away from zero on the
    window, the window carries probability, and the conditional variance on
    it is positive.  False is inconclusive, never a disproof.
    """
    try:
        ts = d.truncated_stats(window)
    except EmptyCellError:
        return False
    if not ts.variance > 0.0:
        return False
    if not f.natural_domain.contains_interval(window):
        return False
    inf_ev, _ = curvature_extrema(f, window, ts.mean)
    return inf_ev.value > 0.0
