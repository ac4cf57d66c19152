"""Shared helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np


def assert_brackets(est, lower: float, upper: float, context: str = "") -> None:
    """The oracle estimate must lie in [lower - 3 err, upper + 3 err]."""
    slack = 3.0 * est.error_bound
    assert est.value >= lower - slack, (
        f"{context}: oracle {est.value} (err {est.error_bound}) fell below lower bound {lower}"
    )
    assert est.value <= upper + slack, (
        f"{context}: oracle {est.value} (err {est.error_bound}) rose above upper bound {upper}"
    )


def ext_close(a: float, b: float, tol: float) -> bool:
    """Equality of extended reals: infinities must match exactly."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol


def population_stats(xs) -> tuple[float, float]:
    arr = np.asarray(xs, dtype=float)
    m = math.fsum(arr) / arr.size
    v = math.fsum((x - m) ** 2 for x in arr) / arr.size
    return m, v


def _atoms(d) -> tuple[np.ndarray, np.ndarray | float]:
    """The atoms of an Empirical or Discrete law in its own order, and their weights."""
    if hasattr(d, "samples"):
        return d.samples, 1.0 / d.samples.size
    return d.points, d.probs


def masked_prob(d, cell) -> float:
    """A cell's mass on a law with atoms, by a mask over its atoms."""
    xs, ws = _atoms(d)
    mask = cell.contains(xs)
    return math.fsum(ws[mask].tolist()) if np.ndim(ws) else float(np.count_nonzero(mask)) / xs.size


def masked_expect(d, g, cell=None) -> tuple[float, float]:
    """E[g(X); X in cell] on a law with atoms and the rounding of its terms (16 eps times the
    sum of their sizes), math.fsum over a mask of the atoms in the law's own order."""
    xs, ws = _atoms(d)
    mask = np.ones(xs.size, dtype=bool) if cell is None else cell.contains(xs)
    terms = (ws[mask] if np.ndim(ws) else ws) * np.asarray(g(xs[mask]), dtype=float)
    eps = float(np.finfo(float).eps)
    return math.fsum(terms.tolist()), 16.0 * eps * max(1.0, math.fsum(np.abs(terms).tolist()))
