"""Extended-real conventions: arithmetic with +/-inf and JSON encoding."""

from __future__ import annotations

import math
from typing import Iterable

from .errors import NumericError

__all__ = ["ext_mul", "ext_sum", "encode"]

INF = math.inf


def ext_mul(a: float, b: float) -> float:
    """Product with the convention 0 * inf = 0 (a zero factor wins)."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def ext_sum(terms: Iterable[float]) -> float:
    """Sum tolerating infinities of one sign only.

    Mixing +inf and -inf has no defensible value here, so it raises.
    Finite terms are accumulated with math.fsum for reproducible rounding.
    """
    terms = list(terms)
    has_pos = any(t == INF for t in terms)
    has_neg = any(t == -INF for t in terms)
    if has_pos and has_neg:
        raise NumericError("sum mixes +inf and -inf terms; result is undetermined")
    if has_pos:
        return INF
    if has_neg:
        return -INF
    return math.fsum(terms)


def encode(x: float) -> float | str:
    """JSON-safe encoding: finite floats pass through, infinities become strings."""
    if math.isnan(x):
        raise NumericError("refusing to encode NaN")
    if x == INF:
        return "inf"
    if x == -INF:
        return "-inf"
    return float(x)

