"""Reference answers computed apart from jensen_sharp.

Nothing here imports the package under test.  Functions and laws are plain
tuples:

* functions: ``("exp", t)``, ``("power", p)``, ``("neglog",)``,
  ``("quad", a, b, c)`` and ``("x4",)`` for phi(x) = x**4;
* laws: ``("normal", mu, sigma)``, ``("exp", rate)``, ``("uniform", lo, hi)``,
  ``("sample", xs)`` (equal weights) and ``("discrete", points, probs)``.

Every value comes from a closed form evaluated in mpmath at 50 digits, from
``mpmath.quad`` on a density written out here, or from ``math.fsum`` over a
sample with phi evaluated by the formulas below.  The curvature ratio of
each catalog function is monotone (phi' is convex or concave), so its
extrema over an interval are the endpoint values or limits given here in
closed form; ``x4`` has the interior minimum 2 nu**2 of
h(x; nu) = x**2 + 2 nu x + 3 nu**2.
"""

from __future__ import annotations

import math

import mpmath

mpmath.mp.dps = 50
INF = math.inf


def ext_mul(a: float, b: float) -> float:
    """Product with 0 * inf = 0."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def ext_sum(terms) -> float:
    terms = list(terms)
    if any(t == INF for t in terms):
        return INF
    if any(t == -INF for t in terms):
        return -INF
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# phi and its curvature ratio
# ---------------------------------------------------------------------------


def phi_float(f: tuple, x: float) -> float:
    """phi at a float, in double precision (for fsum over samples)."""
    kind = f[0]
    if kind == "exp":
        return math.exp(f[1] * x)
    if kind == "power":
        return x ** f[1]
    if kind == "neglog":
        return -math.log(x)
    if kind == "quad":
        return f[1] * x * x + f[2] * x + f[3]
    if kind == "x4":
        return x**4
    raise ValueError(kind)


def phi_mp(f: tuple, x):
    x = mpmath.mpf(x)
    kind = f[0]
    if kind == "exp":
        return mpmath.exp(mpmath.mpf(f[1]) * x)
    if kind == "power":
        return x ** mpmath.mpf(f[1])
    if kind == "neglog":
        return -mpmath.log(x)
    if kind == "quad":
        return mpmath.mpf(f[1]) * x * x + mpmath.mpf(f[2]) * x + mpmath.mpf(f[3])
    if kind == "x4":
        return x**4
    raise ValueError(kind)


def dphi_mp(f: tuple, x):
    x = mpmath.mpf(x)
    kind = f[0]
    if kind == "exp":
        t = mpmath.mpf(f[1])
        return t * mpmath.exp(t * x)
    if kind == "power":
        p = mpmath.mpf(f[1])
        return p * x ** (p - 1)
    if kind == "neglog":
        return -1 / x
    if kind == "quad":
        return 2 * mpmath.mpf(f[1]) * x + mpmath.mpf(f[2])
    if kind == "x4":
        return 4 * x**3
    raise ValueError(kind)


def half_d2phi_mp(f: tuple, x):
    x = mpmath.mpf(x)
    kind = f[0]
    if kind == "exp":
        t = mpmath.mpf(f[1])
        return t * t * mpmath.exp(t * x) / 2
    if kind == "power":
        p = mpmath.mpf(f[1])
        return p * (p - 1) * x ** (p - 2) / 2
    if kind == "neglog":
        return 1 / (2 * x * x)
    if kind == "quad":
        return mpmath.mpf(f[1])
    if kind == "x4":
        return 6 * x * x
    raise ValueError(kind)


def h_point(f: tuple, nu: float, x: float):
    """h(x; nu) at a point x != nu, at 50 digits."""
    nu_m, x_m = mpmath.mpf(nu), mpmath.mpf(x)
    dx = x_m - nu_m
    if dx == 0:
        return half_d2phi_mp(f, nu_m)
    return (phi_mp(f, x_m) - phi_mp(f, nu_m)) / dx**2 - dphi_mp(f, nu_m) / dx


def h_end(f: tuple, nu: float, end: float) -> float:
    """h(x; nu) at, or in the limit toward, an endpoint of the support."""
    kind = f[0]
    if kind == "quad":
        return float(f[1])
    if end == INF:
        if kind == "exp":
            return INF if f[1] > 0 else 0.0
        if kind == "power":
            p = f[1]
            return INF if p > 2 else (1.0 if p == 2 else 0.0)
        if kind == "neglog":
            return 0.0
        return INF  # x4
    if end == -INF:
        if kind == "exp":
            return INF if f[1] < 0 else 0.0
        return INF  # x4
    if end == 0.0 and kind == "power":
        p = f[1]
        if p < 0:
            return INF
        return float((mpmath.mpf(p) - 1) * mpmath.mpf(nu) ** (mpmath.mpf(p) - 2))
    if end == 0.0 and kind == "neglog":
        return INF
    return float(h_point(f, nu, end))


def h_range(f: tuple, nu: float, lo: float, hi: float) -> tuple[float, float]:
    """(inf, sup) of h(.; nu) over an interval with endpoints lo < hi."""
    a, b = h_end(f, nu, lo), h_end(f, nu, hi)
    inf, sup = min(a, b), max(a, b)
    if f[0] == "x4" and lo <= -nu <= hi:
        inf = float(2 * mpmath.mpf(nu) ** 2)
    return inf, sup


def curv_end(f: tuple, end: float) -> float:
    """phi''/2 at, or in the limit toward, an endpoint."""
    kind = f[0]
    if kind == "quad":
        return float(f[1])
    if kind == "exp":
        t = f[1]
        if end == INF:
            return INF if t > 0 else 0.0
        if end == -INF:
            return INF if t < 0 else 0.0
        return float(half_d2phi_mp(f, end))
    if kind == "neglog":
        return INF if end == 0.0 else (0.0 if end == INF else float(half_d2phi_mp(f, end)))
    if kind == "power":
        p = f[1]
        c = p * (p - 1) / 2
        if end == 0.0:
            if c == 0.0 or p > 2:
                return 0.0
            return 1.0 if p == 2 else math.copysign(INF, c)
        if end == INF:
            if c == 0.0 or p < 2:
                return 0.0
            return 1.0 if p == 2 else INF
        return float(half_d2phi_mp(f, end))
    raise ValueError(kind)


def curv_range(f: tuple, lo: float, hi: float) -> tuple[float, float]:
    """(inf, sup) of phi''/2 over an interval; monotone for the catalog."""
    a, b = curv_end(f, lo), curv_end(f, hi)
    return min(a, b), max(a, b)


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------


def _weights(law: tuple):
    if law[0] == "sample":
        xs = law[1]
        return xs, None
    return law[1], law[2]


def support(law: tuple) -> tuple[float, float]:
    kind = law[0]
    if kind == "normal":
        return -INF, INF
    if kind == "exp":
        return 0.0, INF
    if kind == "uniform":
        return float(law[1]), float(law[2])
    pts, _ = _weights(law)
    return float(min(pts)), float(max(pts))


def mean(law: tuple) -> float:
    kind = law[0]
    if kind == "normal":
        return float(law[1])
    if kind == "exp":
        return 1.0 / law[1]
    if kind == "uniform":
        return 0.5 * (law[1] + law[2])
    pts, probs = _weights(law)
    if probs is None:
        return math.fsum(pts) / len(pts)
    return math.fsum(w * x for w, x in zip(probs, pts))


def variance(law: tuple) -> float:
    kind = law[0]
    if kind == "normal":
        return float(law[2]) ** 2
    if kind == "exp":
        return 1.0 / law[1] ** 2
    if kind == "uniform":
        return (law[2] - law[1]) ** 2 / 12.0
    m = mean(law)
    pts, probs = _weights(law)
    if probs is None:
        return math.fsum((x - m) ** 2 for x in pts) / len(pts)
    return math.fsum(w * (x - m) ** 2 for w, x in zip(probs, pts))


def pdf_mp(law: tuple, x):
    kind = law[0]
    if kind == "normal":
        return mpmath.npdf(x, law[1], law[2])
    if kind == "exp":
        lam = mpmath.mpf(law[1])
        return lam * mpmath.exp(-lam * x) if x >= 0 else mpmath.mpf(0)
    if kind == "uniform":
        return 1 / (mpmath.mpf(law[2]) - law[1]) if law[1] <= x <= law[2] else mpmath.mpf(0)
    raise ValueError(kind)


def cdf_mp(law: tuple, x):
    kind = law[0]
    if x == INF:
        return mpmath.mpf(1)
    if x == -INF:
        return mpmath.mpf(0)
    if kind == "normal":
        return mpmath.ncdf(x, law[1], law[2])
    if kind == "exp":
        return -mpmath.expm1(-mpmath.mpf(law[1]) * x) if x > 0 else mpmath.mpf(0)
    if kind == "uniform":
        lo, hi = mpmath.mpf(law[1]), mpmath.mpf(law[2])
        return min(mpmath.mpf(1), max(mpmath.mpf(0), (x - lo) / (hi - lo)))
    raise ValueError(kind)


def quantile(law: tuple, q: float) -> float:
    """Quantile of an analytic law at 50 digits, rounded to float."""
    q = mpmath.mpf(q)
    kind = law[0]
    if kind == "normal":
        return float(law[1] + law[2] * mpmath.sqrt(2) * mpmath.erfinv(2 * q - 1))
    if kind == "exp":
        return float(-mpmath.log1p(-q) / law[1])
    if kind == "uniform":
        return float(law[1] + q * (mpmath.mpf(law[2]) - law[1]))
    raise ValueError(kind)


def truncated(law: tuple, a: float, b: float) -> tuple[float, float, float]:
    """(mass, mean, variance) of an analytic law on the cell (a, b)."""
    kind = law[0]
    if kind == "normal":
        mu, sigma = mpmath.mpf(law[1]), mpmath.mpf(law[2])
        al = (a - mu) / sigma if a != -INF else None
        be = (b - mu) / sigma if b != INF else None
        pa = mpmath.npdf(al) if al is not None else mpmath.mpf(0)
        pb = mpmath.npdf(be) if be is not None else mpmath.mpf(0)
        ca = mpmath.ncdf(al) if al is not None else mpmath.mpf(0)
        cb = mpmath.ncdf(be) if be is not None else mpmath.mpf(1)
        z = cb - ca
        apa = al * pa if al is not None else 0
        bpb = be * pb if be is not None else 0
        shift = (pa - pb) / z
        m = mu + sigma * shift
        v = sigma**2 * (1 + (apa - bpb) / z - shift**2)
        return float(z), float(m), float(v)
    if kind == "exp":
        lam = mpmath.mpf(law[1])
        lo = max(mpmath.mpf(0), mpmath.mpf(a))
        mass = cdf_mp(law, b) - cdf_mp(law, lo)
        if b == INF:
            return float(mass), float(lo + 1 / lam), float(1 / lam**2)
        width = mpmath.mpf(b) - lo
        em1 = mpmath.expm1(lam * width)
        m = lo + 1 / lam - width / em1
        v = 1 / lam**2 - width**2 * (em1 + 1) / em1**2
        return float(mass), float(m), float(v)
    if kind == "uniform":
        lo, hi = max(law[1], a), min(law[2], b)
        return (hi - lo) / (law[2] - law[1]), 0.5 * (lo + hi), (hi - lo) ** 2 / 12.0
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# expectations and gaps
# ---------------------------------------------------------------------------


def power_moment(law: tuple, s: float):
    """E[X**s] at 50 digits (inf when it diverges)."""
    kind = law[0]
    s_m = mpmath.mpf(s)
    if kind == "exp":
        if s <= -1:
            return mpmath.inf
        return mpmath.gamma(s_m + 1) / mpmath.mpf(law[1]) ** s_m
    if kind == "uniform":
        lo, hi = mpmath.mpf(law[1]), mpmath.mpf(law[2])
        if s == -1:
            return (mpmath.log(hi) - mpmath.log(lo)) / (hi - lo)
        return (hi ** (s_m + 1) - lo ** (s_m + 1)) / ((s_m + 1) * (hi - lo))
    pts, probs = _weights(law)
    if probs is None:
        return mpmath.mpf(math.fsum(x**s for x in pts) / len(pts))
    return mpmath.mpf(math.fsum(w * x**s for w, x in zip(probs, pts)))


def _moments_mp(law: tuple):
    """(mean, variance) of an analytic law at 50 digits."""
    kind = law[0]
    if kind == "normal":
        return mpmath.mpf(law[1]), mpmath.mpf(law[2]) ** 2
    if kind == "exp":
        lam = mpmath.mpf(law[1])
        return 1 / lam, 1 / lam**2
    lo, hi = mpmath.mpf(law[1]), mpmath.mpf(law[2])
    return (lo + hi) / 2, (hi - lo) ** 2 / 12


def expect_phi(f: tuple, law: tuple):
    """E[phi(X)] for an analytic law, at 50 digits; inf when it diverges."""
    kind, fk = law[0], f[0]
    if fk == "quad":
        a, b, c = (mpmath.mpf(v) for v in f[1:])
        m, v = _moments_mp(law)
        return a * (v + m * m) + b * m + c
    if fk == "exp":
        t = mpmath.mpf(f[1])
        if kind == "normal":
            mu, sigma = mpmath.mpf(law[1]), mpmath.mpf(law[2])
            return mpmath.exp(mu * t + sigma**2 * t**2 / 2)
        if kind == "exp":
            lam = mpmath.mpf(law[1])
            return lam / (lam - t) if t < lam else mpmath.inf
        if kind == "uniform":
            lo, hi = mpmath.mpf(law[1]), mpmath.mpf(law[2])
            return (mpmath.exp(t * hi) - mpmath.exp(t * lo)) / (t * (hi - lo))
    if fk == "power":
        return power_moment(law, f[1])
    if fk == "neglog":
        if kind == "exp":
            return mpmath.euler + mpmath.log(law[1])
        if kind == "uniform":
            lo, hi = mpmath.mpf(law[1]), mpmath.mpf(law[2])
            return -(hi * mpmath.log(hi) - hi - lo * mpmath.log(lo) + lo) / (hi - lo)
    raise ValueError((f, kind))


def gap(f: tuple, law: tuple) -> float:
    """The true Jensen gap E[phi(X)] - phi(E[X])."""
    if law[0] in ("sample", "discrete"):
        pts, probs = _weights(law)
        m = mean(law)
        if probs is None:
            e_phi = math.fsum(phi_float(f, float(x)) for x in pts) / len(pts)
        else:
            e_phi = math.fsum(w * phi_float(f, float(x)) for w, x in zip(probs, pts))
        return e_phi - phi_float(f, m)
    e = expect_phi(f, law)
    if e == mpmath.inf:
        return INF
    return float(e - phi_mp(f, mean(law)))


def gap_scale(f: tuple, law: tuple) -> float:
    """Magnitude of E[phi(X)] and phi(E[X]), the scale of rounding in a gap."""
    m = mean(law)
    if law[0] in ("sample", "discrete"):
        pts, probs = _weights(law)
        n = len(pts)
        e_abs = math.fsum(abs(phi_float(f, float(x))) for x in pts) / n if probs is None else \
            math.fsum(w * abs(phi_float(f, float(x))) for w, x in zip(probs, pts))
    else:
        e_abs = abs(float(expect_phi(f, law)))
    return max(1.0, e_abs, abs(float(phi_mp(f, m))))


def conditional_gap(f: tuple, law: tuple, a: float, b: float) -> tuple[float, float]:
    """(gap, scale) of X | X in (a, b) for an analytic law, by mpmath.quad at 30 digits.

    The scale is max(1, |E[phi | cell]|, |phi(E[X | cell])|).
    """
    lo, hi = support(law)
    a, b = max(a, lo), min(b, hi)
    with mpmath.workdps(30):
        mass = cdf_mp(law, b) - cdf_mp(law, a)
        m1 = mpmath.quad(lambda x: x * pdf_mp(law, x), [a, b]) / mass
        e_phi = mpmath.quad(lambda x: phi_mp(f, x) * pdf_mp(law, x), [a, b]) / mass
        phi_m = phi_mp(f, m1)
        return float(e_phi - phi_m), max(1.0, abs(float(e_phi)), abs(float(phi_m)))


# ---------------------------------------------------------------------------
# bounds rebuilt from the references
# ---------------------------------------------------------------------------


def partition_cells(law: tuple, m: int) -> list[tuple[float, float, float, float, float]]:
    """(a, b, mass, mean, variance) of the m equal-probability cells of a law.

    Cells are [a, b) except the last, which keeps the support's own upper
    end.  A sample is cut at nearest-rank quantiles, the order statistic of
    rank ceil(q n).
    """
    if law[0] != "sample":
        lo, hi = support(law)
        edges = [lo] + [quantile(law, j / m) for j in range(1, m)] + [hi]
        return [(a, b, *truncated(law, a, b)) for a, b in zip(edges, edges[1:])]
    xs = sorted(float(x) for x in law[1])
    n = len(xs)
    edges = [xs[0]] + [xs[max(1, math.ceil(j / m * n)) - 1] for j in range(1, m)] + [xs[-1]]
    cells = []
    for j, (a, b) in enumerate(zip(edges, edges[1:])):
        sub = [x for x in xs if a <= x and (x < b or (j == m - 1 and x == b))]
        mu = math.fsum(sub) / len(sub)
        cells.append((a, b, len(sub) / n, mu, math.fsum((x - mu) ** 2 for x in sub) / len(sub)))
    return cells


def partition_bounds(f: tuple, law: tuple, m: int) -> tuple[float, float]:
    """The refined bounds over m equal-probability cells, rebuilt term by term.

    The coarse variable takes each cell mean with the cell mass; its term
    uses the h extrema over [first mean, last mean] around E[X].  Each cell
    adds mass * h extrema over the cell (around the cell mean) * cell variance.
    """
    cells = partition_cells(law, m)
    lows, highs = [], []
    if m > 1:
        ey = math.fsum(p * mu for _, _, p, mu, _ in cells)
        var_y = math.fsum(p * (mu - ey) ** 2 for _, _, p, mu, _ in cells)
        c_inf, c_sup = h_range(f, ey, cells[0][3], cells[-1][3])
        lows.append(ext_mul(c_inf, var_y))
        highs.append(ext_mul(c_sup, var_y))
    for a, b, p, mu, v in cells:
        inf, sup = h_range(f, mu, a, b)
        lows.append(p * ext_mul(inf, v))
        highs.append(p * ext_mul(sup, v))
    return ext_sum(lows), ext_sum(highs)


def _power_end(e: float, r: float) -> float:
    if e == 0.0:
        return 0.0 if r > 0 else INF
    if e == INF:
        return INF if r > 0 else 0.0
    return e**r


def transformed(law: tuple, r: float) -> tuple[float, float, float, float]:
    """(lo, hi, mean, variance) of Y = X**r for a positive law."""
    if law[0] == "sample":
        ys = [float(x) ** r for x in law[1]]
        return min(ys), max(ys), mean(("sample", ys)), variance(("sample", ys))
    lo, hi = sorted(_power_end(e, r) for e in support(law))
    m1 = power_moment(law, r)
    m2 = power_moment(law, 2 * r)
    return lo, hi, float(m1), float(m2 - m1 * m1)


def power_moment_bounds(law: tuple, r: float, s: float) -> tuple[float, float]:
    """Bracket on E[X**s] from the gap bounds of phi(y) = y**(s/r) around E[X**r]."""
    p = s / r
    lo, hi, ey, vy = transformed(law, r)
    inf, sup = h_range(("power", p), ey, lo, hi)
    base = ey**p
    return base + ext_mul(inf, vy), base + ext_mul(sup, vy)


def power_mean(law: tuple, s: float) -> float:
    return float(power_moment(law, s) ** (1 / mpmath.mpf(s)))


def paper_refined_lower() -> float:
    """The three-cell refined lower bound for phi = exp(x), X ~ N(0, 1).

    Rebuilt from closed-form truncated-normal moments: the published 0.409
    does not follow from its own table; this gives about 0.40604.
    """
    return partition_bounds(("exp", 1.0), ("normal", 0.0, 1.0), 3)[0]
