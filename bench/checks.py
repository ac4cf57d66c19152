"""Judge each operation's output against the references.

``Checker.check(op, output)`` returns ``None`` when the output is right and
a one-line reason when it is not.  Every check compares with a value from
``reference.py`` (computed apart from the program) or with a property the
method must have; none compares with a saved copy of the program's output.

Tolerances, and why:

* ``H_RTOL`` (1e-7 of max(1, |h|)): h at a finite endpoint is the direct
  formula in double precision, and a probed endpoint limit is resolved to
  1e-8 of its magnitude (README, numerical policy).
* quadrature: 3 reported error bounds plus 1e-8 of max(1, |E phi|), the
  relative target of the integrator.
* exact summation: 2 reported error bounds plus 16 eps of the same scale;
  the reference evaluates phi with ``math`` rather than numpy.
* Monte Carlo: 2 reported error bounds, i.e. 6 standard errors, which a
  correct estimator at a fixed seed on these light-tailed laws cannot miss.
* power means: 1e-6 of max(1, |bound|, var(X**r)); the transformed law's
  moments come from quadrature and its endpoint limit is probed, and both
  errors grow with var(X**r).
* scan against fast path: acceptance 5's 1e-8 of max(1, |extrema|), twice
  that where the fast path took a probed limit (each side resolves it to 1e-8).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import reference as R
from workloads import Op

H_RTOL = 1e-7
QUAD_RTOL = 1e-8
EPS = 2.220446049250313e-16
POWER_RTOL = 1e-6
MC_ERRORS = 2.0
PAPER_FAILING_ROW = "normal 3-cell: refined lower bound"


def close(got: float, ref: float, tol: float) -> bool:
    if math.isinf(got) or math.isinf(ref):
        return got == ref
    return abs(got - ref) <= tol


def h_tol(h: float, var: float) -> float:
    """Tolerance on h * var for a reference h value."""
    return H_RTOL * max(1.0, abs(h) if math.isfinite(h) else 0.0) * var


def decode(v) -> float:
    if isinstance(v, str):
        return {"inf": math.inf, "-inf": -math.inf}[v]
    return float(v)


def _bracket(lower: float, upper: float, g: float, tol_lo: float, tol_hi: float) -> str | None:
    """lower <= g <= upper within the tolerances; an infinite gap needs upper = inf."""
    if lower > g + tol_lo:
        return f"lower bound {lower!r} exceeds the true gap {g!r}"
    if g > upper + tol_hi:
        return f"true gap {g!r} exceeds the upper bound {upper!r}"
    return None


def quad_tol(err: float, scale: float) -> float:
    return 3.0 * err + QUAD_RTOL * max(1.0, scale)


def exact_tol(err: float, scale: float) -> float:
    return 2.0 * err + 16 * EPS * max(1.0, scale)


class Checker:
    """Checks outputs; each reference is computed once per operation."""

    def __init__(self, js, root: Path):
        self.js = js
        self.root = root
        self._refs: dict[tuple[str, int], object] = {}
        self._validator = None

    def check(self, op: Op, out) -> str | None:
        if isinstance(out, BaseException):
            return f"raised {type(out).__name__}: {out}"
        try:
            return getattr(self, "_" + op.kind)(op, out)
        except Exception as exc:  # a malformed output must read as a failure
            return f"output could not be checked: {type(exc).__name__}: {exc}"

    def _ref(self, op: Op, name: str, compute):
        key = (name, id(op))
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    # -- bounds against the h extrema -------------------------------------

    def _gap_ref(self, op: Op, law=None) -> tuple[float, float, float, float, float]:
        """(variance, inf h, sup h, true gap, gap scale) of op's function and law."""
        f, law = op.spec["f"], law or op.spec["law"]

        def compute():
            lo, hi = R.support(law)
            inf_h, sup_h = R.h_range(f, R.mean(law), lo, hi)
            return R.variance(law), inf_h, sup_h, R.gap(f, law), R.gap_scale(f, law)

        return self._ref(op, "gap", compute)

    def _gap_bounds(self, op: Op, lower, upper, variance, law=None) -> str | None:
        """Bounds equal inf/sup h * var and bracket the true gap."""
        var, inf_h, sup_h, g, _ = self._gap_ref(op, law)
        tol_lo, tol_hi = h_tol(inf_h, var), h_tol(sup_h, var)
        if not close(variance, var, 1e-12 * var):
            return f"variance {variance!r} != {var!r}"
        if not close(lower, R.ext_mul(inf_h, var), tol_lo):
            return f"lower bound {lower!r} != inf h * var = {R.ext_mul(inf_h, var)!r}"
        if not close(upper, R.ext_mul(sup_h, var), tol_hi):
            return f"upper bound {upper!r} != sup h * var = {R.ext_mul(sup_h, var)!r}"
        return _bracket(lower, upper, g, tol_lo, tol_hi)

    def _jensen_bounds(self, op: Op, gb) -> str | None:
        return self._gap_bounds(op, gb.lower, gb.upper, gb.variance_used)

    _sample_bounds = _jensen_bounds

    def _partition_ref(self, op: Op):
        """(cells with their h extrema, rebuilt lower, rebuilt upper, true gap, tolerance)."""
        f, law, m = op.spec["f"], op.spec["law"], op.spec["m"]

        def compute():
            cells = [(*c, *R.h_range(f, c[3], c[0], c[1])) for c in R.partition_cells(law, m)]
            lo, hi = R.partition_bounds(f, law, m)
            tol = H_RTOL * max(1.0, R.variance(law)) * sum(
                max(1.0, abs(x)) for x in (lo, hi) if math.isfinite(x))
            return cells, lo, hi, R.gap(f, law), tol

        return self._ref(op, "partition", compute)

    def _cells(self, op: Op, rows) -> str | None:
        """Rows (lower, upper, prob, mean, variance[, inf h, sup h]) match the rebuilt cells."""
        cells = self._partition_ref(op)[0]
        law = op.spec["law"]
        var, scale = R.variance(law), max(1.0, abs(R.mean(law)))
        if len(rows) != len(cells):
            return f"{len(rows)} cells, expected {len(cells)}"
        for row, (a, b, p, mu, v, inf_h, sup_h) in zip(rows, cells):
            a_got, b_got, p_got, mu_got, v_got = row[:5]
            where = f"cell [{a!r}, {b!r})"
            if not (close(a_got, a, 1e-12 * max(1.0, abs(a)))
                    and close(b_got, b, 1e-12 * max(1.0, abs(b)))):
                return f"{where} came out as [{a_got!r}, {b_got!r})"
            if not close(p_got, p, 1e-9):
                return f"{where} mass {p_got!r} != {p!r}"
            if not (close(mu_got, mu, 1e-9 * scale) and close(v_got, v, 1e-8 * max(var, v))):
                return f"{where} moments ({mu_got!r}, {v_got!r}) != ({mu!r}, {v!r})"
            for got, want in zip(row[5:], (inf_h, sup_h)):
                if not close(got, want, H_RTOL * max(1.0, abs(want))):
                    return f"{where} h extrema {row[5:]!r} != ({inf_h!r}, {sup_h!r})"
        return None

    def _partition_bounds(self, op: Op, lower: float, upper: float) -> str | None:
        _, ref_lo, ref_hi, g, tol = self._partition_ref(op)
        if not close(lower, ref_lo, tol) or not close(upper, ref_hi, tol):
            return f"bounds [{lower!r}, {upper!r}] != rebuilt [{ref_lo!r}, {ref_hi!r}]"
        return _bracket(lower, upper, g, tol, tol)

    def _partition(self, op: Op, out) -> str | None:
        plan, gb = out
        msg = self._cells(op, [(c.lower, c.upper, ts.prob, ts.mean, ts.variance)
                               for c, ts in plan.cells])
        msg = msg or self._partition_bounds(op, gb.lower, gb.upper)
        if msg or op.spec["m"] != 1:
            return msg
        jb = self._ref(op, "jensen", lambda: self.js.jensen_bounds(op.spec["pf"], op.spec["pd"]))
        for got, want in ((gb.lower, jb.lower), (gb.upper, jb.upper)):
            if not close(got, want, 1e-12 * max(1.0, abs(want))):
                return f"one-cell partition [{gb.lower!r}, {gb.upper!r}] != " \
                       f"jensen_bounds [{jb.lower!r}, {jb.upper!r}]"
        return None

    def _power_ref(self, op: Op):
        """(moment lower, moment upper, E[X^s], M_s, var(X^r)) for op's law, r and s."""
        law, r, s = op.spec["law"], op.spec["r"], op.spec["s"]
        return self._ref(op, "power", lambda: (
            *R.power_moment_bounds(law, r, s), float(R.power_moment(law, s)),
            R.power_mean(law, s), R.transformed(law, r)[3]))

    def _power_bounds(self, op: Op, mo_lo, mo_hi, mean_lo, mean_hi) -> str | None:
        ref_lo, ref_hi, moment, m_s, var_y = self._power_ref(op)
        for got, want, side in ((mo_lo, ref_lo, "lower"), (mo_hi, ref_hi, "upper")):
            # quadrature moments and probed limits both err in proportion to var(Y)
            if not close(got, want, POWER_RTOL * max(1.0, abs(want), var_y)):
                return f"moment {side} bound {got!r} != {want!r}"
        slack = POWER_RTOL * max(1.0, abs(moment))
        if not (mo_lo <= moment + slack and moment <= mo_hi + slack):
            return f"E[X^s] = {moment!r} outside [{mo_lo!r}, {mo_hi!r}]"
        if not (mean_lo <= m_s * (1 + POWER_RTOL) and m_s <= mean_hi * (1 + POWER_RTOL)):
            return f"power mean {m_s!r} outside [{mean_lo!r}, {mean_hi!r}]"
        return None

    def _power_mean(self, op: Op, pm) -> str | None:
        return self._power_bounds(op, pm.moment_lower, pm.moment_upper, pm.mean_lower,
                                  pm.mean_upper)

    # -- scans ---------------------------------------------------------------

    def _curvature_bounds(self, op: Op, cb) -> str | None:
        s = op.spec

        def compute():
            var = R.variance(s["law"])
            c_inf, c_sup = R.curv_range(s["f"], *R.support(s["law"]))
            return var, c_inf, c_sup, self.js.jensen_bounds(s["pf"], s["pd"])

        var, c_inf, c_sup, jb = self._ref(op, "curvature", compute)
        tol_lo, tol_hi = h_tol(c_inf, var), h_tol(c_sup, var)
        if not close(cb.lower, R.ext_mul(c_inf, var), tol_lo):
            return f"lower {cb.lower!r} != inf phi''/2 * var = {R.ext_mul(c_inf, var)!r}"
        if not close(cb.upper, R.ext_mul(c_sup, var), tol_hi):
            return f"upper {cb.upper!r} != sup phi''/2 * var = {R.ext_mul(c_sup, var)!r}"
        if cb.lower > jb.lower + tol_lo or cb.upper < jb.upper - tol_hi:
            return f"curvature bounds [{cb.lower!r}, {cb.upper!r}] do not contain the h " \
                   f"bounds [{jb.lower!r}, {jb.upper!r}]"
        return None

    def _h_extrema_scan(self, op: Op, out) -> str | None:
        """Scan equals the fast path (acceptance 5's 1e-8) and the reference.

        Acceptance 5 compares on closed intervals, where nothing is probed.
        A probed endpoint limit is resolved to 1e-8 on its own, so where the
        fast path took a probed limit the two may differ by twice that.
        """
        s = op.spec
        refs, fast = self._ref(op, "scan", lambda: (
            R.h_range(s["f"], s["nu"], *R.support(s["law"])),
            self.js.h_extrema(s["pf"], s["iv"], s["nu"])))
        scale = max([1.0] + [abs(e.value) for e in fast if math.isfinite(e.value)])
        domain = s["pf"].natural_domain
        for ev, fast_ev, ref, side in zip(out, fast, refs, ("inf", "sup")):
            at = fast_ev.attained_at
            probed = not (math.isfinite(at) and domain.contains(at))
            if not close(ev.value, fast_ev.value, (2e-8 if probed else 1e-8) * scale):
                return f"scan {side} {ev.value!r} != fast path {fast_ev.value!r}"
            if not close(ev.value, ref, H_RTOL * max(1.0, abs(ref))):
                return f"scan {side} {ev.value!r} != reference {ref!r}"
        return None

    def _h_extrema_x4(self, op: Op, out) -> str | None:
        s = op.spec
        nu = s["nu"]
        inf_ref, sup_ref = self._ref(op, "x4", lambda: R.h_range(("x4",), nu, s["lo"], s["hi"]))
        inf_ev, sup_ev = out
        if not close(inf_ev.value, inf_ref, 1e-8 * max(1.0, inf_ref)):
            return f"interior minimum {inf_ev.value!r} != 2 nu^2 = {inf_ref!r}"
        if not close(inf_ev.attained_at, -nu, 1e-6 * max(1.0, abs(nu))):
            return f"minimum taken at {inf_ev.attained_at!r}, not at -nu = {-nu!r}"
        if not close(sup_ev.value, sup_ref, 1e-9 * max(1.0, sup_ref)):
            return f"supremum {sup_ev.value!r} != {sup_ref!r}"
        return None

    def _positivity(self, op: Op, certified) -> str | None:
        s = op.spec
        expected = self._ref(op, "positive", lambda: R.curv_range(s["f"], s["a"], s["b"])[0] > 0)
        if certified is not expected:
            return f"certificate {certified!r}, expected {expected!r}"
        return None

    # -- oracles -------------------------------------------------------------

    @staticmethod
    def _oracle_value(value: float, err: float, g: float, tol: float) -> str | None:
        if math.isinf(g):
            return None if value == g else f"oracle {value!r} for a divergent gap {g!r}"
        if not close(value, g, tol):
            return f"oracle {value!r} (error bound {err!r}) != true gap {g!r}"
        return None

    def _oracle(self, op: Op, out, tolerance) -> str | None:
        gb, est = out
        _, _, _, g, scale = self._gap_ref(op)
        msg = self._oracle_value(est.value, est.error_bound, g, tolerance(est.error_bound, scale))
        return msg or self._gap_bounds(op, gb.lower, gb.upper, gb.variance_used)

    def _oracle_quad(self, op: Op, out) -> str | None:
        return self._oracle(op, out, quad_tol)

    def _oracle_exact(self, op: Op, out) -> str | None:
        return self._oracle(op, out, exact_tol)

    def _oracle_mc(self, op: Op, out) -> str | None:
        return self._oracle(op, out, lambda err, scale: MC_ERRORS * err)

    def _oracle_conditional(self, op: Op, out) -> str | None:
        ts, inf_ev, sup_ev, est = out
        s = op.spec
        f, law, a, b = s["f"], s["law"], s["a"], s["b"]

        def compute():
            p, mu, v = R.truncated(law, a, b)
            return (p, mu, v), R.h_range(f, mu, a, b), R.conditional_gap(f, law, a, b)

        (p, mu, v), (inf_h, sup_h), (g, scale) = self._ref(op, "conditional", compute)
        if not (close(ts.prob, p, 1e-12) and close(ts.mean, mu, 1e-9 * max(1.0, abs(mu)))
                and close(ts.variance, v, 1e-8 * v)):
            return f"cell moments ({ts.prob!r}, {ts.mean!r}, {ts.variance!r}) != " \
                   f"({p!r}, {mu!r}, {v!r})"
        for ev, ref, side in ((inf_ev, inf_h, "inf"), (sup_ev, sup_h, "sup")):
            if not close(ev.value, ref, H_RTOL * max(1.0, abs(ref))):
                return f"cell h {side} {ev.value!r} != {ref!r}"
        msg = self._oracle_value(est.value, est.error_bound, g, quad_tol(est.error_bound, scale))
        return msg or _bracket(R.ext_mul(inf_ev.value, v), R.ext_mul(sup_ev.value, v), g,
                               h_tol(inf_h, v), h_tol(sup_h, v))

    # -- cli -----------------------------------------------------------------

    def _report(self, out, status: int = 0) -> dict:
        if out.returncode != status:
            raise ValueError(f"exit status {out.returncode}, expected {status}")
        report = json.loads(out.stdout)
        errors = self._schema_errors(report)
        if errors:
            raise ValueError(f"report does not match docs/report_schema.json: {errors}")
        return report

    def load_schema(self) -> None:
        """Load the validator of cli reports.  jsonschema is imported only
        here, so the other workloads' peak memory does not include it; a run
        of the cli workload without jsonschema stops with an ImportError."""
        import jsonschema

        schema = json.loads((self.root / "docs" / "report_schema.json").read_text())
        self._validator = jsonschema.Draft7Validator(schema)

    def _schema_errors(self, report: dict) -> str | None:
        if self._validator is None:
            self.load_schema()
        errors = [e.message for e in self._validator.iter_errors(report)]
        return "; ".join(errors[:3]) or None

    def _cli_oracle_block(self, op: Op, report: dict, tolerance, law=None) -> str | None:
        o = report["oracle"]
        _, _, _, g, scale = self._gap_ref(op, law)
        err = float(o["error_bound"])
        msg = self._oracle_value(decode(o["value"]), err, g, tolerance(err, scale))
        if msg:
            return msg
        if not report["bracket"]["pass"]:
            return "the report's own bracket check failed"
        return None

    def _cli_bound(self, op: Op, out) -> str | None:
        report = self._report(out)
        b = report["bounds"]
        msg = self._gap_bounds(op, decode(b["lower"]), decode(b["upper"]), b["variance"])
        if msg or not op.spec["oracle"]:
            return msg
        return self._cli_oracle_block(op, report, quad_tol)

    def _cli_partition(self, op: Op, out) -> str | None:
        report = self._report(out)
        rows = [(decode(r["lower"]), decode(r["upper"]), r["prob"], r["mean"], r["variance"],
                 decode(r["inf_h"]), decode(r["sup_h"])) for r in report["cells"]]
        b = report["bounds"]
        return (self._cells(op, rows)
                or self._partition_bounds(op, decode(b["lower"]), decode(b["upper"]))
                or self._cli_oracle_block(op, report, quad_tol))

    def _cli_sample_bound(self, op: Op, out) -> str | None:
        report = self._report(out)
        law = self._ref(op, "sample", lambda: ("sample", [
            float(v) for v in (line.split("#", 1)[0].strip()
                               for line in Path(op.spec["path"]).read_text().splitlines()) if v]))
        var, mean, smp = R.variance(law), R.mean(law), report["sample"]
        if (smp["n"], smp["mean"], smp["variance"]) != (len(law[1]), mean, var):
            return f"sample summary {smp} != n={len(law[1])}, mean={mean!r}, variance={var!r}"
        b = report["bounds"]
        return (self._gap_bounds(op, decode(b["lower"]), decode(b["upper"]), b["variance"], law)
                or self._cli_oracle_block(op, report, exact_tol, law))

    def _cli_power_mean(self, op: Op, out) -> str | None:
        report = self._report(out)
        pm = report["power_mean"]
        msg = self._power_bounds(op, *(decode(pm[k]) for k in (
            "moment_lower", "moment_upper", "mean_lower", "mean_upper")))
        if msg:
            return msg
        moment = self._power_ref(op)[2]
        err = float(report["oracle"]["error_bound"])
        if not close(decode(report["oracle_moment"]), moment, quad_tol(err, abs(moment))):
            return f"oracle moment {report['oracle_moment']!r} != E[X^s] = {moment!r}"
        if not report["bracket"]["pass"]:
            return "the report's own bracket check failed"
        return None

    def _cli_oracle(self, op: Op, out) -> str | None:
        o = self._report(out)["oracle"]
        g = self._gap_ref(op)[3]
        err = float(o["error_bound"])
        return self._oracle_value(decode(o["value"]), err, g, MC_ERRORS * err)

    def _cli_paper(self, op: Op, out) -> str | None:
        report = self._report(out, status=1)
        failed = [row for row in report["rows"] if not row["pass"]]
        if [row["name"] for row in failed] != [PAPER_FAILING_ROW]:
            return f"failed rows {[row['name'] for row in failed]}, expected only " \
                   f"{PAPER_FAILING_ROW!r}"
        rebuilt = self._ref(op, "paper", R.paper_refined_lower)
        if not close(decode(failed[0]["computed"]), rebuilt, 1e-8):
            return f"refined lower bound {failed[0]['computed']!r} != rebuilt {rebuilt!r}"
        return None
