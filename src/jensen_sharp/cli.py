"""Command-line front end.

Subcommands:

* ``bound``        gap bounds for an analytic law or a sample file
* ``sample-bound`` closed-range bounds computed directly from a sample file
* ``partition``    refined bounds from an equal-probability or explicit split
* ``power-mean``   bracket on E[X**s] and the power mean M_s via Y = X**r
* ``oracle``       ground-truth gap estimate only
* ``paper``        regression report against the published reference values

Grammars: functions are ``exp:t=0.5``, ``power:p=-1``, ``neglog``,
``quad:a=1,b=0,c=0``; distributions are ``normal:mu=0,sigma=1``,
``exp:rate=1``, ``uniform:lo=10,hi=100``, ``file:PATH``; oracles are
``quad``, ``exact``, ``auto``, or ``mc:n=1000000,seed=42``.

Exit statuses: 0 success, 1 failed regression report, 2 usage or parse
error, 3 numeric failure.  The Monte Carlo seed is set only by the ``seed``
key of the ``mc`` spec; it defaults to 42.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .bounds import (
    GapBounds,
    curvature_bounds,
    jensen_bounds,
    power_mean_bounds,
    sample_bounds,
)
from .distributions import (
    DistributionSpec,
    Empirical,
    Exponential,
    Normal,
    Uniform,
    _parse_samples,
    empirical_from_file,
    equal_probability_cuts,
)
from .errors import (
    DomainError,
    EmptyCellError,
    EvaluationError,
    JensenSharpError,
    NumericError,
    ParameterError,
)
from .extreal import encode
from .functions import FunctionSpec, build_named, make_catalog_function, power
from .oracle import DEFAULT_MC_BUDGET, DEFAULT_SEED, GapEstimate, estimate_gap
from .partition import build_partition, partition_bounds

__all__ = ["RunConfig", "parse_args", "run", "paper_report", "main"]

_USAGE_ERRORS = (ParameterError, DomainError, EmptyCellError)
_NUMERIC_ERRORS = (NumericError, EvaluationError)


class CliParseError(JensenSharpError, ValueError):
    """Bad command-line grammar; maps to exit status 2."""


@dataclass(frozen=True)
class RunConfig:
    """A fully parsed invocation."""

    command: str
    phi: str | None = None
    dist: str | None = None
    cells: int | None = None
    cuts: tuple[float, ...] | None = None
    r: float | None = None
    s: float | None = None
    oracle: str | None = None
    output_format: str = "text"


# ---------------------------------------------------------------------------
# grammar parsing
# ---------------------------------------------------------------------------


def _parse_number(token: str) -> float:
    t = token.strip().lower()
    if t in ("inf", "+inf"):
        return math.inf
    if t == "-inf":
        return -math.inf
    try:
        return float(t)
    except ValueError:
        raise CliParseError(f"not a decimal number: {token!r}") from None


def _parse_kv(body: str, what: str) -> dict[str, float]:
    params: dict[str, float] = {}
    for part in body.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise CliParseError(f"bad {what} parameter {part!r}; expected key=value")
        key, _, value = part.partition("=")
        key = key.strip()
        if not key:
            raise CliParseError(f"bad {what} parameter {part!r}; empty key")
        if key in params:
            raise CliParseError(f"duplicate {what} parameter {key!r}")
        params[key] = _parse_number(value)
    return params


def parse_function_text(text: str) -> FunctionSpec:
    """Parse the function grammar, e.g. ``exp:t=0.5`` or ``neglog``."""
    name, sep, body = text.strip().partition(":")
    name = name.strip().lower()
    params = _parse_kv(body, "function") if sep else {}
    try:
        return make_catalog_function(name, **params)
    except ParameterError as exc:
        raise CliParseError(f"bad function spec {text!r}: {exc}") from exc


def parse_distribution_text(text: str) -> DistributionSpec:
    """Parse the distribution grammar, e.g. ``normal:mu=0,sigma=1`` or ``file:PATH``."""
    name, sep, body = text.strip().partition(":")
    name = name.strip().lower()
    if name == "file":
        if not sep or not body:
            raise CliParseError(f"bad distribution spec {text!r}: file needs a path")
        try:
            return empirical_from_file(body)
        except (OSError, UnicodeError) as exc:
            raise CliParseError(f"bad distribution spec {text!r}: {exc}") from exc
    law = _LAWS.get(name)
    if law is None:
        raise CliParseError(
            f"unknown distribution {name!r}; expected normal, exp, uniform, or file"
        )
    params = _parse_kv(body, "distribution") if sep else {}
    try:
        return build_named(law, name, params)
    except ParameterError as exc:
        raise CliParseError(f"bad distribution spec {text!r}: {exc}") from exc


_LAWS = {"normal": Normal, "exp": Exponential, "uniform": Uniform}


def parse_oracle_text(text: str) -> tuple[str, int, int]:
    """Parse an oracle spec into (method, budget, seed)."""
    name, sep, body = text.strip().partition(":")
    name = name.strip().lower()
    if name in ("quad", "exact", "auto"):
        if sep and body:
            raise CliParseError(f"oracle {name!r} takes no parameters, got {body!r}")
        return name, DEFAULT_MC_BUDGET, DEFAULT_SEED
    if name == "mc":
        params = _parse_kv(body, "oracle") if sep else {}
        budget = _whole_number(params.pop("n", DEFAULT_MC_BUDGET), "monte carlo n")
        seed = _whole_number(params.pop("seed", DEFAULT_SEED), "monte carlo seed")
        if params:
            raise CliParseError(f"unexpected oracle parameter(s): {sorted(params)}")
        return "mc", budget, seed
    raise CliParseError(f"unknown oracle {name!r}; expected quad, mc, exact, or auto")


def _parse_cuts(text: str) -> tuple[float, ...]:
    cuts = tuple(_parse_number(tok) for tok in text.split(",") if tok.strip())
    if not cuts:
        raise CliParseError(f"no cut points found in {text!r}")
    for c in cuts:
        if not math.isfinite(c):
            raise CliParseError(f"cut points must be finite, got {c}")
    return cuts


def _whole_number(value: float, what: str) -> int:
    """A sample count or seed: finite, integral and nonnegative."""
    if not (value >= 0 and (isinstance(value, int) or value.is_integer())):
        raise CliParseError(f"{what} must be a nonnegative integer, got {value!r}")
    return int(value)


def parse_args(argv: list[str] | None = None) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="jensen-sharp",
        description="Sharpened two-sided bounds on the Jensen gap E[phi(X)] - phi(E[X]).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", dest="output_format", choices=("text", "json"), default="text")

    def common(p: argparse.ArgumentParser, phi: bool = True) -> None:
        if phi:
            p.add_argument("--phi", required=True, help="function spec, e.g. exp:t=0.5")
        p.add_argument("--dist", required=True, help="distribution spec, e.g. exp:rate=1")
        p.add_argument("--oracle", default=None, help="oracle spec: quad | exact | auto | mc:n=..,seed=..")
        output_format(p)

    common(sub.add_parser("bound", help="gap bounds over the full support"))
    common(sub.add_parser("sample-bound", help="gap bounds over the closed sample range"))

    p_part = sub.add_parser("partition", help="refined bounds from a support split")
    common(p_part)
    group = p_part.add_mutually_exclusive_group(required=True)
    group.add_argument("--cells", type=int, default=None, help="equal-probability cell count")
    group.add_argument("--cuts", type=str, default=None, help="comma-separated interior cut points")

    p_pm = sub.add_parser("power-mean", help="bracket E[X**s] and M_s via Y = X**r")
    common(p_pm, phi=False)
    p_pm.add_argument("--r", type=str, required=True)
    p_pm.add_argument("--s", type=str, required=True)

    common(sub.add_parser("oracle", help="ground-truth gap estimate only"))
    output_format(sub.add_parser("paper", help="regression report against published reference values"))

    fields = vars(parser.parse_args(argv))
    if fields.get("cuts") is not None:
        fields["cuts"] = _parse_cuts(fields["cuts"])
    for key in ("r", "s"):
        if key in fields:
            fields[key] = _parse_number(fields[key])
    return RunConfig(**fields)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _bracket_check(est: GapEstimate, lower: float, upper: float) -> dict:
    slack = 3.0 * est.error_bound
    lo_ok = est.value >= lower - slack
    hi_ok = est.value <= upper + slack
    return {"pass": bool(lo_ok and hi_ok), "lower_ok": bool(lo_ok), "upper_ok": bool(hi_ok)}


def _estimate(config: RunConfig, f: FunctionSpec, d: DistributionSpec) -> GapEstimate:
    method, budget, seed = parse_oracle_text(config.oracle)
    return estimate_gap(f, d, budget=budget, method=method, seed=seed)


def _bounds_blocks(config: RunConfig, f: FunctionSpec, d: DistributionSpec, gb: GapBounds) -> dict:
    """The bounds, with the oracle and its bracket when an oracle is asked for."""
    est = _estimate(config, f, d) if config.oracle is not None else None
    return {
        "bounds": gb.to_json_dict(),
        "oracle": est.to_json_dict() if est is not None else None,
        "bracket": _bracket_check(est, gb.lower, gb.upper) if est is not None else None,
    }


def _run_bound(config: RunConfig, f: FunctionSpec, d: DistributionSpec) -> dict:
    return _bounds_blocks(config, f, d, jensen_bounds(f, d))


def _run_sample_bound(config: RunConfig, f: FunctionSpec, d: DistributionSpec) -> dict:
    if not isinstance(d, Empirical):
        raise CliParseError(
            f"sample-bound needs a sample file distribution (file:PATH), got {config.dist!r}"
        )
    return {
        "sample": {"n": int(d.samples.size), "mean": d.mean(), "variance": d.variance()},
        **_bounds_blocks(config, f, d, sample_bounds(f, d)),
    }


def _run_partition(config: RunConfig, f: FunctionSpec, d: DistributionSpec) -> dict:
    if config.cells is not None:
        cuts = equal_probability_cuts(d, config.cells)
    else:
        cuts = list(config.cuts)
    plan = build_partition(d, cuts)
    gb = partition_bounds(f, plan)
    rows = []
    for (interval, ts), (inf_ev, sup_ev) in zip(plan.cells, gb.cell_extrema):
        rows.append(
            {
                "cell": str(interval),
                "lower": encode(interval.lower),
                "upper": encode(interval.upper),
                "prob": ts.prob,
                "mean": ts.mean,
                "variance": ts.variance,
                "inf_h": encode(inf_ev.value),
                "sup_h": encode(sup_ev.value),
            }
        )
    return {"cells": rows, **_bounds_blocks(config, f, d, gb)}


def _run_power_mean(config: RunConfig, _: None, d: DistributionSpec) -> dict:
    pm = power_mean_bounds(d, config.r, config.s)
    report = {"power_mean": pm.to_json_dict(), "oracle": None, "oracle_moment": None, "bracket": None}
    if config.oracle is not None:
        # E[Y**p] = E[X**s] for Y = X**r, p = s/r, so the gap is taken on X's own law
        est = _estimate(config, power(config.s), d)
        base = d.mean() ** config.s
        report["oracle"] = est.to_json_dict()
        report["oracle_moment"] = encode(base + est.value)
        report["bracket"] = _bracket_check(est, pm.moment_lower - base, pm.moment_upper - base)
    return report


def _run_oracle(config: RunConfig, f: FunctionSpec, d: DistributionSpec) -> dict:
    return {"oracle": _estimate(config, f, d).to_json_dict()}


# each command's handler and the inputs its report echoes, in the order the text report prints them
_COMMANDS = {
    "bound": (_run_bound, ("phi", "dist", "oracle")),
    "sample-bound": (_run_sample_bound, ("phi", "dist", "oracle")),
    "partition": (_run_partition, ("phi", "dist", "cells", "cuts", "oracle")),
    "power-mean": (_run_power_mean, ("dist", "r", "s", "oracle")),
    "oracle": (_run_oracle, ("phi", "dist", "oracle")),
}


def _report(config: RunConfig) -> dict:
    if config.command == "paper":
        return paper_report()
    if config.command not in _COMMANDS:
        raise CliParseError(f"unknown command {config.command!r}")
    if config.command == "oracle" and config.oracle is None:
        config = replace(config, oracle="auto")  # the oracle command always estimates
    handler, keys = _COMMANDS[config.command]
    f = parse_function_text(config.phi) if "phi" in keys else None
    d = parse_distribution_text(config.dist)
    inputs = {key: getattr(config, key) for key in keys}
    if inputs.get("cuts"):
        inputs["cuts"] = list(inputs["cuts"])
    return {"command": config.command, "inputs": inputs, **handler(config, f, d)}


def run(config: RunConfig) -> tuple[int, dict]:
    """Execute a parsed invocation; returns (exit status, report dict)."""
    try:
        report = _report(config)
    except (CliParseError, *_USAGE_ERRORS) as exc:
        return 2, {"command": config.command, "error": str(exc)}
    except _NUMERIC_ERRORS as exc:
        return 3, {"command": config.command, "error": str(exc)}
    status = 0 if report.get("pass", True) else 1
    return status, report


# ---------------------------------------------------------------------------
# the reference regression report
# ---------------------------------------------------------------------------


def reference_sample() -> np.ndarray:
    """The pinned 100-point uniform(10, 100) sample shipped with the package."""
    path = resources.files("jensen_sharp").joinpath("data/uniform_10_100_seed42.txt")
    return np.asarray(_parse_samples(path.read_text(encoding="utf-8"), path), dtype=float)


def _value_row(name: str, reference: float, computed: float, tol: float) -> dict:
    delta = abs(computed - reference) if math.isfinite(computed) else math.inf
    return {
        "name": name,
        "kind": "value",
        "reference": reference,
        "computed": encode(computed),
        "delta": encode(delta),
        "tolerance": tol,
        "pass": bool(delta <= tol),
    }


def _property_row(name: str, ok: bool) -> dict:
    return {
        "name": name,
        "kind": "property",
        "reference": None,
        "computed": bool(ok),
        "delta": None,
        "tolerance": None,
        "pass": bool(ok),
    }


def paper_report() -> dict:
    """Check the library against the published reference values end to end.

    Exit-status contract: 0 iff every row passes.  One reference entry (the
    three-cell refined lower bound, listed as 0.409) is inconsistent with
    the reference table it accompanies; recomputing the bound from that very
    table yields about 0.4060, so its row fails by design.  See README.
    """
    rows: list[dict] = []

    # -- moment generating function of a unit-mean exponential, phi = exp(x/2)
    f_mgf = make_catalog_function("exp", t=0.5)
    d_exp = Exponential(rate=1.0)
    gb = jensen_bounds(f_mgf, d_exp)
    cb = curvature_bounds(f_mgf, d_exp)
    est = estimate_gap(f_mgf, d_exp, method="quad")
    rows.append(_value_row("mgf-exponential: gap lower bound", 0.176, gb.lower, 5e-4))
    rows.append(_property_row("mgf-exponential: gap upper bound is infinite", gb.upper == math.inf))
    rows.append(_value_row("mgf-exponential: curvature lower bound", 0.125, cb.lower, 1e-9))
    rows.append(_value_row("mgf-exponential: oracle gap", 0.351, est.value, 5e-4))
    rows.append(
        _property_row(
            "mgf-exponential: bounds bracket the oracle gap",
            _bracket_check(est, gb.lower, gb.upper)["pass"],
        )
    )

    # -- standard normal with phi = exp(x), three equal-probability cells
    f_exp = make_catalog_function("exp", t=1.0)
    d_norm = Normal(mu=0.0, sigma=1.0)
    cuts = equal_probability_cuts(d_norm, 3)
    plan = build_partition(d_norm, cuts)
    pb = partition_bounds(f_exp, plan)
    est_n = estimate_gap(f_exp, d_norm, method="quad")

    rows.append(_value_row("normal 3-cell: lower cut", -0.431, cuts[0], 1e-3))
    rows.append(_value_row("normal 3-cell: upper cut", 0.431, cuts[1], 1e-3))
    ref_means = (-1.091, 0.000, 1.091)
    ref_vars = (0.280, 0.060, 0.280)
    ref_infs = (0.000, 0.435, 1.209)
    ref_sups = (0.212, 0.580, math.inf)
    for j, ((cell, ts), (inf_ev, sup_ev)) in enumerate(zip(plan.cells, pb.cell_extrema), start=1):
        rows.append(_value_row(f"normal 3-cell: cell {j} conditional mean", ref_means[j - 1], ts.mean, 1e-3))
        rows.append(_value_row(f"normal 3-cell: cell {j} conditional variance", ref_vars[j - 1], ts.variance, 1e-3))
        rows.append(_value_row(f"normal 3-cell: cell {j} h infimum", ref_infs[j - 1], inf_ev.value, 2e-3))
        if math.isinf(ref_sups[j - 1]):
            rows.append(_property_row(f"normal 3-cell: cell {j} h supremum is infinite", sup_ev.value == math.inf))
        else:
            rows.append(_value_row(f"normal 3-cell: cell {j} h supremum", ref_sups[j - 1], sup_ev.value, 2e-3))
    rows.append(_value_row("normal 3-cell: refined lower bound", 0.409, pb.lower, 2e-3))
    rows.append(_property_row("normal 3-cell: refined upper bound is infinite", pb.upper == math.inf))
    rows.append(_value_row("normal 3-cell: oracle gap", 0.649, est_n.value, 5e-4))
    rows.append(
        _property_row(
            "normal 3-cell: refined bounds bracket the oracle gap",
            _bracket_check(est_n, pb.lower, pb.upper)["pass"],
        )
    )

    # -- pinned uniform(10, 100) sample: ratio-of-means and power-mean checks
    xs = reference_sample()
    d_emp = Empirical(xs)
    neglog = make_catalog_function("neglog")
    sb = sample_bounds(neglog, d_emp)
    am = d_emp.mean()
    gm = math.exp(math.fsum(math.log(x) for x in xs) / xs.size)
    ratio = am / gm
    rows.append(
        _property_row(
            "pinned sample: exp(bounds) bracket the arithmetic/geometric mean ratio",
            math.exp(sb.lower) <= ratio <= math.exp(sb.upper),
        )
    )
    cb_s = curvature_bounds(neglog, d_emp)
    rows.append(
        _property_row(
            "pinned sample: curvature bounds are strictly looser on both ends",
            cb_s.lower < sb.lower and cb_s.upper > sb.upper,
        )
    )
    pm = power_mean_bounds(d_emp, r=1.0, s=-1.0)
    harmonic = xs.size / math.fsum(1.0 / x for x in xs)
    rows.append(
        _property_row(
            "pinned sample: harmonic-mean bracket contains the harmonic mean",
            pm.mean_lower <= harmonic <= pm.mean_upper,
        )
    )
    rows.append(
        _property_row(
            "pinned sample: harmonic-mean upper end stays below the arithmetic mean",
            pm.mean_upper < am,
        )
    )

    return {"command": "paper", "rows": rows, "pass": bool(all(r["pass"] for r in rows))}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _render_bounds_block(out: list[str], b: dict) -> None:
    out.append(f"lower:    {_fmt(b['lower'])}  (witness {_fmt(b['witness_lower'])})")
    out.append(f"upper:    {_fmt(b['upper'])}  (witness {_fmt(b['witness_upper'])})")
    out.append(f"variance: {_fmt(b['variance'])}")
    out.append(f"method:   {b['method']}")


def _render_oracle_block(out: list[str], report: dict) -> None:
    if report.get("oracle"):
        o = report["oracle"]
        out.append(f"oracle:   {_fmt(o['value'])} +/- {_fmt(o['error_bound'])} ({o['method']})")
    if report.get("bracket"):
        out.append(f"bracket:  {'PASS' if report['bracket']['pass'] else 'FAIL'}")


def render_text(report: dict) -> str:
    out: list[str] = []
    if "error" in report:
        return f"error: {report['error']}"
    cmd = report["command"]
    out.append(f"command:  {cmd}")
    for key, value in report.get("inputs", {}).items():
        if value is not None:
            out.append(f"{key + ':':<10}{value}")
    if cmd == "sample-bound" and "sample" in report:
        s = report["sample"]
        out.append(f"sample:   n={s['n']} mean={_fmt(s['mean'])} variance={_fmt(s['variance'])}")
    if cmd == "partition":
        out.append("cells:")
        header = f"  {'cell':<24}{'prob':<22}{'mean':<24}{'variance':<24}{'inf_h':<24}{'sup_h'}"
        out.append(header)
        for row in report["cells"]:
            out.append(
                f"  {row['cell']:<24}{_fmt(row['prob']):<22}{_fmt(row['mean']):<24}"
                f"{_fmt(row['variance']):<24}{_fmt(row['inf_h']):<24}{_fmt(row['sup_h'])}"
            )
    if cmd == "power-mean":
        pm = report["power_mean"]
        out.append(f"moment bracket: [{_fmt(pm['moment_lower'])}, {_fmt(pm['moment_upper'])}]")
        out.append(f"mean bracket:   [{_fmt(pm['mean_lower'])}, {_fmt(pm['mean_upper'])}]")
        if report.get("oracle_moment") is not None:
            out.append(f"oracle moment:  {_fmt(report['oracle_moment'])}")
    if "bounds" in report:
        _render_bounds_block(out, report["bounds"])
    if cmd == "paper":
        out.append("reference report:")
        for row in report["rows"]:
            status = "PASS" if row["pass"] else "FAIL"
            if row["kind"] == "value":
                detail = (
                    f"reference={_fmt(row['reference'])} computed={_fmt(row['computed'])} "
                    f"delta={_fmt(row['delta'])} tol={_fmt(row['tolerance'])}"
                )
            else:
                detail = f"holds={_fmt(row['computed'])}"
            out.append(f"  [{status}] {row['name']}: {detail}")
        n_fail = sum(1 for r in report["rows"] if not r["pass"])
        out.append(f"overall:  {'PASS' if report['pass'] else f'FAIL ({n_fail} row(s) failed)'}")
    _render_oracle_block(out, report)
    return "\n".join(out)


def render(report: dict, output_format: str) -> str:
    if output_format == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    return render_text(report)


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_args(argv)
    except CliParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status, report = run(config)
    if "error" in report and config.output_format != "json":
        print(f"error: {report['error']}", file=sys.stderr)
    else:
        print(render(report, config.output_format))
    return status


if __name__ == "__main__":
    sys.exit(main())
