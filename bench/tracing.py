"""The traced run: spans around every public function of the package.

``Tracer.install`` wraps, from outside the package, each public function of
the modules in ``MODULES`` and the query methods of each law class, in every
namespace that holds them, so calls between modules are traced too.  It
also wraps the callables of every ``FunctionSpec`` built afterwards in
counters of phi and derivative evaluations (array arguments count each
element).  ``extreal`` and ``errors`` do no measurable work and are left
alone.

A span is ``[name, tag, parent, start, end, phi, deriv, integrand,
expectation]``: the tag classifies the call from its arguments (fast path,
scan or flat scan; hint, direct or probe; oracle mode; law class), and the
last four fields are the evaluations counted while the span was open.
Spans are kept in memory and written, gzipped, to ``bench/out`` when the run
ends.
A span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import inspect
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

MODULES = ("functions", "distributions", "bounds", "partition", "oracle", "quadrature", "cli")
COUNTERS = ("phi", "deriv", "integrand", "expectation")
LAW_METHODS = ("__post_init__", "mean", "variance", "interval_prob", "truncated_stats", "quantile")
ANALYTIC = ("Normal", "Exponential", "Uniform")
IMPORT_PROBES = 3
INTERPRETER_PROBES = 5
SUITE_REPEATS = 3


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()

    def span(self, name: str, fn, tag=None, pre=None):
        """``fn`` wrapped in a span; ``tag(*args)`` classifies the call."""
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                args = pre(args)
            label = ""
            if tag is not None:
                try:
                    label = tag(*args, **kwargs)
                except (TypeError, AttributeError):  # a signature this file does not know
                    label = "?"
            rec = [name, label, stack[-1] if stack else -1, 0.0, 0.0,
                   *(counts[c] for c in COUNTERS)]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
                for i, c in enumerate(COUNTERS, start=5):
                    rec[i] = counts[c] - rec[i]

        return traced

    def op(self, fn):
        """Run one workload operation inside an ``op`` span."""
        return self.span("op", fn)()

    def counted(self, counter: str, fn):
        counts = self.counts

        def wrapper(x):
            counts[counter] += np.size(x)
            return fn(x)

        wrapper.bench_counted = True
        return wrapper

    def install(self, js) -> None:
        mods = [importlib.import_module(f"jensen_sharp.{m}") for m in MODULES]
        swaps = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                key = f"{short}.{name}"
                pre = self._count_integrand if key == "quadrature.expectation" else None
                swaps[id(obj)] = (obj, self.span(key, obj, TAGS.get(key), pre))
            for cls in vars(mod).values():
                if inspect.isclass(cls) and cls.__module__ == mod.__name__ \
                        and issubclass(cls, js.DistributionSpec):
                    for name in LAW_METHODS:
                        if name in vars(cls):
                            setattr(cls, name, self.span(
                                f"distributions.{cls.__name__}.{name}", vars(cls)[name], _law_tag))
        for ns in [vars(js)] + [vars(m) for m in mods]:
            for key, val in list(ns.items()):
                hit = swaps.get(id(val))
                if hit is not None and hit[0] is val:
                    ns[key] = hit[1]
        self._count_specs(js.FunctionSpec)

    def _count_integrand(self, args: tuple) -> tuple:
        self.counts["expectation"] += 1
        if not args:
            return args
        return (self.counted("integrand", args[0]), *args[1:])

    def _count_specs(self, spec_cls) -> None:
        original = spec_cls.__init__
        counted = self.counted

        def __init__(spec, *args, **kwargs):
            original(spec, *args, **kwargs)
            for attr, counter in (("func", "phi"), ("deriv1", "deriv"), ("deriv2", "deriv")):
                fn = getattr(spec, attr)
                if not getattr(fn, "bench_counted", False):
                    object.__setattr__(spec, attr, counted(counter, fn))

        spec_cls.__init__ = __init__


# ---------------------------------------------------------------------------
# classifying calls from their arguments
# ---------------------------------------------------------------------------


def _shape_tag(f, interval=None, nu=None) -> str:
    if f.phi_prime_shape.value != "unknown":
        return "fast"
    return "flat" if workloads.is_flat(f) else "scan"


def _limit_route(f, nu, endpoint) -> str:
    if f.h_limit_hint is not None and f.h_limit_hint(float(endpoint), float(nu)) is not None:
        return "hint"
    if math.isfinite(endpoint) and f.natural_domain.contains(endpoint):
        return "direct"
    return "probe"


def _oracle_mode(f, d, budget=None, method="auto", seed=None) -> str:
    method = method.lower()
    if method == "mc":
        return "mc"
    atoms = type(d).__name__ in ("Empirical", "Discrete")
    if method == "exact" or atoms:
        return "exact"
    return "quad"


def _law_tag(d, *args) -> str:
    name = type(d).__name__
    if name == "Empirical":
        return f"{name}:n={np.size(d.samples)}"
    return name


TAGS = {
    "bounds.h_extrema": _shape_tag,
    "bounds.h_endpoint_limit": _limit_route,
    "oracle.estimate_gap": _oracle_mode,
    "distributions.transform_power": lambda d, r: type(d).__name__,
}


# ---------------------------------------------------------------------------
# layers the workload may not reach: a fixed suite run in every traced run
# ---------------------------------------------------------------------------


def layer_suite(js, root: Path) -> None:
    """Fixed inputs that reach every layer with a per-layer metric."""
    rng = np.random.default_rng(20170727)
    big = rng.lognormal(0.0, 0.5, 100_000)
    unknown = js.Shape.UNKNOWN
    e1, e_half = js.exp_scaled(1.0), js.exp_scaled(0.5)
    normal, expo, unif = js.Normal(0.0, 1.0), js.Exponential(1.3), js.Uniform(1.0, 4.0)
    sample_path = str(root / workloads.SAMPLE_FILE)
    commands = [
        ["bound", "--phi", "exp:t=0.5", "--dist", "exp:rate=1"],
        ["bound", "--phi", "exp:t=0.5", "--dist", "exp:rate=1", "--oracle", "quad"],
        ["partition", "--phi", "exp:t=1", "--dist", "normal:mu=0,sigma=1", "--cells", "3",
         "--oracle", "quad"],
        ["sample-bound", "--phi", "neglog", "--dist", f"file:{sample_path}", "--oracle", "exact"],
        ["power-mean", "--dist", "exp:rate=1.3", "--r", "0.5", "--s", "1.5", "--oracle", "quad"],
        ["oracle", "--phi", "exp:t=0.5", "--dist", "normal:mu=0,sigma=1",
         "--oracle", f"mc:n={workloads.MC_SAMPLES},seed={workloads.MC_SEED}"],
        ["paper"],
    ]
    for _ in range(SUITE_REPEATS):
        emp = js.Empirical(big)
        emp.variance()
        js.jensen_bounds(js.power(3.0), expo)
        js.h_endpoint_limit(e_half, 0.3, math.inf)
        js.h_endpoint_limit(js.power(3.0), 2.0, 1.0)
        js.h_endpoint_limit(js.power(0.5), 1.0, 0.0)
        js.h_extrema(dataclasses.replace(js.power(3.0), phi_prime_shape=unknown),
                     unif.support, unif.mean())
        js.h_extrema(dataclasses.replace(js.quadratic(1.0), phi_prime_shape=unknown),
                     unif.support, unif.mean())
        js.curvature_bounds(e_half, unif)
        js.sample_bounds(js.neg_log(), big[:1000])
        js.power_mean_bounds(expo, 0.5, 1.5)
        plan = js.build_partition(normal, js.equal_probability_cuts(normal, 8))
        js.partition_bounds(e1, plan)
        js.positivity_certificate(e_half, unif, js.SupportInterval(1.5, 3.0, True, False))
        js.estimate_gap(js.neg_log(), js.Empirical(big[:10_000]), method="exact")
        js.estimate_gap(e_half, expo, method="quad")
        js.estimate_gap(e_half, normal, budget=workloads.MC_SAMPLES, method="mc",
                        seed=workloads.MC_SEED)
        js.estimate_conditional_gap(js.exp_scaled(0.7), normal, plan.cells[-1][0], method="quad")
        for argv in commands:
            workloads.cli_in_process(js, argv + ["--format", "json"])


def _python(root: Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=root, env=workloads.src_env(root),
                          capture_output=True, text=True, timeout=120, check=True)


def import_times(root: Path) -> dict[str, float]:
    """Median cumulative import time (ms) of the package, scipy and numpy.

    From ``python -X importtime`` in fresh interpreters; scipy and numpy sum
    their outermost entries, whoever imported them.
    """
    runs = []
    for _ in range(IMPORT_PROBES):
        stderr = _python(root, "-X", "importtime", "-c", "import jensen_sharp").stderr
        entries = []
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line[13:]:
                continue
            _, cumulative, name = line[12:].split("|")
            if not cumulative.strip().isdigit():
                continue
            depth = len(name) - len(name.lstrip())
            entries.append((depth, name.strip(), int(cumulative)))
        totals = dict.fromkeys(("jensen_sharp", "scipy", "numpy"), 0)
        ancestors: list[tuple[int, str]] = []
        # importtime prints a module after its imports, so walk backwards
        for depth, name, cumulative in reversed(entries):
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            for pkg in totals:
                inside = name == pkg or name.startswith(pkg + ".")
                if inside and not any(a == pkg or a.startswith(pkg + ".") for _, a in ancestors):
                    totals[pkg] += cumulative
            ancestors.append((depth, name))
        runs.append(totals)
    return {pkg: statistics.median(r[pkg] for r in runs) / 1e3 for pkg in runs[0]}


def interpreter_ms(root: Path) -> float:
    samples = []
    for _ in range(INTERPRETER_PROBES):
        t0 = time.perf_counter()
        _python(root, "-c", "pass")
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def per_layer(tracer: Tracer, js, root: Path, n_ops: int) -> dict[str, tuple[float, str]]:
    """Run the layer suite and the interpreter probes, then reduce the spans."""
    workload_spans = len(tracer.spans)
    layer_suite(js, root)
    spans = tracer.spans
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[2] >= 0:
            child[rec[2]] += rec[4] - rec[3]

    def pick(name, tags=None, top=None):
        out = []
        for i, rec in enumerate(spans):
            if rec[0] != name or (tags is not None and rec[1] not in tags):
                continue
            if top is not None and rec[2] >= 0 and spans[rec[2]][0].startswith(top):
                continue
            out.append(i)
        return out

    def med(idx, scale, self_time=False):
        values = [spans[i][4] - spans[i][3] - (child[i] if self_time else 0.0) for i in idx]
        if not values:
            print("warning: a per-layer metric has no spans", file=sys.stderr)
            return 0.0
        return statistics.median(values) * scale

    def mean_count(idx, field):
        return statistics.fmean(spans[i][field] for i in idx) if idx else 0.0

    def law_method(method, classes=ANALYTIC):
        return [i for c in classes for i in pick(f"distributions.{c}.{method}")]

    ops = [rec for rec in spans[:workload_spans] if rec[0] == "op"]
    per_op = {c: sum(rec[5 + k] for rec in ops) / max(1, n_ops) for k, c in enumerate(COUNTERS)}
    scans = pick("bounds.h_extrema", ("scan", "flat"))
    imports = import_times(root)
    ms, us = 1e3, 1e6
    return {
        "import.total_ms": (imports["jensen_sharp"], "ms"),
        "import.scipy_ms": (imports["scipy"], "ms"),
        "import.numpy_ms": (imports["numpy"], "ms"),
        "cli.interpreter_ms": (interpreter_ms(root), "ms"),
        "cli.parse_args_us": (med(pick("cli.parse_args"), us), "us"),
        "cli.run_ms": (med(pick("cli.run"), ms), "ms"),
        "cli.render_us": (med(pick("cli.render"), us), "us"),
        "functions.phi_calls_per_op": (per_op["phi"], "count"),
        "functions.deriv_calls_per_op": (per_op["deriv"], "count"),
        "bounds.h_extrema_fast_us": (med(pick("bounds.h_extrema", ("fast",)), us), "us"),
        "bounds.h_extrema_scan_ms": (med(pick("bounds.h_extrema", ("scan",)), ms), "ms"),
        "bounds.h_extrema_scan_flat_ms": (med(pick("bounds.h_extrema", ("flat",)), ms), "ms"),
        "bounds.curvature_extrema_ms": (med(pick("bounds.curvature_extrema"), ms), "ms"),
        "bounds.scan_phi_calls": (mean_count(scans, 5), "count"),
        "bounds.limit_hint_us": (med(pick("bounds.h_endpoint_limit", ("hint",)), us), "us"),
        "bounds.limit_direct_us": (med(pick("bounds.h_endpoint_limit", ("direct",)), us), "us"),
        "bounds.limit_probe_us": (med(pick("bounds.h_endpoint_limit", ("probe",)), us), "us"),
        "bounds.sample_bounds_ms": (med(pick("bounds.sample_bounds"), ms, True), "ms"),
        "bounds.power_mean_bounds_ms": (med(pick("bounds.power_mean_bounds"), ms, True), "ms"),
        "bounds.curvature_bounds_ms": (med(pick("bounds.curvature_bounds"), ms, True), "ms"),
        "distributions.empirical_init_ms": (
            med(pick("distributions.Empirical.__post_init__", ("Empirical:n=100000",)), ms), "ms"),
        "distributions.empirical_moments_ms": (
            med(pick("distributions.Empirical.variance", ("Empirical:n=100000",)), ms), "ms"),
        "distributions.truncated_stats_us": (med(law_method("truncated_stats"), us), "us"),
        "distributions.quantile_us": (med(law_method("quantile"), us), "us"),
        "distributions.interval_prob_us": (med(law_method("interval_prob"), us), "us"),
        "distributions.transform_power_ms": (
            med(pick("distributions.transform_power", ANALYTIC), ms), "ms"),
        "partition.build_partition_ms": (med(pick("partition.build_partition"), ms), "ms"),
        "partition.partition_bounds_ms": (med(pick("partition.partition_bounds"), ms), "ms"),
        "partition.cell_h_extrema_ms": (med(pick("partition.cell_h_extrema"), ms), "ms"),
        "partition.positivity_certificate_ms": (
            med(pick("partition.positivity_certificate"), ms), "ms"),
        "oracle.exact_ms": (med(pick("oracle.estimate_gap", ("exact",), "oracle."), ms), "ms"),
        "oracle.quad_ms": (med(pick("oracle.estimate_gap", ("quad",), "oracle."), ms), "ms"),
        "oracle.mc_ms": (med(pick("oracle.estimate_gap", ("mc",), "oracle."), ms), "ms"),
        "oracle.conditional_ms": (med(pick("oracle.estimate_conditional_gap"), ms), "ms"),
        "quadrature.expectation_ms": (med(pick("quadrature.expectation"), ms, True), "ms"),
        "quadrature.calls_per_op": (per_op["expectation"], "count"),
        "quadrature.integrand_calls_per_call": (
            mean_count(pick("quadrature.expectation"), 7), "count"),
    }


def write(tracer: Tracer, out_dir: Path, args, metrics: dict, ops_per_s: float) -> Path:
    """Summary line, then one JSON array per span."""
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "traced_ops_per_s": ops_per_s,
                             "fields": ["name", "tag", "parent", "start", "end", *COUNTERS],
                             "metrics": {k: v for k, (v, _) in metrics.items()}}) + "\n")
        for rec in tracer.spans:
            fh.write(json.dumps(rec) + "\n")
    return path
