"""Benchmark for jensen_sharp: run one workload, check it, print its metrics.

Run from the root of a checkout, against its ``src/`` (nothing is installed):

    python3 bench/run.py --workload bounds --seed 1 --seconds 10 --trace 0

Workloads are ``bounds``, ``scan``, ``verify`` and ``cli`` (see
``workloads.py`` and README.md).  ``--trace 0`` times the workload and prints
the end-to-end metrics; ``--trace 1`` runs it with every public function of
the package wrapped in spans and prints the per-layer metrics instead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--quick`` runs one operation of
each kind, once, for a smoke test.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: fresh interpreters started per run to time set-up; a run reports the median
SETUP_PROBES = 11
#: the tail percentile: every round has at least 40 slots that do not fail,
#: so at least 10 of them lie beyond it
TAIL = 0.75
#: a slot's time is its median over the rounds, which needs a few of them;
#: a cli round is 40 cold starts (about 30 s), so one round is the minimum there
MIN_ROUNDS = {"bounds": 3, "scan": 3, "verify": 3, "cli": 1}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed length of the run; whole rounds are always completed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one operation of each kind, one round, one set-up probe")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_package():
    """Import jensen_sharp from this checkout's src/, and from nowhere else."""
    pkg = ROOT / "src" / "jensen_sharp"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: {pkg} not found; run the benchmark inside a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import jensen_sharp

    if Path(jensen_sharp.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: jensen_sharp was imported from {jensen_sharp.__file__}")
    return jensen_sharp


def warm_up(ops: list[workloads.Op]) -> None:
    """Run the first operation of each kind once, untimed."""
    for op in workloads.quick(ops):
        try:
            op.call()
        except Exception:  # the timed rounds record and report it
            pass


class Timings:
    """What the timed rounds leave: each slot's time in every round at
    reference machine speed, whether it ever failed, and the peak memory of
    the cli children."""

    def __init__(self, n: int):
        self.times: list[list[float]] = [[] for _ in range(n)]
        self.failed = [False] * n
        self.rounds = 0
        self.child_peak_kb = 0


def measure(ops: list[workloads.Op], seconds: float, min_rounds: int, checker,
            call=None, tracer=None) -> Timings:
    """Whole rounds until their operations have taken ``seconds`` and at
    least ``min_rounds`` have run.

    Each round's outputs are checked as soon as it ends and then dropped, so
    memory does not grow with the number of rounds; the checks are not timed.
    An operation in this process is scaled by the mean of the kernel times
    just before and just after it; a cli command, run in a child process, is
    timed and scaled by the child itself (``cli_child.py``).
    """
    call = call or (lambda fn: fn())
    res = Timings(len(ops))
    clock = time.perf_counter
    timed = 0.0
    k_before = speed.kernel_seconds()
    while True:
        outs = []
        for i, op in enumerate(ops):
            t0 = clock()
            try:
                out = call(op.call)
            except Exception as exc:  # judged and reported by the checker
                out = exc
            t = clock() - t0
            timed += t
            if isinstance(out, workloads.CliResult) and out.kernel_s:
                t, k = out.seconds, out.kernel_s
            else:
                k_after = speed.kernel_seconds()
                k, k_before = 0.5 * (k_before + k_after), k_after
            res.times[i].append(speed.scaled(t, k))
            outs.append(out)
        res.rounds += 1
        kept = len(tracer.spans) if tracer else 0
        for i, (op, out) in enumerate(zip(ops, outs)):
            if isinstance(out, workloads.CliResult):
                res.child_peak_kb = max(res.child_peak_kb, out.maxrss_kb)
            msg = checker.check(op, out)
            if msg is not None and not res.failed[i]:
                note = f" [known fault: {op.fault}]" if op.fault else ""
                print(f"FAIL {op.label}: {msg}{note}", file=sys.stderr)
            res.failed[i] = res.failed[i] or msg is not None
        if tracer:  # the checks' own calls into the package are not workload spans
            del tracer.spans[kept:]
        if timed >= seconds and res.rounds >= min_rounds:
            return res


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    s = sorted(values)
    k = (len(s) - 1) * q
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def setup_seconds(args, probes: int) -> float:
    """Median over fresh interpreters of start -> first timed operation, at
    reference machine speed: each probe times the kernel after its set-up."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--quick"] if args.quick else [])
    samples = []
    for _ in range(probes):
        t0 = time.monotonic()
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170,
                             check=False)
        if res.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {res.stderr.strip()[-800:]}")
        samples.append(speed.scaled(*speed.parse_child_report(res.stdout.splitlines()[-1], t0)))
    return statistics.median(samples)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    js = load_package()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(js)
    # every operation runs in this process, except the untraced cli commands
    in_process = args.workload != "cli" or tracer is not None
    ops = workloads.build(args.workload, args.seed, js, ROOT, in_process=tracer is not None)
    if args.quick:
        ops = workloads.quick(ops)
    if in_process:
        warm_up(ops)
    if args.setup_probe:
        print(speed.child_report(time.monotonic()))
        return 0

    from checks import Checker

    checker = Checker(js, ROOT)
    if args.workload == "cli":
        checker.load_schema()  # every cli report is validated: no jsonschema, no run
    if tracer:
        tracer.reset()
    res = measure(ops, args.seconds, 1 if args.quick else MIN_ROUNDS[args.workload], checker,
                  tracer and tracer.op, tracer)
    if in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = res.child_peak_kb
    # only operations with a named program fault may fail
    correct = all(op.fault is not None for op, bad in zip(ops, res.failed) if bad)

    # counts are per round: every round attempts the same operations
    attempted = len(ops)
    failed = sum(res.failed)
    # a slot's time is its median over the rounds
    typical = [statistics.median(ts) for ts in res.times]
    ok_slots = [t for t, bad in zip(typical, res.failed) if not bad]
    if not ok_slots:
        raise SystemExit("error: every operation failed")
    ops_per_s = len(ok_slots) / sum(typical)
    print(f"workload {args.workload}, seed {args.seed}: {attempted} operations a round, "
          f"{res.rounds} rounds, {failed} failed a round, "
          f"{len(ok_slots)} slots timed{' with tracing' if tracer else ''}")

    if tracer:
        metrics = tracing.per_layer(tracer, js, ROOT, attempted * res.rounds)
        path = tracing.write(tracer, OUT, args, metrics, ops_per_s)
        print(f"spans written to {path.relative_to(ROOT)}", file=sys.stderr)
    else:
        metrics = {
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_ms": (statistics.median(ok_slots) * 1e3, "ms"),
            "op_tail_ms": (percentile(ok_slots, TAIL) * 1e3, "ms"),
            "setup_s": (setup_seconds(args, 1 if args.quick else SETUP_PROBES), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
