"""Tests of the benchmark itself: its checker, its quick mode, its refusals.

Run from the root of a checkout with ``python3 -m pytest bench -q``.  They
stay out of the package's own suite, whose ``testpaths`` is ``tests/``.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import jensen_sharp as js  # noqa: E402
import workloads  # noqa: E402
from checks import PAPER_FAILING_ROW, Checker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def checker() -> Checker:
    return Checker(js, ROOT)


def first(workload: str, kind: str, in_process: bool = False) -> workloads.Op:
    ops = workloads.build(workload, 1, js, ROOT, in_process=in_process)
    return next(op for op in ops if op.kind == kind)


def run_bench(*args: str, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170, check=False)


def test_perturbed_bound_is_flagged(checker):
    op = first("bounds", "jensen_bounds")
    gb = op.call()
    assert checker.check(op, gb) is None
    bumped = dataclasses.replace(gb, lower=gb.lower + 1e-4 * max(1.0, abs(gb.lower)))
    assert checker.check(op, bumped) is not None


def test_perturbed_partition_bound_is_flagged(checker):
    op = first("bounds", "partition")
    plan, gb = op.call()
    assert checker.check(op, (plan, gb)) is None
    lowered = dataclasses.replace(gb, lower=gb.lower - 1e-4 * max(1.0, abs(gb.lower)))
    assert checker.check(op, (plan, lowered)) is not None


def test_wrong_oracle_value_is_flagged(checker):
    op = first("verify", "oracle_quad")
    gb, est = op.call()
    assert checker.check(op, (gb, est)) is None
    wrong = dataclasses.replace(est, value=est.value + 1e-5 * max(1.0, abs(est.value)))
    assert checker.check(op, (gb, wrong)) is not None


def test_monte_carlo_beyond_its_stated_multiple_is_flagged(checker):
    op = first("verify", "oracle_mc")
    gb, est = op.call()
    assert checker.check(op, (gb, est)) is None
    far = dataclasses.replace(est, value=est.value + 5.0 * est.error_bound)
    assert checker.check(op, (gb, far)) is not None


def test_wrong_paper_row_is_flagged(checker):
    op = first("cli", "cli_paper", in_process=True)
    out = op.call()
    assert checker.check(op, out) is None
    report = json.loads(out.stdout)

    two_failed = copy.deepcopy(report)
    two_failed["rows"][0]["pass"] = False
    assert checker.check(op, workloads.CliResult(1, json.dumps(two_failed), 0)) is not None

    moved = copy.deepcopy(report)
    row = next(r for r in moved["rows"] if r["name"] == PAPER_FAILING_ROW)
    row["computed"] = row["computed"] + 1e-6
    assert checker.check(op, workloads.CliResult(1, json.dumps(moved), 0)) is not None

    assert checker.check(op, workloads.CliResult(0, out.stdout, 0)) is not None


def test_exception_is_a_failure(checker):
    op = first("bounds", "jensen_bounds")
    assert checker.check(op, js.NumericError("did not converge")) is not None


def test_named_fault_cases_fail_today(checker):
    faulty = [op for op in workloads.build("verify", 1, js, ROOT) if op.fault]
    assert len(faulty) == 3
    for op in faulty:
        assert checker.check(op, op.call()) is not None


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_run(workload):
    res = run_bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0",
                    "--quick")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert result["correct"] is True
    ops = workloads.quick(workloads.build(workload, 3, js, ROOT))
    assert result["attempted"] == len(ops)
    assert result["failed"] == (3 if workload == "verify" else 0)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_counts_do_not_grow_with_rounds():
    counts = []
    for seconds in ("0", "1"):
        res = run_bench("--workload", "verify", "--seed", "3", "--seconds", seconds,
                        "--trace", "0", "--quick")
        assert res.returncode == 0, res.stderr
        assert (" 1 rounds," in res.stdout) == (seconds == "0")
        result = json.loads(res.stdout.splitlines()[-1])
        counts.append((result["attempted"], result["failed"]))
    assert counts[0] == counts[1]


def test_quick_traced_run_gives_every_layer_metric():
    res = run_bench("--workload", "scan", "--seed", "3", "--seconds", "0", "--trace", "1",
                    "--quick")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_refuses_to_run_without_the_source_tree():
    lonely = BENCH / "out" / "lonely"
    shutil.rmtree(lonely, ignore_errors=True)
    (lonely / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", lonely)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, lonely / "bench")
    try:
        res = run_bench("--workload", "bounds", "--seed", "1", "--seconds", "1", "--trace", "0",
                        cwd=lonely, script=lonely / "bench" / "run.py")
    finally:
        shutil.rmtree(lonely)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
