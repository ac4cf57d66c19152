"""Run the benchmark on a parent commit and on this checkout, in alternating pairs.

    python3 tools/bench_pair.py PARENT_REF [--workload W ...] [--pairs N] --out BENCH_NAME.json

Both sides are exported with ``git archive`` into temporary directories of their
own, so that neither runs in a tree that the other lacks (caches, build output,
untracked files): the parent from its commit, and this checkout from HEAD, or
from a ``git stash create`` commit of its tracked and staged changes when it
has any.  Neither holds untracked files, so an untracked file under ``src/`` or
the benchmark's paths stops the run (stage it to take it along).  Each side runs
its own ``bench/run.py`` against its own ``src/``
(``--seed``, and BENCHMARK.json's ``run_seconds``; the benchmark itself must be the
same on both sides).  Pair k runs the parent first when k is even and this checkout
first when k is odd.  The JSON file written holds both commits, machine notes, every
run's metrics and, per workload, each side's median and quartiles of every end-to-end
metric, and the number of pairs in which this checkout read better, by the direction
that BENCHMARK.json gives each metric, and whether that shows a gain: better in nine
pairs of ten, the median better than the parent's by more than the parent's quartile
spread, every run correct, and no more operations failed over all of this checkout's
runs than over the parent's.  Workloads default to all of BENCHMARK.json's; pairs to 10.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def export(ref: str, dest: Path) -> None:
    """The committed files of ``ref``, as a fresh checkout holds them."""
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, capture_output=True,
                             check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its last stdout line is the result object."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {root} exited {done.returncode}:\n"
                         f"{done.stderr.strip()[-2000:]}")
    out = json.loads(done.stdout.splitlines()[-1])
    return {"correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"],
            "metrics": {k: v["value"] for k, v in out["metrics"].items()}}


def spread(values: list[float]) -> dict:
    """Median and quartiles (linear interpolation, numpy's default)."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    side = {s: [r[s] for r in runs] for s in ("parent", "change")}
    summary = {s: {m: spread([r["metrics"][m] for r in rs]) for m in better}
               for s, rs in side.items()}
    summary["change_better_pairs"] = {
        m: sum((c["metrics"][m] > p["metrics"][m]) if up == "higher"
               else (c["metrics"][m] < p["metrics"][m])
               for p, c in zip(side["parent"], side["change"]))
        for m, up in better.items()
    }
    summary["failed"] = {s: sorted({r["failed"] for r in rs}) for s, rs in side.items()}
    summary["all_correct"] = all(r["correct"] for rs in side.values() for r in rs)
    # a gain is shown when this checkout wins nine pairs in ten, its median beats the
    # parent's by more than the parent's own spread between quartiles, and it is no
    # less correct: every run correct, no more operations failed than at the parent
    sound = summary["all_correct"] and sum(r["failed"] for r in side["change"]) <= sum(
        r["failed"] for r in side["parent"])
    summary["gain_shown"] = {}
    for m, up in better.items():
        gain = summary["change"][m]["median"] - summary["parent"][m]["median"]
        summary["gain_shown"][m] = (
            sound and 10 * summary["change_better_pairs"][m] >= 9 * len(runs)
            and (gain if up == "higher" else -gain)
            > summary["parent"][m]["q3"] - summary["parent"][m]["q1"])
    return summary


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"platform": platform.platform(), "python": platform.python_version(),
            "cpus": os.cpu_count(), "cpu_model": model,
            "loadavg_at_start": list(os.getloadavg())}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_ref")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    # the stash commit holds the tracked and staged changes; it is empty when there are none
    head = git("rev-parse", "HEAD")
    change_ref = git("stash", "create") or head
    bench_paths = [*spec["paths"], "BENCHMARK.json"]
    untracked = git("ls-files", "--others", "--exclude-standard", "--", "src", *bench_paths)
    if untracked:
        raise SystemExit("error: untracked files would be left out of this checkout's side "
                         f"(stage them to take them along):\n{untracked}")
    if subprocess.run(["git", "diff", "--quiet", args.parent_ref, change_ref, "--", *bench_paths],
                      cwd=ROOT).returncode != 0:
        raise SystemExit(f"error: the benchmark differs between {args.parent_ref} and this checkout")
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    result = {
        "parent": {"ref": args.parent_ref, "sha": git("rev-parse", args.parent_ref)},
        "change": {"sha": head, "exported": change_ref, "uncommitted_changes": change_ref != head},
        "settings": {"seed": args.seed, "seconds": spec["run_seconds"], "pairs": args.pairs},
        "machine": machine(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        roots = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export(args.parent_ref, roots["parent"])
        export(change_ref, roots["change"])
        for workload in args.workload or [w["name"] for w in spec["workloads"]]:
            runs = []
            for k in range(args.pairs):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                pair = {"first": order[0]}
                for side in order:
                    t0 = time.monotonic()
                    pair[side] = run_bench(roots[side], workload, args.seed,
                                           spec["run_seconds"])
                    print(f"{workload} pair {k + 1}/{args.pairs} {side}: "
                          f"{pair[side]['metrics']} ({time.monotonic() - t0:.0f} s)",
                          file=sys.stderr)
                runs.append(pair)
            result["workloads"][workload] = {"summary": summarize(runs, better), "runs": runs}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
