"""Print the bits of every result of one round of a benchmark workload.

    python3 tools/result_bits.py --workload scan --seed 1 > scan-1.txt

The round is the one ``bench/workloads.py`` builds for the workload and seed, run once in
this process against this checkout's ``src/``, with numpy's ``RuntimeWarning`` raised as an
error (cli commands run through the CLI's own functions, in this process too).  Each output
line holds one operation's label and the float hex of every number in its result, or its
error's type and message.  Running this in two checkouts and diffing the outputs shows
whether they compute the same bits.  Arrays longer than ``ARRAY_HEX`` are printed as their
length and a digest of their bytes.  Nothing under ``bench/`` is written.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import os
import sys
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
ARRAY_HEX = 16


def bits(obj) -> str:
    """Every number in obj as float hex; tuples, lists and dataclasses item by item, and
    any other object by its type's name, never by its address."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return repr(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, np.ndarray):
        flat = np.ascontiguousarray(obj, dtype=float).ravel()
        if flat.size <= ARRAY_HEX:
            return "[" + " ".join(v.hex() for v in flat.tolist()) + "]"
        return f"array[{flat.size}] sha256:{hashlib.sha256(flat.tobytes()).hexdigest()[:16]}"
    if dataclasses.is_dataclass(obj):
        fields = " ".join(f"{f.name}={bits(getattr(obj, f.name))}"
                          for f in dataclasses.fields(obj))
        return f"{type(obj).__name__}({fields})"
    if isinstance(obj, (tuple, list)):
        return "(" + " ".join(bits(v) for v in obj) + ")"
    return f"<{type(obj).__name__}>"


def main(argv: list[str] | None = None) -> int:
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
    import workloads

    import jensen_sharp as js

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args(argv)
    if Path(js.__file__).resolve().parent != (ROOT / "src" / "jensen_sharp").resolve():
        raise SystemExit(f"error: jensen_sharp was imported from {js.__file__}")

    ops = workloads.build(args.workload, args.seed, js, ROOT, in_process=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for op in ops:
            try:
                line = bits(op.call())
            except Exception as exc:  # the error is part of the result
                line = f"{type(exc).__name__}: {exc}"
            # a cli report may name the sample file by its path in this checkout
            print(f"{op.label} | {line.replace(str(ROOT) + os.sep, '')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
