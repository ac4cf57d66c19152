"""The speed kernel: fixed work that measures how fast the machine runs now.

On a shared 2-core VM the same code runs up to 1.7x slower for seconds to
minutes at a time.  Every timing the benchmark reports is scaled to a fixed
machine speed: its wall time times ``KERNEL_REF_S`` over the kernel's time
in the same process, measured around it (README, "Machine speed").  The
kernel shares no code with jensen_sharp, so a faster program still reads
faster.  This module imports nothing of the benchmark or the package, so a
child process can load it after its timed work.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: usual wall time of ``kernel()`` on the reference machine
KERNEL_REF_S = 60e-6
_KERNEL_ARRAY = np.linspace(0.0, 1.0, 64)
#: kernels timed by a child process after its work; it reports the median
CHILD_KERNELS = 5


def kernel() -> float:
    """Interpreted float arithmetic and small numpy calls, the instruction
    mix of the operations."""
    acc, x = 0.0, 0.5
    for i in range(150):
        x = math.exp(-x) + 0.1 * i / (1 + i)
        acc += x * x
    for _ in range(10):
        acc += float(np.exp(_KERNEL_ARRAY).sum())
    return acc


def kernel_seconds() -> float:
    """Wall time of one kernel; a first, untimed run takes the cold start
    that follows an operation or an idle wait out of it."""
    kernel()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def child_report(end: float) -> str:
    """The line a child process prints after its timed work: the monotonic
    time at which the work ended and the median of a few kernel times.
    CLOCK_MONOTONIC is shared by all processes, so the parent, which read it
    just before it started the child, gets the child's time from it."""
    k = statistics.median(kernel_seconds() for _ in range(CHILD_KERNELS))
    return f"{end!r} {k!r}"


def parse_child_report(line: str, start: float) -> tuple[float, float]:
    """(seconds from ``start`` to the end of the child's work, kernel time)."""
    end, k = map(float, line.split())
    return end - start, k


def scaled(seconds: float, kernel_s: float) -> float:
    """``seconds`` at reference machine speed."""
    return seconds * KERNEL_REF_S / kernel_s
