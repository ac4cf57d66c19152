"""``python -m jensen_sharp`` for the cli workload, followed by the kernel.

    PYTHONPATH=src python3 bench/cli_child.py bound --phi exp:t=0.5 --dist normal:mu=0,sigma=1

runs the package's command line exactly as ``python -m jensen_sharp`` does,
with the same arguments, output and exit status.  After the command has
ended it writes one line to standard error: the monotonic time at which the
command ended and the speed kernel's time in this process
(``speed.child_report``), so that the command is timed at a fixed machine
speed.  The kernel's module is loaded only after the command has ended.
"""

import os
import runpy
import sys
import time


def main() -> None:
    bench = sys.path[0]
    sys.path[0] = os.getcwd()  # as under ``python -m``: the benchmark's modules stay hidden
    status = 0
    try:
        runpy.run_module("jensen_sharp", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        status = exc.code
    end = time.monotonic()
    sys.stdout.flush()
    sys.path.insert(0, bench)
    import speed

    print(speed.child_report(end), file=sys.stderr)
    sys.exit(status)


if __name__ == "__main__":
    main()
