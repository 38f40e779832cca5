#!/usr/bin/env python3
"""One `laakso compare` in a child process: its wall time and peak RSS.

The arguments are passed to `laakso compare` unchanged.  The child is
reaped with wait4, so the peak RSS printed is the child's own ru_maxrss.
On Linux that count starts, at exec, from the image the child replaces;
this script imports neither numpy nor scipy, so that image is small.  The
child's report is discarded, and its exit code is this script's.

Usage:
    python scripts/mesh_oneoff.py -j 2,3 -n 6 -m 4 -k 60 --seed 31
"""

import os
import subprocess
import sys
import time


def main() -> int:
    args = sys.argv[1:]
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "laakso", "compare", *args], stdout=subprocess.DEVNULL
    )
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    print(
        f"compare {' '.join(args)}: exit {child.returncode}, {wall:.2f} s, "
        f"{usage.ru_maxrss / 1024:.0f} MB peak RSS"
    )
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
