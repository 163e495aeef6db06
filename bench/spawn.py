"""Run one command and report its wall time and rusage on the last stderr line.

Usage: python -I -S bench/spawn.py /absolute/program args...

A child's peak RSS (ru_maxrss) never reads below the peak RSS of the
process that spawned it, because the kernel carries the pre-exec memory
high-water mark across exec.  The benchmark's own process is larger than
a small ebrmaps command, so commands are spawned from this minimal
interpreter instead, and their measurements come back as one JSON line
after ``MARKER`` at the end of stderr.  The child inherits stdin, stdout,
stderr and the environment.
"""

import json
import os
import sys
import time

MARKER = "\x00bench-spawn\x00"


def main() -> int:
    argv = sys.argv[1:]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    record = {
        "returncode": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    sys.stderr.write("\n" + MARKER + json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
