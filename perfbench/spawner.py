"""Starts and times child processes on behalf of the benchmark.

    python3 -I perfbench/spawner.py

Reads one JSON job per line on stdin, ``[argv, stdout_path, stderr_path]``,
runs it to completion and answers ``[wall_s, exit_code, max_rss_kb]``.

A child's peak RSS as the kernel reports it includes the memory of the
process that spawned it (the address space it ran in before exec).  The
benchmark process holds numpy, mpmath and its results, so children are
spawned from this small process instead, which keeps their RSS their own.
"""

import json
import os
import sys
import time


def main() -> None:
    for line in sys.stdin:
        argv, out_path, err_path = json.loads(line)
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            t0 = time.perf_counter()
            pid = os.posix_spawnp(argv[0], argv, os.environ, file_actions=[
                (os.POSIX_SPAWN_DUP2, fo.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, fe.fileno(), 2)])
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - t0
        print(json.dumps([wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss]),
              flush=True)


if __name__ == "__main__":
    main()
