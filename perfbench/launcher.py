"""Starts the CLI processes of the closed loop, one at a time.

The benchmark runs this as a helper process: it reads one JSON request per
line on stdin, runs that command to completion and answers with one JSON
line holding the exit code, the wall time and the peak resident set.

Linux counts the peak resident set of the process that spawned a child into
the child's ``ru_maxrss``, because ``subprocess`` starts children with vfork.
The benchmark process grows with its set-up and its checks, so children it
started itself would report its peak wherever that is the larger.  This
helper stays small, and the peaks it reports are the CLI's own.

Usage: python3 launcher.py <timeout in seconds per command>
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def run(argv, stdout_path, stderr_path, timeout_s):
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        watchdog = threading.Timer(timeout_s, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall_s = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall_s, "peak_rss_mb": usage.ru_maxrss / 1024.0}


def main() -> int:
    timeout_s = float(sys.argv[1])
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["stdout"], request["stderr"], timeout_s)
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
