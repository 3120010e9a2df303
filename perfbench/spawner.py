"""Starts and times the benchmark's commands from a small process of its own.

A child's max RSS, as ``os.wait4`` reports it, is never below the peak RSS
of the process that started it: Linux carries the parent's high-water mark
over the exec.  run.py holds the generated inputs, numpy and the checks, so
a child it started would report run.py's size rather than its own.  This
process imports nothing large, and run.py asks it to start every measured
command.

Protocol: one JSON request per line on stdin, ``{"argv": [...], "stderr":
path}``; one JSON reply per line on stdout, ``{"elapsed", "code",
"rss_mb"}``.  It exits when stdin closes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

COMMAND_TIMEOUT_S = 150


def run(argv: list[str], stderr: str) -> dict:
    """Seconds from spawn to exit, exit code and max RSS in MB of one child.

    Its stdout is discarded: roofline-json prints ~3 MB of report per
    command, and writing it to disk would add the host's I/O noise.
    """
    with open(stderr, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=log)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"elapsed": elapsed, "code": proc.returncode, "rss_mb": usage.ru_maxrss / 1024}


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(run(request["argv"], request["stderr"])), flush=True)


if __name__ == "__main__":
    main()
