"""Starts the benchmarked processes and times them, one at a time.

A child's peak RSS as ``wait4`` reports it also counts the memory of the
process that started it, so the benchmark, which holds numpy tables, does
not start them itself: this small process does, and reads each request as
one JSON line on stdin, ``{"argv", "stdout", "stderr", "timeout_s"}``,
answering with one line ``{"wall_s", "rss_mb", "exit"}``.  It ends when
stdin closes.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

def launch(argv: list[str], stdout: str, stderr: str, timeout_s: float) -> dict:
    """Run one process to its end; a process still running after
    ``timeout_s`` is killed."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
    lock = threading.Lock()
    running = [True]

    def kill() -> None:
        with lock:
            if running[0]:
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout_s, kill)
    timer.start()
    try:
        # Wait without reaping, so the pid cannot be reused before the
        # watchdog is disarmed; then reap it with its own rusage.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - started
        with lock:
            running[0] = False
    finally:
        timer.cancel()
        kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024, "exit": proc.returncode}


def serve() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = launch(request["argv"], request["stdout"], request["stderr"], request["timeout_s"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
