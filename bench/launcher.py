"""Spawns the benchmark's child processes from a small address space.

When a process calls exec, Linux folds the resident-set high-water mark
of the memory it replaces into the process's ``ru_maxrss``.  A child
forked (or vforked) from the benchmark process replaces a copy of the
benchmark's memory, which holds numpy arrays of checked outputs, so its
reported peak RSS would be at least the benchmark's own.  This launcher
imports nothing heavy, spawns each command itself and reports the
child's own rusage from ``os.wait4``.

Protocol: one JSON request per line on stdin,
``{"cmd": [...], "stdout": path, "stderr": path, "timeout": seconds}``,
answered by one JSON line on stdout,
``{"wall_s": ..., "cpu_s": ..., "maxrss_kb": ..., "exit_code": ...}``.
The launcher exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def run(cmd, stdout, stderr, timeout):
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall_s = perf_counter() - start
    # wait4 reaped the child; tell Popen so it never signals a reused pid
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "exit_code": proc.returncode,
    }


def main():
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["cmd"], request["stdout"], request["stderr"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
