"""Starts the benchmark's job processes and reports their time and rusage.

Linux charges a child's max-RSS with the high-water RSS of the process that
forked it, so jobs forked straight from the benchmark (which holds every
job's expected answer) would report the benchmark's memory, not their own.
This small process forks every job instead.  It reads one JSON request per
line on stdin: {"argv", "cwd", "stdout", "cap"}, runs the command with
stdout sent to the given file, and answers one JSON line with the wall time
from spawn to exit, user + sys CPU and max-RSS from wait4, the exit code
and whether the job was killed at the cap.  It exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv, cwd, stdout, cap):
    with open(stdout, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                stdin=subprocess.DEVNULL, cwd=cwd)
        timer = threading.Timer(cap, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss,
            "exit_code": code, "timed_out": code < 0 and wall >= cap}


def main():
    for line in sys.stdin:
        request = json.loads(line)
        sys.stdout.write(json.dumps(run(**request)) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
