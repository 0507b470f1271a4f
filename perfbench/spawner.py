"""Lean timing process: runs one job at a time and reports its cost.

On Linux a child's ru_maxrss includes the resident size of the process
that forked it, so the process that forks the jobs must stay small.  The
benchmark therefore never forks jobs itself: it starts this script once,
while still lean, and sends it one JSON request per line on stdin.  This
process holds no job output and imports nothing heavy, so a job's
peak_rss_mb is the job's own.

Request:  {"argv": [...], "env": {...}, "stdout": path, "stderr": path,
           "timeout_s": float, "as_limit_bytes": int}
Reply:    {"wall_s", "cpu_s", "maxrss_kb", "exit_code", "timed_out",
           "calibration_s"}   (exit_code is -N for a job killed by signal N)

Each job gets its address-space cap (RLIMIT_AS) in the child only, and is
killed when it outlives its wall-clock timeout.  On SIGTERM this process
kills the job it is running, reaps it, and exits.

Around every job this process also times a fixed calibration kernel, so
that the benchmark can tell how fast the shared machine is running while
the job runs.
"""

import json
import os
import resource
import select
import signal
import sys
import time


def calibrate() -> float:
    """Best of three runs of a fixed kernel: the machine's speed right now.

    The kernel mixes the kinds of work the program does: a bytecode loop
    over small ints, big-int squaring and int-to-decimal conversion.  It
    must never change, or times before and after the change stop being
    comparable.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        x = 0
        for i in range(30_000):
            x += i * i
        y = 7**3000
        bits = y.bit_length()
        for _ in range(30):
            y = (y * y) >> bits
        str(7**4000)
        best = min(best, time.perf_counter() - start)
    return best


def run_job(req: dict) -> dict:
    out_fd = os.open(req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err_fd = os.open(req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    null_fd = os.open(os.devnull, os.O_RDONLY)
    argv, env, cap = req["argv"], req["env"], req["as_limit_bytes"]
    calibration_before = calibrate()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child: never returns
        try:
            os.dup2(null_fd, 0)
            os.dup2(out_fd, 1)
            os.dup2(err_fd, 2)
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
            os.execve(argv[0], argv, env)
        finally:
            os._exit(127)
    for fd in (out_fd, err_fd, null_fd):
        os.close(fd)
    pidfd = os.pidfd_open(pid)
    signal.signal(signal.SIGTERM, lambda *_: _kill_and_exit(pid))
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        timed_out = not poller.poll(max(1, int(req["timeout_s"] * 1000)))
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.close(pidfd)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "exit_code": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
        "calibration_s": (calibration_before + calibrate()) / 2,
    }


def _kill_and_exit(pid: int) -> None:
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    os._exit(1)


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run_job(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
