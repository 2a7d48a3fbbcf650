"""Small, long-lived process that starts every benchmark child.

A child's ru_maxrss also counts the resident set of the process that forked
it, since Linux carries the pre-exec high-water mark across exec.  The
benchmark's own process grows while it checks large outputs, so children
are forked from this process instead, whose resident set stays below any
child's.  Run as ``python -I -S launcher.py``; the environment it gets is
passed on to every child.

Protocol, one JSON line each way per child:
  in:  {"argv": [...], "stdout": path, "stderr": path, "cwd": path, "timeout": s}
  out: {"wall": s, "maxrss_kb": n, "code": n, "timed_out": bool}
"""

import json
import os
import select
import signal
import sys
from time import perf_counter


_child = None


def _stop(signum, frame):
    # on SIGTERM, take the running child down too, so no process outlives the run
    if _child is not None:
        os.kill(_child, signal.SIGKILL)
        os.waitpid(_child, 0)
    sys.exit(1)


def run(request: dict) -> dict:
    global _child
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], flags, 0o644),
    ]
    argv = request["argv"]
    os.chdir(request["cwd"])
    start = perf_counter()
    pid = _child = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        timed_out = not select.select([pidfd], [], [], request["timeout"])[0]
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        _child = None
    finally:
        os.close(pidfd)
    wall = perf_counter() - start
    return {"wall": wall, "maxrss_kb": usage.ru_maxrss,
            "code": os.waitstatus_to_exitcode(status), "timed_out": timed_out}


def main() -> int:
    signal.signal(signal.SIGTERM, _stop)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
