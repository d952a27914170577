"""Job launcher for run.py: starts each job process and reports its exit
code, wall time and peak RSS.

Linux reports a child's peak RSS as at least the peak RSS of the process
that forked it, so the harness starts jobs from this small process; from
the harness itself, its own RSS would show up as the RSS of small jobs.

Protocol: one JSON request per line on stdin,
    {"cmd": [...], "cwd": dir, "out": file, "err": file, "timeout": seconds}
answered by one JSON line on stdout,
    {"exit": code, "wall_s": seconds, "rss_kb": peak RSS}.
A job still running after `timeout` seconds is killed.
"""

import json
import os
import signal
import sys
import time


def run(req: dict) -> dict:
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.chdir(req["cwd"])
            os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
            for fd, name in ((1, req["out"]), (2, req["err"])):
                os.dup2(os.open(name, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), fd)
            os.execv(req["cmd"][0], req["cmd"])
        finally:
            os._exit(127)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, req["timeout"])
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"exit": os.waitstatus_to_exitcode(status),
            "wall_s": time.perf_counter() - t0, "rss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
