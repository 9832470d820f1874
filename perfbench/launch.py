"""Run one command; report its exit code, wall time and peak RSS as JSON.

    python3 perfbench/launch.py --log out.log --result rusage.json --timeout 60 -- cmd args...

The benchmark starts every child through this small process. At exec, Linux
records the high-water RSS of the address space being replaced in the new
program's peak RSS, and a child of a large process starts from a copy of it.
Started from the benchmark, which holds numpy and a fleet, a single-unit
`subtrack infer` read 99 MB; started from here it reads its own 47 MB.
This script imports nothing beyond the standard library.
"""

import argparse
import json
import os
import signal
import subprocess
import threading
import time


def run(argv: list[str], log: str, timeout: float) -> dict:
    """Exit code, wall seconds and peak RSS (KiB) of argv, from its own wait4
    rusage rather than RUSAGE_CHILDREN, which is the maximum over all children."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT)
        exited = threading.Event()
        lock = threading.Lock()

        def watchdog():
            if not exited.wait(timeout):
                with lock:
                    if not exited.is_set():
                        os.kill(proc.pid, signal.SIGKILL)

        guard = threading.Thread(target=watchdog, daemon=True)
        guard.start()
        # wait without reaping, so the pid cannot be reused before the
        # watchdog knows the child is gone
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            exited.set()
        _, status, usage = os.wait4(proc.pid, 0)
        # tell Popen the child is reaped, so it never waits on a reused pid
        proc.returncode = os.waitstatus_to_exitcode(status)
        guard.join()
    return {"rc": proc.returncode, "wall_s": wall, "maxrss_kib": usage.ru_maxrss}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--log", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--timeout", required=True, type=float)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    doc = run(argv, args.log, args.timeout)
    with open(args.result, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main()
