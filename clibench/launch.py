"""Run one `fpfurst` CLI invocation and record where its time went.

Usage: python3 clibench/launch.py RECORD.json TRACE(0|1) <fpfurst CLI args>

With TRACE=0 the only instrumentation is one wrapper around `cli.run` that
reads the monotonic clock at its entry and exit; the parent process shares
that clock, so it can split the launch into set-up (launch to the first case)
and case evaluation.  While `cli.run` runs, a SIGALRM timer times the
host-speed tick probe (calibrate.py) every TICK_S seconds; the ticks' times
are recorded, and run.py takes them out of the launch's times.  With TRACE=1
every layer is wrapped instead (see tracer.py) and no ticks are taken, so no
span contains probe work.  The record is written after the CLI returns, and
the process exits with the CLI's status.
"""

from __future__ import annotations

import json
import signal
import sys
import time

import calibrate


def _peak_rss_kb() -> int:
    """Peak resident set of this program since exec (VmHWM).  The rusage
    maximum would also count the parent's pages at fork time."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    record_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import fpfurst
    from fpfurst import cli

    backend = fpfurst.backend_name()
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    marks = {}
    ticks = marks["tick_s"] = []
    run = cli.run

    def tick(signum, frame):
        start = time.perf_counter_ns()
        calibrate.tick_work()
        ticks.append((time.perf_counter_ns() - start) / 1e9)

    def stamped_run(*args, **kwargs):
        marks["run_enter_ns"] = time.monotonic_ns()
        if not traced:
            signal.signal(signal.SIGALRM, tick)
            signal.setitimer(signal.ITIMER_REAL, calibrate.TICK_S, calibrate.TICK_S)
        try:
            return run(*args, **kwargs)
        finally:
            # Stop the ticks before the exit stamp, so every tick lies
            # between the two stamps.
            signal.setitimer(signal.ITIMER_REAL, 0)
            marks["run_exit_ns"] = time.monotonic_ns()

    cli.run = stamped_run
    status = cli.main(argv)
    record = {"backend": backend, "peak_rss_kb": _peak_rss_kb(), **marks}
    if tracer is not None:
        record["trace"] = tracer.snapshot()
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
