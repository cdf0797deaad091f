"""Host-speed calibration: scale measured times to a reference host speed.

The benchmark's host is a shared virtual machine: the speed of a vCPU shifts
by up to 1.6x for seconds to minutes at a time, independently on each vCPU,
as other tenants load the physical cores.  Wall-clock medians over a
30-second run therefore spread by 15-40% from run to run however the run is
summarised.  To take that out, run.py pins itself and its launches to one
CPU and measures that CPU's speed with two probes of fixed pure-Python work:

  probe_s()   40 ms of the kind of work the CLI does (Fraction and modular
              integer arithmetic, tuples, lists, a dict), timed by run.py
              right before and right after every launch;
  tick_work() a 1.6 ms small-integer loop that launch.py runs every TICK_S
              seconds while the launch evaluates cases, so a launch of
              several seconds is sampled throughout and not only at its ends.
              It allocates nothing and stays in the first-level caches, so the
              program's own heap and working set do not change its speed.

A launch's set-up and exit are scaled by REFERENCE_S / (mean of the two
probe_s times); its case evaluation, less the ticks' own time, by the mean of
that factor and TICK_REFERENCE_S / (mean tick time).  The results are seconds
at the host speed at which probe_s takes REFERENCE_S.  Neither probe imports
fpfurst, so a change to the package cannot change them, and a change that
makes the package slower or faster moves the scaled times by the same ratio
as the wall-clock times.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Median durations of probe_s and tick_work on the host the benchmark was
# tuned on (two vCPUs of an Intel Xeon, Sapphire Rapids generation, Python
# 3.11); only their ratio matters for the steadiness of the scaled times.
REFERENCE_S = 0.040
TICK_REFERENCE_S = 0.00155
TICK_S = 0.2


def _work(n: int = 9000):
    acc = Fraction(0)
    table = {}
    total = 0
    for i in range(1, n):
        acc += Fraction(i % 7 + 1, i % 11 + 2)
        row = [(i * j) % 101 for j in range(8)]
        table[i % 257] = tuple(row)
        total += sum(row) % 13
    return acc, total, len(table)


def probe_s() -> float:
    """Seconds the fixed probe work takes now."""
    start = time.perf_counter_ns()
    _work()
    return (time.perf_counter_ns() - start) / 1e9


def tick_work() -> int:
    x = 0
    for _ in range(120):
        for j in range(200):
            x = (x * 7 + j) & 255
    return x


def scale(before: float, after: float) -> float:
    """Factor that turns a wall time measured between two probes into
    seconds at the reference speed."""
    return REFERENCE_S / ((before + after) / 2)


def run_scale(launch_scale: float, ticks: list[float]) -> float:
    """Factor for case evaluation: the launch's probe factor averaged with
    the factor of the ticks taken during it, if there were any."""
    if not ticks:
        return launch_scale
    return (launch_scale + TICK_REFERENCE_S * len(ticks) / sum(ticks)) / 2
