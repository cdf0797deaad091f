#!/usr/bin/env python3
"""Self-test of the benchmark's own arithmetic and gates, run at the start of
every benchmark run.  Takes milliseconds and launches nothing.

Usage: python3 clibench/selftest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import calibrate
import checks
import run
import tracer
import workloads


def _check(ok: bool, what: str):
    if not ok:
        raise SystemExit(f"clibench self-test failed: {what}")


def check_self_time():
    """Self time is a span minus its direct children; busy time counts a name
    once even when it nests inside itself."""
    ticks = iter([0, 10, 13, 20, 25, 45, 50, 100])
    t = tracer.Tracer(clock=lambda: next(ticks))
    t.enter("a")  # 0..100
    t.enter("b")  # 10..13
    t.exit()
    t.enter("b")  # 20..50, containing b at 25..45
    t.enter("b")
    t.exit()
    t.exit()
    t.exit()
    _check(t.self_ns["a"] == 100 - 3 - 30, "self time of the parent span")
    _check(t.self_ns["b"] == 3 + (30 - 20) + 20, "self time of nested spans")
    _check(t.busy_ns["b"] == 3 + 30 and t.busy_ns["a"] == 100, "busy time of nested spans")
    _check(t.calls["b"] == 3, "call count")


def check_percentiles():
    expected = {9: None, 99: None, 100: 900, 999: 900, 1000: 990, 9999: 990, 10000: 999}
    for n, level in expected.items():
        _check(run.reportable_percentile(n) == level, f"percentile level for {n} samples")
    summary = run.summarize([float(v) for v in range(100, 0, -1)])
    _check(summary["p90"] == 90.0 and summary["n"] == 100 and summary["median"] == 50.5,
           "p90 of 1..100 is the 90th value, with ten samples beyond it")
    _check("p90" not in run.summarize([1.0, 2.0, 3.0]), "no percentile below 100 samples")


def check_scaling():
    """A launch between probes of twice the reference time counts half its
    set-up and exit time; case evaluation, less the ticks, is scaled by the
    mean of that factor and the ticks' factor; unscaled sums are wall-clock
    sums less the ticks."""
    ref, tick = calibrate.REFERENCE_S, calibrate.TICK_REFERENCE_S
    _check(calibrate.scale(ref, ref) == 1.0 and calibrate.scale(ref, 3 * ref) == 0.5,
           "probe scale factor")
    _check(calibrate.run_scale(0.5, []) == 0.5, "run scale without ticks")
    _check(abs(calibrate.run_scale(0.5, [tick, tick / 2]) - (0.5 + 4 / 3) / 2) < 1e-12,
           "run scale with ticks")
    rep = [{"setup_s": 0.2, "wall_s": 1.0, "run_s": 0.6, "rss_mb": 30.0, "scale": 0.5,
            "run_scale": 0.25, "tick_s": [0.05, 0.15]},
           {"setup_s": 0.1, "wall_s": 2.0, "run_s": 1.8, "rss_mb": 40.0, "scale": 1.0,
            "run_scale": 1.0}]
    scaled, plain = run.rep_end_to_end(rep), run.rep_end_to_end(rep, scaled=False)
    close = lambda a, b: abs(a - b) < 1e-12  # noqa: E731
    _check(close(scaled["setup_s"], 0.2) and close(scaled["run_s"], 0.4 * 0.25 + 1.8)
           and close(scaled["wall_s"], 0.4 * 0.5 + 0.1 + 2.0), "scaled end-to-end sums")
    _check(close(plain["wall_s"], 2.8) and close(plain["run_s"], 2.2)
           and plain["peak_rss_mb"] == 40.0, "wall-clock end-to-end sums")


def check_gates(reference: dict):
    """The reference assembles to the pinned digests for the default seed, its
    count rows hold the q-binomial identities, and a corrupted CSV is caught."""
    for workload in workloads.WORKLOADS:
        plan = workloads.launches(workload, workloads.DEFAULT_SEED)
        pinned = reference["digests"][workload]
        for launch, digests in zip(plan, pinned):
            good = checks.expected_outputs(launch, reference)
            _check(checks.failed_rows(launch, good, good, good, digests) == set(),
                   f"{workload}: reference rows do not match the pinned digests")
            name = launch.csv_names()[0]
            if launch.command == "count":
                _check(not checks.count_row_failures(good[name]), "count reference rows")
            bad = dict(good, **{name: good[name].replace(b",pass\n", b",fail\n", 1)})
            everything = set(range(len(launch.row_keys())))
            _check(checks.failed_rows(launch, bad, good, None, digests) == everything,
                   "the digest gate misses a corrupted CSV")
            _check(checks.failed_rows(launch, bad, good, None, None) == {0},
                   "the row gate misses a corrupted row")
    _check(checks.kernel_call_failures([(4, 2, 7, 2850), (2, 1, 41, 42)]) == [],
           "gaussian_binomial direction counts")
    _check(checks.kernel_call_failures([(4, 2, 7, 2849)]) != [], "kernel-call check")


def check_metric_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    _check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end differs from run.END_TO_END")
    _check({m["name"]: m["unit"] for m in spec["per_layer"]}
           == {k: unit for k, (unit, _) in run.METRICS.items()},
           "BENCHMARK.json per_layer differs from run.METRICS")


def run_all():
    reference = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())
    check_self_time()
    check_percentiles()
    check_scaling()
    check_gates(reference)
    check_metric_names()


if __name__ == "__main__":
    run_all()
    print("clibench self-test passed")
    sys.exit(0)
