#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `fpfurst` CLI.

Usage (from the repository root):

    python3 clibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs the workload's launches (workloads.py) as cold CLI
processes, one at a time with `--jobs 1`: a closed loop with one client, as a
user runs a sweep.  A cold start is part of the measurement because a CLI user
pays for the interpreter, `import fpfurst` and empty caches on every run.
Repetitions continue while another one fits in S seconds (at least three
untraced ones).

--trace 0 reports the end-to-end metrics, each the median over repetitions of
the sum over the workload's launches:
  setup_s      launch to the first case (interpreter, import, config parsing)
  wall_s       launch to exit
  run_s        time evaluating cases
  peak_rss_mb  peak resident memory of the largest launch
The three times are in seconds at a reference host speed: the benchmark runs
on one CPU and scales each launch's times by host-speed probes timed right
before and after it and, during case evaluation, every 0.2 s inside it
(calibrate.py), because the speed of a shared vCPU drifts by up to 1.6x over
minutes.  The probes' own time is not counted.  The unscaled wall-clock
medians are printed on the `wall-clock` line and kept in the record.
--trace 1 runs one untraced repetition and then traced ones (tracer.py), and
reports the per-layer metrics of METRICS plus trace.overhead_ratio.

Every launch is checked: exit status 0, every row `pass`, CSV bytes equal to
the reference rows and to the run's first repetition, and, for the default
seed, equal to the digests pinned in reference.json.  `count` rows must equal
their exact q-binomial counts; a traced run also requires each
`exceptional_set` to make exactly gaussian_binomial(n, n-k, p) kernel calls
and the lemma checkers to return no report.  Failed cases are the result's
`failed`; fail_ratio = failed / attempted is in the record.

The last stdout line is the result object; the full record (environment,
sample counts, quartiles, failures) is written under .clibench/records/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_UNTRACED_REPS = 3
HARD_LIMIT_S = 150  # launches still running this long after the start are killed

END_TO_END = {"setup_s": "s", "wall_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def _get(section, key):
    return lambda t: t[section].get(key, 0)


def _ratio(num, den):
    return lambda t: num(t) / den(t) if den(t) else 0.0


_kpoints = lambda t: t["counters"].get("_kernel.points", 0)  # noqa: E731
_kcalls = _get("calls", "_kernel.project_count_flat")
_kbusy = _get("busy_s", "_kernel.project_count_flat")
_misses = lambda t: t["index_cache"]["misses"]  # noqa: E731
_lookups = lambda t: t["index_cache"]["hits"] + t["index_cache"]["misses"]  # noqa: E731

# Per-layer metrics: name -> (unit, value from a repetition's summed trace).
METRICS = {
    "kernel.project_count_flat.calls": ("count", _kcalls),
    "kernel.project_count_flat.points": ("count", _kpoints),
    "kernel.project_count_flat.busy_s": ("s", _kbusy),
    "kernel.points_per_s": ("1/s", _ratio(_kpoints, _kbusy)),
    "kernel.mean_block_points": ("points", _ratio(_kpoints, _kcalls)),
    "kernel.ops": ("ops_computed", _get("counters", "_kernel.ops")),
    "kernel.bytes_in": ("B_computed", _get("counters", "_kernel.bytes_in")),
}
for _fn in ("projection_count", "exceptional_set", "count_small_projection_subspaces"):
    METRICS[f"projections.{_fn}.calls"] = ("count", _get("calls", f"projections.{_fn}"))
    METRICS[f"projections.{_fn}.points"] = ("count", _get("counters", f"projections.{_fn}.points"))
    METRICS[f"projections.{_fn}.self_s"] = ("s", _get("self_s", f"projections.{_fn}"))
METRICS["projections.exceptional_set.directions"] = (
    "count", _get("counters", "projections.exceptional_set.directions"))
METRICS["projections.exceptional_set.hit_ratio"] = ("ratio", _ratio(
    _get("counters", "projections.exceptional_set.hits"),
    _get("counters", "projections.exceptional_set.directions")))
for _fn in ("flat", "new"):
    _name = f"projections.PointSet.{_fn}"
    METRICS[f"{_name}.calls"] = ("count", _get("calls", _name))
    METRICS[f"{_name}.points"] = ("count", _get("counters", f"{_name}.points"))
    METRICS[f"{_name}.busy_s"] = ("s", _get("busy_s", _name))
METRICS["projections.PointSet.flat.reuse_ratio"] = (
    "ratio", _ratio(lambda t: t["distinct_packed"], _get("calls", "projections.PointSet.flat")))
for _fn in ("enumerate_linear", "enumerate_affine"):
    METRICS[f"flags.{_fn}.yielded"] = ("count", _get("counters", f"flags.{_fn}.yielded"))
    METRICS[f"flags.{_fn}.busy_s"] = ("s", _get("busy_s", f"flags.{_fn}"))
for _name in ("flags.reduce_mod_subspace", "flags.AffineFlat.contains_point", "flags.relate",
              "primefield.rref", "primefield.PrimeMatrix.to_rows", "primefield.PrimeMatrix.new",
              "indices.furstenberg_index", "indices.marstrand_index", "indices.compare",
              "lemmas.GridSpec.values"):
    METRICS[f"{_name}.calls"] = ("count", _get("calls", _name))
    METRICS[f"{_name}.busy_s"] = ("s", _get("busy_s", _name))
METRICS["flags.points.points"] = ("count", _get("counters", "flags.points.points"))
METRICS["flags.points.busy_s"] = ("s", _get("busy_s", "flags.points"))
for _fn in ("check_recursion_f1", "check_recursion_f2", "check_recursion_m",
            "check_index_properties"):
    METRICS[f"lemmas.{_fn}.self_s"] = ("s", _get("self_s", f"lemmas.{_fn}"))
METRICS["lemmas.index_evals"] = ("count", _misses)
METRICS["lemmas.index_cache_hit_ratio"] = ("ratio", _ratio(lambda t: _lookups(t) - _misses(t), _lookups))
METRICS["lemmas.reports"] = ("count", _get("counters", "lemmas.reports"))
for _name in ("furstenberg.construct_general", "furstenberg.verify_family", "exceptional.construct"):
    METRICS[f"{_name}.calls"] = ("count", _get("calls", _name))
    METRICS[f"{_name}.self_s"] = ("s", _get("self_s", _name))
for _name in ("furstenberg.members", "furstenberg.marked_points",
              "exceptional.claimed", "exceptional.certified"):
    METRICS[_name] = ("count", _get("counters", _name))
METRICS["furstenberg.bounds.busy_s"] = ("s", _get("busy_s", "furstenberg.bounds"))
METRICS["exceptional.certify_lower_bound.busy_s"] = (
    "s", _get("busy_s", "exceptional.certify_lower_bound"))
METRICS["cli.parse_config.busy_s"] = ("s", _get("busy_s", "cli.parse_config"))
METRICS["cli.run.self_s"] = ("s", _get("self_s", "cli.run"))
METRICS["cli.write_report.busy_s"] = ("s", _get("busy_s", "cli.write_report"))
METRICS["cli.csv_bytes"] = ("B", _get("cli", "csv_bytes"))
METRICS["cli.cases"] = ("count", _get("cli", "cases"))
METRICS["cli.fails"] = ("count", _get("cli", "fails"))
for _layer in map(tracer.layer_of, tracer.LAYERS):
    METRICS[f"layer.{_layer}.self_s"] = ("s", _get("layer_self_s", _layer))
METRICS["trace.overhead_ratio"] = ("ratio", None)  # traced / untraced wall_s


# -- statistics ---------------------------------------------------------------
def reportable_percentile(n: int) -> int | None:
    """Highest of p99.9, p99 and p90, in per mille, with at least ten of n
    samples beyond it; None when n < 100."""
    for level in (999, 990, 900):
        if n * (1000 - level) >= 10 * 1000:
            return level
    return None


def summarize(values: list) -> dict:
    """Median with its sample count, quartiles, and the highest percentile
    that has ten samples beyond it (nearest rank)."""
    out = {"median": statistics.median(values), "n": len(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    level = reportable_percentile(len(values))
    if level is not None:
        rank = -(-len(values) * level // 1000)
        out[f"p{level / 10:g}"] = sorted(values)[rank - 1]
    return out


# -- environment --------------------------------------------------------------
def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(backend: str) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c"):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "backend": backend,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
    }


# -- launching ----------------------------------------------------------------
class Runner:
    def __init__(self, plan, work: Path, hard_limit: float):
        self.plan = plan
        self.work = work
        self.hard_limit = hard_limit
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        for i, launch in enumerate(plan):
            (work / f"config{i}.json").write_text(json.dumps(launch.config()))

    def warm_up(self):
        """Compile the package's bytecode once, as an installed copy has, and
        bring the CPU up to speed for the probe."""
        subprocess.run([sys.executable, "-c", "import fpfurst.cli"], env=self.env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, cwd=self.work)
        for _ in range(5):
            calibrate.probe_s()

    def launch(self, i: int, traced: bool) -> dict:
        launch = self.plan[i]
        out, record = self.work / f"out{i}", self.work / f"record{i}.json"
        shutil.rmtree(out, ignore_errors=True)
        record.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "launch.py"), str(record), str(int(traced)),
                launch.command, "--config", str(self.work / f"config{i}.json"),
                "--out", str(out), "--jobs", "1"]
        with open(self.work / f"stderr{i}.txt", "wb") as err:
            start = time.monotonic_ns()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.work,
                                    stdout=subprocess.DEVNULL, stderr=err)
            # A launch still running at the hard limit is killed and fails.
            killer = threading.Timer(max(self.hard_limit - time.monotonic(), 0), proc.kill)
            killer.start()
            try:
                proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            end = time.monotonic_ns()
        result = {"exit": proc.returncode, "wall_s": (end - start) / 1e9,
                  "rss_mb": 0.0, "outputs": {}}
        for name in launch.csv_names():
            if (out / name).is_file():
                result["outputs"][name] = (out / name).read_bytes()
        if (out / "summary.json").is_file():
            result["summary"] = json.loads((out / "summary.json").read_text())
        if record.is_file():
            marks = json.loads(record.read_text())
            result["backend"] = marks["backend"]
            result["rss_mb"] = marks["peak_rss_kb"] / 1024
            result["trace"] = marks.get("trace")
            result["tick_s"] = marks.get("tick_s", [])
            if "run_enter_ns" in marks and "run_exit_ns" in marks:
                result["setup_s"] = (marks["run_enter_ns"] - start) / 1e9
                result["run_s"] = (marks["run_exit_ns"] - marks["run_enter_ns"]) / 1e9
        if result["exit"] != 0:
            tail = (self.work / f"stderr{i}.txt").read_text(errors="replace")[-2000:]
            print(f"launch {i} ({launch.command}) exited {result['exit']}:\n{tail}", file=sys.stderr)
        return result

    def repetition(self, traced: bool) -> list[dict]:
        """Every launch once, each between two host-speed probes."""
        results, before = [], calibrate.probe_s()
        for i in range(len(self.plan)):
            result = self.launch(i, traced)
            after = calibrate.probe_s()
            result["scale"] = calibrate.scale(before, after)
            result["run_scale"] = calibrate.run_scale(result["scale"], result.get("tick_s", []))
            results.append(result)
            before = after
        return results


def repeat(runner: Runner, traced: bool, min_reps: int, deadline: float) -> list[list[dict]]:
    """Repetitions until another one would end after the deadline."""
    reps, longest = [], 0.0
    while True:
        start = time.monotonic()
        reps.append(runner.repetition(traced))
        longest = max(longest, time.monotonic() - start)
        if len(reps) >= min_reps and time.monotonic() + longest > deadline:
            return reps


def rep_end_to_end(rep: list[dict], scaled: bool = True) -> dict:
    """Sums over the launches, without the tick probes' time; times in
    reference seconds unless not scaled."""
    total = {"setup_s": 0.0, "wall_s": 0.0, "run_s": 0.0}
    for r in rep:
        outer, inner = (r["scale"], r["run_scale"]) if scaled else (1.0, 1.0)
        run_s = r.get("run_s", 0.0) - sum(r.get("tick_s", ()))
        total["setup_s"] += r.get("setup_s", r["wall_s"]) * outer
        total["run_s"] += run_s * inner
        total["wall_s"] += (r["wall_s"] - r.get("run_s", 0.0)) * outer + run_s * inner
    total["peak_rss_mb"] = max(r["rss_mb"] for r in rep)
    return total


def rep_trace(rep: list[dict]) -> dict:
    """Sum the launches' trace snapshots into one, plus the CLI's own totals."""
    total = {"calls": {}, "busy_s": {}, "self_s": {}, "layer_self_s": {}, "counters": {},
             "distinct_packed": 0, "index_cache": {"hits": 0, "misses": 0},
             "cli": {"cases": 0, "fails": 0, "csv_bytes": 0}}
    for r in rep:
        snap = r.get("trace") or {}
        for section in ("calls", "busy_s", "self_s", "layer_self_s", "counters"):
            for key, value in snap.get(section, {}).items():
                total[section][key] = total[section].get(key, 0) + value
        total["distinct_packed"] += snap.get("distinct_packed", 0)
        for key in ("hits", "misses"):
            total["index_cache"][key] += snap.get("index_cache", {}).get(key, 0)
        summary = r.get("summary", {})
        total["cli"]["cases"] += summary.get("cases", 0)
        total["cli"]["fails"] += summary.get("fails", 0)
        total["cli"]["csv_bytes"] += sum(len(b) for b in r["outputs"].values())
    return total


# -- gates --------------------------------------------------------------------
def gate(plan, reps: list[list[dict]], reference: dict, digests, failures: list) -> tuple[int, int]:
    """Check every launch of every repetition; returns (attempted, failed)."""
    attempted = failed = 0
    expected = [checks.expected_outputs(launch, reference) for launch in plan]
    for r_index, rep in enumerate(reps):
        for i, (launch, result) in enumerate(zip(plan, rep)):
            ncases = len(launch.row_keys())
            attempted += ncases
            if result["exit"] != 0 or "run_s" not in result:
                bad = set(range(ncases))
                failures.append(f"rep {r_index} launch {i}: exit {result['exit']}")
            else:
                first = reps[0][i]["outputs"] if r_index else None
                bad = checks.failed_rows(launch, result["outputs"], expected[i], first,
                                         digests[i] if digests else None)
                if bad:
                    failures.append(f"rep {r_index} launch {i}: CSV gate failed cases {sorted(bad)}")
                if launch.command == "count" and launch.csv_names()[0] in result["outputs"]:
                    wrong = checks.count_row_failures(result["outputs"][launch.csv_names()[0]])
                    if wrong:
                        failures.append(f"rep {r_index} launch {i}: count rows {wrong} "
                                        "differ from their q-binomial counts")
                    bad |= set(wrong)
                trace = result.get("trace")
                if trace is not None:
                    spans = checks.kernel_call_failures(trace["exceptional_spans"])
                    reports = trace["counters"].get("lemmas.reports", 0)
                    if spans or reports:
                        failures.append(f"rep {r_index} launch {i}: exceptional_set spans "
                                        f"{spans} off gaussian_binomial, {reports} lemma reports")
                        bad = set(range(ncases))
            failed += len(bad)
    return attempted, failed


def metric(values: list, unit: str) -> dict:
    return {"unit": unit, **summarize(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Stop on SIGTERM through SystemExit, which kills and reaps a running launch.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "fpfurst" / "cli.py").is_file():
        print(f"error: no fpfurst sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import selftest

    selftest.run_all()
    reference = json.loads((HERE / "reference.json").read_text())
    digests = None
    if args.seed == workloads.DEFAULT_SEED:
        digests = reference["digests"][args.workload]

    # One CPU for the probe and every launch, so the probe measures the
    # speed of the CPU the launches run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = time.monotonic()
    deadline = start + args.seconds
    plan = workloads.launches(args.workload, args.seed)
    state = ROOT / ".clibench"
    work = state / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(plan, work, start + HARD_LIMIT_S)
        runner.warm_up()
        if args.trace:
            untraced = [runner.repetition(False)]
            traced = repeat(runner, True, 1, deadline)
        else:
            untraced = repeat(runner, False, MIN_UNTRACED_REPS, deadline)
            traced = []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures: list[str] = []
    attempted, failed = gate(plan, untraced + traced, reference, digests, failures)
    backends = {r.get("backend") for rep in untraced + traced for r in rep}
    env = environment(next(iter(backends)) if len(backends) == 1 else None)

    e2e = [rep_end_to_end(rep) for rep in untraced]
    wall_clock = {name: metric([rep_end_to_end(rep, scaled=False)[name] for rep in untraced], unit)
                  for name, unit in END_TO_END.items()}
    metrics = {}
    if args.trace:
        snaps = [rep_trace(rep) for rep in traced]
        for name, (unit, value) in METRICS.items():
            if value is not None:
                metrics[name] = metric([value(s) for s in snaps], unit)
        traced_wall = statistics.median(rep_end_to_end(rep)["wall_s"] for rep in traced)
        untraced_wall = statistics.median(e["wall_s"] for e in e2e)
        metrics["trace.overhead_ratio"] = metric([traced_wall / untraced_wall], "ratio")
    else:
        for name, unit in END_TO_END.items():
            metrics[name] = metric([e[name] for e in e2e], unit)

    correct = failed == 0 and env["backend"] is not None
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "correct": correct, "attempted": attempted,
        "failed": failed, "fail_ratio": failed / attempted, "failures": failures,
        "untraced_reps": len(untraced), "traced_reps": len(traced),
        "launches": [launch.config() for launch in plan], "metrics": metrics,
        "wall_clock": wall_clock,
        "probe_s": summarize([calibrate.REFERENCE_S / r["scale"] for rep in untraced + traced
                              for r in rep]),
    }
    records = state / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print("wall-clock " + json.dumps({k: v["median"] for k, v in wall_clock.items()}))
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v["median"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
