import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# `Tracer.install` rebinds module globals of the whole package, so the traced
# run gets an interpreter of its own.
_TRACED_RUN = """
import json
import checks
import tracer
from fpfurst import cli

t = tracer.Tracer()
t.install()
reports = [
    cli.run(cli.parse_config(config))
    for config in (
        '{"command": "exceptional", "a": 3, "s": 1, "n": 3, "k": 1, "p": 3}',
        '{"command": "count", "n": 3, "k": 1, "p": 3, "m": 1, "l": 0}',
        '{"command": "construct", "s": 1, "t": 3, "n": 3, "k": 1, "p": 3}',
    )
]
snap = t.snapshot()
spans = snap["exceptional_spans"]
print(json.dumps({
    "fails": [r.fails for r in reports],
    "branch": reports[2].rows[0]["branch"],
    "to_rows": snap["calls"].get("primefield.PrimeMatrix.to_rows", 0),
    "spans": spans,
    "bad": checks.kernel_call_failures(spans),
}))
"""


def test_benchmark_tracer_installs_and_counts_kernel_calls():
    """The benchmark's tracer wraps the package by name and unpacks the
    kernel's positional arguments; a traced `exceptional`, `count` and
    `construct` run passes, with one kernel call per direction, and the
    wrapper on `PrimeMatrix.to_rows` sees the calls a subspace inherits."""
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "clibench")])
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out == {
        "fails": [0, 0, 0], "branch": "general-c", "to_rows": 6, "spans": [[3, 1, 3, 13]], "bad": [],
    }
