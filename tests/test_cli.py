import csv
import json
import os
import pathlib
import subprocess
import sys

import pytest

from fpfurst import cli
from fpfurst.cli import (
    ConfigError,
    main,
    parse_config,
    run,
    write_report,
)
from fpfurst.primefield import PRIME_LIMIT


def _cfg(**kw):
    return parse_config(json.dumps(kw))


def test_parse_config_index_example():
    cfg = _cfg(command="index", s="1/2", t="1", n=2, k=1)
    assert cfg.command == "index"
    report = run(cfg)
    assert report.rows[0]["value"] == "5/4"
    assert report.rows[0]["status"] == "pass"


def test_parse_rejects_decimal_strings():
    with pytest.raises(ConfigError, match="num/den"):
        _cfg(command="index", s="0.5", t=1, n=2, k=1)


def test_parse_rejects_float_values():
    with pytest.raises(ConfigError, match="num/den"):
        _cfg(command="index", s=0.5, t=1, n=2, k=1)


def test_parse_rejects_composite_prime():
    with pytest.raises(ConfigError, match="9 is not prime"):
        _cfg(command="construct", s=1, t=1, n=2, k=1, p=9)


def test_parse_rejects_prime_too_large_to_certify():
    with pytest.raises(ConfigError, match="too large"):
        _cfg(command="construct", s=1, t=1, n=2, k=1, p=PRIME_LIMIT)


def test_parse_rejects_unknown_keys_and_commands():
    with pytest.raises(ConfigError, match="unknown key"):
        _cfg(command="index", s=1, t=1, n=2, k=1, bogus=3)
    with pytest.raises(ConfigError, match="command"):
        _cfg(command="frobnicate")


def test_index_domain_error_surfaces_per_case():
    report = run(_cfg(command="index", s=[1, 3], t=1, n=2, k=1))
    statuses = [r["status"] for r in report.rows]
    assert statuses[0] == "pass" and statuses[1].startswith("error")
    assert report.fails == 1


def test_index_marstrand_kind():
    report = run(_cfg(command="index", kind="marstrand", a="3", s="1", n=3, k=1))
    assert report.rows[0]["value"] == "-inf"


def test_lemmas_counterexample_file(tmp_path):
    cfg = _cfg(command="lemmas", lemma="recursion_m", pairs=[[4, 2]], step="1/4")
    report = run(cfg)
    assert report.rows[0]["violations"] == 0
    out = write_report(report, tmp_path)
    assert (out / "lemmas.csv").exists()
    cx = (out / "counterexamples.csv").read_text()
    assert cx == "lemma,lhs,rhs,deficit\n"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cases"] == 1 and summary["fails"] == 0
    assert set(summary) == {"command", "cases", "passes", "fails", "wall_ms"}


def test_construct_three_pass_rows():
    cfg = _cfg(command="construct", s="1/2", t="1", n=2, k=1, p=[29, 61, 101])
    report = run(cfg)
    assert report.cases == 3 and report.fails == 0
    assert all(r["exponent"] == "5/4" for r in report.rows)


def test_construct_degenerate_is_per_case():
    # (s,t)=(1,2) at p=2: strip rows ceil(p^s)=2 fits; use an inadmissible k
    report = run(_cfg(command="construct", s="5", t="1", n=3, k=2, p=5))
    assert report.rows[0]["status"].startswith("error")
    assert report.fails == 1


def test_exceptional_command_oberlin_and_type4():
    report = run(_cfg(command="exceptional", a="3/2", s="1", n=2, k=1, p=[41, 101]))
    assert report.fails == 0
    assert all(r["branch"] == "oberlin-rectangle" for r in report.rows)
    report = run(_cfg(command="exceptional", a="3", s="1", n=3, k=1, p=7))
    assert report.rows[0]["certified"] == 0
    assert report.fails == 0


def test_count_command():
    report = run(_cfg(command="count", n=3, k=[1, 2], p=[2, 3]))
    assert report.fails == 0
    kinds = {r["kind"] for r in report.rows}
    assert kinds == {"grassmannian", "affine"}
    report = run(_cfg(command="count", n=3, k=1, p=3, m=1, l=1))
    rows = [r for r in report.rows if r["kind"] == "small_projection"]
    assert rows and rows[0]["enumerated"] == 13 and rows[0]["status"] == "pass"


def test_csv_deterministic_across_runs():
    cfg = _cfg(command="construct", s="1/2", t="1", n=2, k=1, p=[29, 61])
    assert run(cfg).to_csv() == run(cfg).to_csv()


def test_jobs_parallel_matches_serial():
    cfg = _cfg(command="index", s=["1/4", "1/2", "3/4", "1"], t=["1", "2"], n=2, k=1)
    serial = run(cfg).to_csv()
    parallel = run(cfg.replace(jobs=2)).to_csv()
    assert serial == parallel


def _python(script: str, *args: str, cwd=None) -> str:
    """The stdout of a fresh interpreter running script on the checkout's src/."""
    root = pathlib.Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(root / "src")}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_jobs_1_loads_no_process_pool():
    # the pool is imported only when --jobs is above 1
    script = (
        "import sys\n"
        "from fpfurst.cli import parse_config, run\n"
        "run(parse_config('{\"command\": \"index\", \"s\": 1, \"t\": 1, \"n\": 2, \"k\": 1}'))\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    assert _python(script) == "False\n"


# The fpfurst modules loaded at a CLI launch's entry to `cli.run` and at its
# exit; the two must be equal, so that no import is timed as case evaluation.
# `dataclasses` and `inspect` are watched too: no launch may load either,
# unless the interpreter's own start-up already has.
_FOOTPRINT_SCRIPT = """
import json, sys
started = set(sys.modules)
from fpfurst import cli

def loaded():
    watched = ("fpfurst", "dataclasses", "inspect")
    return sorted(name for name in set(sys.modules) - started if name.split(".")[0] in watched)

run, seen = cli.run, {}

def stub(config):
    seen["enter"] = loaded()
    return run(config)

cli.run = stub
status = cli.main(sys.argv[1:])
print(json.dumps({"status": status, "enter": seen["enter"], "exit": loaded()}))
"""
_CORE = ["fpfurst", "fpfurst.cli", "fpfurst.indices", "fpfurst.primefield"]
_FLATS = ["fpfurst._kernel", "fpfurst.flags", "fpfurst.projections"]


@pytest.mark.parametrize(
    "config, modules",
    [
        pytest.param({"command": "index", "s": "1/2", "t": "1", "n": 2, "k": 1}, _CORE,
                     id="index"),
        pytest.param({"command": "lemmas", "lemma": "recursion_f1", "k": 2, "step": "1/2"},
                     _CORE + ["fpfurst.lemmas"], id="lemmas"),
        pytest.param({"command": "count", "n": 3, "k": 1, "p": 2, "m": 1, "l": 0},
                     _CORE + _FLATS, id="count"),
        pytest.param({"command": "construct", "s": "1/2", "t": "1", "n": 2, "k": 1, "p": 5},
                     _CORE + _FLATS + ["fpfurst.errors", "fpfurst.furstenberg"], id="construct"),
        pytest.param({"command": "exceptional", "a": "3/2", "s": "3/2", "n": 4, "k": 2, "p": 3},
                     _CORE + _FLATS + ["fpfurst.errors", "fpfurst.exceptional"],
                     id="exceptional"),
    ],
)
def test_a_launch_imports_only_what_its_command_runs(config, modules, tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    out = _python(_FOOTPRINT_SCRIPT, config["command"], "--config", "cfg.json", "--out", "out",
                  cwd=tmp_path)
    assert json.loads(out) == {"status": 0, "enter": sorted(modules), "exit": sorted(modules)}


def test_import_fpfurst_loads_no_submodule():
    script = (
        "import sys\n"
        "started = set(sys.modules)\n"
        "import fpfurst\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('fpfurst.'))\n"
        "print(loaded())\n"
        "fpfurst.backend_name()\n"
        "print(loaded())\n"
        "fpfurst.lemmas\n"
        "print(loaded())\n"
        "print([m for m in ('dataclasses', 'inspect') if m in set(sys.modules) - started])\n"
    )
    assert _python(script) == (
        "[]\n['fpfurst._kernel']\n"
        "['fpfurst._kernel', 'fpfurst.indices', 'fpfurst.lemmas', 'fpfurst.primefield']\n[]\n"
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_imports_its_modules_without_parse_config(jobs):
    # a config built by hand reaches run() with no evaluator's module loaded,
    # and spawned workers start from a fresh import of cli
    script = (
        "import multiprocessing, sys\n"
        "from fractions import Fraction\n"
        "from fpfurst.cli import ExperimentConfig, run\n"
        "multiprocessing.set_start_method('spawn')\n"
        "params = {'s': [Fraction(1, 2), Fraction(1)], 't': [Fraction(1)], 'n': [2], 'k': [1],\n"
        "          'p': [5]}\n"
        f"config = ExperimentConfig('construct', params, Fraction(16), jobs={jobs})\n"
        "assert 'fpfurst.furstenberg' not in sys.modules\n"
        "sys.stdout.write(run(config).to_csv())\n"
    )
    config = _cfg(command="construct", s=["1/2", "1"], t="1", n=2, k=1, p=5)
    assert _python(script) == run(config).to_csv()


@pytest.mark.parametrize(
    "workload", ["witness-certify", "construct-verify", "count-enumerate", "lemma-sweep"]
)
def test_seed_0_launches_give_the_benchmark_reference_bytes(workload, monkeypatch):
    # every CSV byte of the benchmark's seed-0 launches, run in-process
    clibench = pathlib.Path(__file__).resolve().parents[1] / "clibench"
    monkeypatch.syspath_prepend(str(clibench))
    import checks
    import workloads

    reference = json.loads((clibench / "reference.json").read_text(encoding="utf-8"))
    for launch in workloads.launches(workload, workloads.DEFAULT_SEED):
        report = run(parse_config(json.dumps(launch.config())))
        got = {launch.csv_names()[0]: report.to_csv().encode()}
        if launch.command == "lemmas":
            got["counterexamples.csv"] = report.counterexample_csv.encode()
        assert got == checks.expected_outputs(launch, reference), launch


def test_main_end_to_end(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"command": "index", "s": "1/2", "t": "1", "n": 2, "k": 1})
    )
    code = main(["index", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 0
    csv_text = (tmp_path / "out" / "index.csv").read_text()
    assert "5/4" in csv_text


# One tiny config per subcommand and per lemma checker, each with the trace
# counters it must give; the construct case is a lifted family.
TRACED = [
    pytest.param(
        {"command": "construct", "s": "1/2", "t": "3", "n": 4, "k": 2, "p": 3},
        {"furstenberg.members": 54}, id="construct",
    ),
    pytest.param(
        {"command": "count", "n": 3, "k": 1, "p": 3, "m": 1, "l": 0}, {}, id="count",
    ),
    pytest.param(
        {"command": "lemmas", "lemma": "recursion_f1", "k": 2, "step": "1/2"},
        {"lemmas.reports": 0}, id="lemmas-recursion_f1",
    ),
    pytest.param(
        {"command": "lemmas", "lemma": "recursion_f2", "pairs": [[4, 2]], "step": "1/2"},
        {"lemmas.reports": 0}, id="lemmas-recursion_f2",
    ),
    pytest.param(
        {"command": "lemmas", "lemma": "recursion_m", "pairs": [[4, 2]], "step": "1/2"},
        {"lemmas.reports": 0}, id="lemmas-recursion_m",
    ),
    pytest.param(
        {"command": "lemmas", "lemma": "properties", "pairs": [[2, 1]], "step": "1/2"},
        {"lemmas.reports": 0}, id="lemmas-properties",
    ),
    pytest.param(
        {"command": "index", "kind": "marstrand", "a": "3", "s": "1", "n": 3, "k": 1},
        {}, id="index",
    ),
    pytest.param(
        {"command": "exceptional", "a": "3/2", "s": "3/2", "n": 4, "k": 2, "p": 3},
        {}, id="exceptional",
    ),
]


@pytest.mark.parametrize("config, counters", TRACED)
def test_benchmark_tracer_wraps_the_package(tmp_path, config, counters):
    # clibench's tracer wraps functions by name and parameter list; a traced
    # launch fails or miscounts when a wrapped signature changes.
    root = pathlib.Path(__file__).resolve().parents[1]
    command = config["command"]
    (tmp_path / "tiny.json").write_text(json.dumps(config))
    proc = subprocess.run(
        [sys.executable, str(root / "clibench" / "launch.py"), "rec.json", "1",
         command, "--config", "tiny.json", "--out", "out"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "out" / f"{command}.csv", newline="") as fh:
        statuses = [row["status"] for row in csv.DictReader(fh)]
    assert statuses and all(status == "pass" for status in statuses)
    trace = json.loads((tmp_path / "rec.json").read_text())["trace"]
    for key, value in counters.items():
        assert trace["counters"][key] == value
    if command == "exceptional":
        # (n, k, p, kernel calls): one call per direction, gaussian_binomial(n, n - k, p)
        assert trace["exceptional_spans"] == [[2, 1, 3, 4], [4, 2, 3, 130]]


def test_main_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"command":"index","s":"0.5","t":1,"n":2,"k":1}')
    assert main(["index", "--config", str(bad)]) == 2
    mismatch = tmp_path / "mismatch.json"
    mismatch.write_text('{"command":"index","s":"1","t":"1","n":2,"k":1}')
    assert main(["lemmas", "--config", str(mismatch)]) == 2
    failing = tmp_path / "fail.json"
    failing.write_text('{"command":"index","s":"3","t":"1","n":2,"k":1}')
    assert main(["index", "--config", str(failing), "--out", str(tmp_path / "o")]) == 1


def test_main_rejects_jobs_out_of_range(tmp_path, capsys):
    # One case, so run() starts no pool even if the guard were missing.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "index", "s": "1/2", "t": "1", "n": 2, "k": 1}))
    out = tmp_path / "out"
    for jobs in (0, -1, os.cpu_count() + 1):
        code = main(["index", "--config", str(cfg), "--out", str(out), "--jobs", str(jobs)])
        assert code == 2
        assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-file"])
def test_main_refuses_out_that_is_not_a_directory(tmp_path, capsys, monkeypatch, sub):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "index", "s": "1/2", "t": "1", "n": 2, "k": 1}))
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("a case ran"))
    assert main(["index", "--config", str(cfg), "--out", str(afile / sub)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert afile.read_text() == "kept\n"


def test_main_refuses_a_config_that_is_not_utf8(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe{}")
    out = tmp_path / "out"
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("a case ran"))
    assert main(["index", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_help_documents_csv_schemas(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for cmd in ("index", "lemmas", "construct", "exceptional", "count"):
        assert cmd in out
    assert "certified_ok" in out  # schema epilog present


def test_main_flag_overrides(tmp_path):
    # --grid-step is gone: the config's "step" key gives the row it gave
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "lemmas", "lemma": "recursion_f1", "k": 2}))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["lemmas", "--config", str(cfg), "--grid-step", "1/2", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    cfg.write_text(json.dumps(
        {"command": "lemmas", "lemma": "recursion_f1", "k": 2, "step": "1/2"}))
    assert main(["lemmas", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "lemmas.csv").read_text().splitlines()[1] == "recursion_f1,,2,1/2,0,pass"


_CONFIGS = {
    "index": {"command": "index", "s": "1/2", "t": "1", "n": 2, "k": 1},
    "lemmas": {"command": "lemmas", "lemma": "recursion_f1", "k": 2, "step": "1/2"},
    "construct": {"command": "construct", "s": "1/2", "t": "1", "n": 2, "k": 1, "p": 5},
    "exceptional": {"command": "exceptional", "a": "3/2", "s": "1", "n": 2, "k": 1, "p": 7},
    "count": {"command": "count", "n": 2, "k": 1, "p": 2},
}


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command in _CONFIGS
     for flag in ("--upper-constant", "--lower-constant")
     if (command, flag) not in {("construct", "--upper-constant"),
                                ("exceptional", "--lower-constant")}],
)
def test_main_refuses_a_constant_flag_the_subcommand_does_not_read(command, flag, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_CONFIGS[command]))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg), "--out", str(out), flag, "5"])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag", [("construct", "--upper-constant"), ("exceptional", "--lower-constant")]
)
@pytest.mark.parametrize("value", ["0", "-3", "0/5"])
def test_main_refuses_a_non_positive_constant(command, flag, value, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_CONFIGS[command]))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), f"{flag}={value}"]) == 2
    assert f"error: {flag} must be positive" in capsys.readouterr().err
    assert not out.exists()
    positive = {"construct": "32", "exceptional": "1/50"}[command]
    assert main([command, "--config", str(cfg), "--out", str(out), flag, positive]) == 0


@pytest.mark.parametrize(
    "config",
    [
        *_CONFIGS.values(),
        {"command": "index", "kind": "marstrand", "a": ["1", "3"], "s": "1", "n": [2, 3], "k": 1},
        {"command": "index", "s": [1, 3], "t": 1, "n": 2, "k": 1},
        {"command": "lemmas", "lemma": "recursion_f2", "pairs": [[3, 2], [4, 2]], "step": "1/2"},
        {"command": "lemmas", "lemma": "recursion_m", "pairs": [[4, 2]], "step": "2/3"},
        {"command": "lemmas", "lemma": "properties", "pairs": [[2, 1]], "step": "1/2"},
        {"command": "construct", "s": "5", "t": "1", "n": 3, "k": 2, "p": 5},
        {"command": "exceptional", "a": "9", "s": "1", "n": 2, "k": 1, "p": 3},
        {"command": "count", "n": 3, "k": [1, 5], "p": 3, "m": [-1, 1, 4], "l": [0, 9]},
    ],
)
def test_run_raises_no_config_error_on_a_parsed_config(config):
    from fpfurst.cli import CSV_COLUMNS, _build_cases

    cfg = parse_config(json.dumps(config))
    _, cases = _build_cases(cfg)
    report = run(cfg)
    assert report.cases == len(cases)
    for row in report.rows:
        assert list(row) and set(row) == set(CSV_COLUMNS[cfg.command])
        assert row["status"] == "pass" or row["status"].startswith(("fail", "error: "))


def test_count_refuses_m_outside_0_to_n(tmp_path):
    config = {"command": "count", "n": 3, "k": 1, "p": 3, "m": [-1, 4], "l": 0}
    rows = [r for r in run(parse_config(json.dumps(config))).rows
            if r["kind"] == "small_projection"]
    assert [r["m"] for r in rows] == [-1, 4]
    for row in rows:
        assert row["enumerated"] == row["expected"] == ""
        assert row["status"].startswith("error: need 0 <= m <= n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["count", "--config", str(cfg), "--out", str(out)]) == 1
    with open(out / "count.csv", newline="") as fh:
        written = list(csv.DictReader(fh))
    assert [r["status"] for r in written[:2]] == ["pass", "pass"]
    assert [(r["m"], r["enumerated"]) for r in written[2:]] == [("-1", ""), ("4", "")]
    assert all(r["status"].startswith("error: need 0 <= m <= n") for r in written[2:])


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    # Each `echo ... > x.json` and `fpfurst ...` line of README's CLI block.
    import shlex
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    launched = 0
    for line in block.splitlines():
        words = shlex.split(line)
        if words[:1] == ["echo"]:
            assert words[2] == ">"
            Path(words[3]).write_text(words[1])
        elif words[:1] == ["fpfurst"]:
            assert main(words[1:]) == 0, line
            out = Path(words[words.index("--out") + 1])
            rows = (out / f"{words[1]}.csv").read_text().splitlines()[1:]
            assert rows and all(row.endswith(",pass") for row in rows), line
            launched += 1
    assert launched == 5


def test_main_missing_required_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"command":"construct","s":"1","t":"1","n":2,"k":1}')
    out = tmp_path / "out"
    assert main(["construct", "--config", str(cfg), "--out", str(out)]) == 2
    assert "error: construct requires key 'p'" in capsys.readouterr().err
    assert not out.exists()
    cfg.write_text('{"command":"lemmas","k":2}')
    assert main(["lemmas", "--config", str(cfg), "--out", str(out)]) == 2
    assert "error: lemmas requires key 'lemma'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "params",
    [
        {"lemma": "recursion_f2", "pairs": [[3, 2]], "step": "1/2"},
        {"lemma": "recursion_f1", "k": [1], "step": "1/2"},
        {"lemma": "properties", "pairs": [[2, 3]], "step": "1/2"},
        {"lemma": "recursion_m", "pairs": [[4, 2]], "step": "2/3"},
    ],
)
def test_lemma_domain_error_surfaces_per_case(params):
    row = run(_cfg(command="lemmas", **params)).rows[0]
    assert row["violations"] == "" and row["status"].startswith("error: ")


def test_main_lemma_domain_error_beside_pass(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"command": "lemmas", "lemma": "recursion_f2", "pairs": [[3, 2], [4, 2]], "step": "1/2"}
    ))
    out = tmp_path / "out"
    assert main(["lemmas", "--config", str(cfg), "--out", str(out)]) == 1
    rows = (out / "lemmas.csv").read_text().splitlines()
    assert rows[1] == "recursion_f2,3,2,1/2,,error: recursion needs n >= k + 2"
    assert rows[2] == "recursion_f2,4,2,1/2,0,pass"
    assert (out / "counterexamples.csv").read_text() == "lemma,lhs,rhs,deficit\n"


@pytest.mark.parametrize(
    "params, rows",
    [
        ({"lemma": "properties", "pairs": [[2, 2]]},
         ['properties,2,2,1/2,,"error: bad dimension pair (2,2)"']),
        ({"lemma": "recursion_f2", "pairs": [[3, 2]]},
         ["recursion_f2,3,2,1/2,,error: recursion needs n >= k + 2"]),
        ({"lemma": "recursion_f1", "k": 1},
         ["recursion_f1,,1,1/2,,error: recursion needs k >= 2"]),
        # n >= k + 2 holds at k < 1, where no index is defined
        ({"lemma": "recursion_m", "pairs": [[4, 0], [3, -5]]},
         ['recursion_m,4,0,1/2,,"error: bad dimension pair (4,0)"',
          'recursion_m,3,-5,1/2,,"error: bad dimension pair (3,-5)"']),
        ({"lemma": "recursion_f2", "pairs": [[4, 0], [4, -2]]},
         ['recursion_f2,4,0,1/2,,"error: bad dimension pair (4,0)"',
          'recursion_f2,4,-2,1/2,,"error: bad dimension pair (4,-2)"']),
        ({"lemma": "recursion_f1", "k": [0, -1]},
         ['recursion_f1,,0,1/2,,"error: bad dimension pair (1,0)"',
          'recursion_f1,,-1,1/2,,"error: bad dimension pair (0,-1)"']),
    ],
    ids=["properties-22", "f2-32", "f1-1", "m-k-below-1", "f2-k-below-1", "f1-k-below-1"],
)
def test_main_lemma_domain_error_rows(tmp_path, params, rows):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "lemmas", "step": "1/2", **params}))
    out = tmp_path / "out"
    assert main(["lemmas", "--config", str(cfg), "--out", str(out)]) == 1
    assert (out / "lemmas.csv").read_text().splitlines()[1:] == rows
    assert (out / "counterexamples.csv").read_text() == "lemma,lhs,rhs,deficit\n"


@pytest.mark.parametrize(
    "pairs",
    [[[4.9, 2]], [["4", 2]], [[True, 2]], [[4, 2, 1]], [[4]], [4, 2], "4,2", [(4, 2), 3]],
)
def test_parse_rejects_inexact_pairs(pairs):
    with pytest.raises(ConfigError, match="pairs"):
        _cfg(command="lemmas", lemma="recursion_m", pairs=pairs)


def test_count_requires_both_m_and_l(tmp_path):
    for extra in ({"m": 1}, {"l": 1}):
        with pytest.raises(ConfigError, match="'m' and 'l'"):
            run(_cfg(command="count", n=3, k=1, p=3, **extra))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "count", "n": 3, "k": 1, "p": 3, **extra}))
        assert main(["count", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_lemmas_sweep_every_step():
    report = run(_cfg(command="lemmas", lemma="recursion_f1", k=[2, 3], step=["1/2", "1/3"]))
    assert [(r["k"], r["step"]) for r in report.rows] == [
        (2, "1/2"), (2, "1/3"), (3, "1/2"), (3, "1/3")]
    assert report.fails == 0
    pairs = run(_cfg(command="lemmas", lemma="recursion_m", pairs=[[4, 2]], step=["1/2", "1/3"]))
    assert [r["step"] for r in pairs.rows] == ["1/2", "1/3"]


def test_count_refuses_the_factor_key(tmp_path, capsys):
    # a small_projection row passes iff its count is exact, so no bound is left to set
    _assert_count_refuses_factor(4, tmp_path, capsys)
    config = {"command": "count", "n": 3, "k": 1, "p": 3, "m": 1, "l": 0}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["count", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def _assert_count_refuses_factor(factor, tmp_path, capsys):
    config = {"command": "count", "n": 3, "k": 1, "p": 3, "m": 1, "l": 0, "factor": factor}
    with pytest.raises(ConfigError, match="'factor'"):
        parse_config(json.dumps(config))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["count", "--config", str(cfg), "--out", str(out)]) == 2
    assert "'factor'" in capsys.readouterr().err
    assert not out.exists()


def test_count_refuses_several_factors(tmp_path, capsys):
    # no factor is read any more, so a sweep of them is refused as an unread key
    _assert_count_refuses_factor([4, 2], tmp_path, capsys)


@pytest.mark.parametrize("factor", ["1/2", "0", "-2"])
def test_count_refuses_a_factor_below_one(factor, tmp_path, capsys):
    _assert_count_refuses_factor(factor, tmp_path, capsys)


def test_small_projection_row_passes_iff_the_count_is_exact(monkeypatch):
    def row():
        report = run(_cfg(command="count", n=4, k=2, p=7, m=2, l=1))
        r = next(r for r in report.rows if r["kind"] == "small_projection")
        return r["enumerated"], r["expected"], r["status"]

    assert row() == (449, 343, "pass")
    # 448 lies within any factor of 343 that 449 does; only the exact count passes
    monkeypatch.setattr("fpfurst.flags.small_projection_count", lambda *args: 448)
    assert row() == (449, 343, "fail")


@pytest.mark.parametrize(
    "config, key",
    [
        ({"command": "index", "s": 1, "t": 1, "n": 2, "k": 1, "p": 7}, "p"),
        ({"command": "index", "s": 1, "t": 1, "n": 2, "k": 1, "pairs": [[4, 2]]}, "pairs"),
        ({"command": "index", "s": 1, "t": 1, "a": 1, "n": 2, "k": 1}, "a"),
        ({"command": "index", "kind": "marstrand", "a": 1, "s": 1, "t": 1, "n": 2, "k": 1}, "t"),
        ({"command": "lemmas", "lemma": "recursion_f1", "k": 2, "pairs": [[4, 2]]}, "pairs"),
        ({"command": "lemmas", "lemma": "recursion_m", "pairs": [[4, 2]], "k": 2}, "k"),
        ({"command": "lemmas", "lemma": "properties", "pairs": [[2, 1]], "k": 1}, "k"),
        ({"command": "lemmas", "lemma": "recursion_f2", "pairs": [[4, 2]], "p": 7}, "p"),
        ({"command": "construct", "s": 1, "t": 1, "n": 2, "k": 1, "p": 7,
          "upper_constant": "1/1000"}, "upper_constant"),
        ({"command": "exceptional", "a": 1, "s": 1, "n": 2, "k": 1, "p": 7,
          "lower_constant": "1/1000"}, "lower_constant"),
        ({"command": "construct", "s": 1, "t": 1, "n": 2, "k": 1, "p": 7, "a": 1}, "a"),
        ({"command": "exceptional", "a": 1, "s": 1, "n": 2, "k": 1, "p": 7, "t": 1}, "t"),
        ({"command": "count", "n": 3, "k": 1, "p": 3, "step": "1/2"}, "step"),
        ({"command": "count", "n": 3, "k": 1, "p": 3, "kind": "marstrand"}, "kind"),
        ({"command": "construct", "s": 1, "t": 1, "n": 2, "k": 1, "p": 7,
          "lemma": "recursion_f1"}, "lemma"),
    ],
)
def test_parse_refuses_keys_the_command_does_not_read(config, key, tmp_path, capsys):
    with pytest.raises(ConfigError, match=f"'{key}'"):
        parse_config(json.dumps(config))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([config["command"], "--config", str(path), "--out", str(out)]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config",
    [
        {"command": "exceptional", "a": ["3/2", "1"], "s": "1", "n": 2, "k": 1, "p": [41, 101]},
        {"command": "construct", "s": ["0", "1/2"], "t": "2", "n": 2, "k": 1, "p": 61},
        {"command": "count", "n": 4, "k": [1, 2], "p": 7, "m": [1, 2], "l": 1},
        {"command": "lemmas", "lemma": "recursion_f1", "k": [2, 3], "step": "1/6"},
        {"command": "lemmas", "lemma": "recursion_m", "pairs": [[4, 2], [5, 3]], "step": "1/6"},
        {"command": "lemmas", "lemma": "properties", "pairs": [[2, 1]], "step": "1/6"},
        {"command": "index", "kind": "marstrand", "a": ["1/2", "3"], "s": "1/3", "n": [3, 4],
         "k": [1, 2]},
    ],
)
def test_parse_accepts_every_benchmark_config_shape(config):
    from fpfurst.cli import _build_cases

    _, cases = _build_cases(parse_config(json.dumps(config)))
    assert cases


@pytest.mark.parametrize(
    "config, key",
    [
        ({"command": "construct", "s": [], "t": 1, "n": 2, "k": 1, "p": 7}, "s"),
        ({"command": "construct", "s": 1, "t": 1, "n": 2, "k": 1, "p": []}, "p"),
        ({"command": "lemmas", "lemma": "recursion_f1", "k": []}, "k"),
        ({"command": "lemmas", "lemma": "recursion_m", "pairs": []}, "pairs"),
        ({"command": "lemmas", "lemma": "recursion_f1", "k": 2, "step": []}, "step"),
        ({"command": "exceptional", "a": [], "s": 1, "n": 2, "k": 1, "p": 7}, "a"),
        ({"command": "count", "n": 3, "k": 1, "p": 3, "m": [], "l": 1}, "m"),
    ],
)
def test_main_refuses_empty_sweep(config, key, tmp_path, capsys):
    # an empty list would sweep zero cases and exit 0 without a word
    with pytest.raises(ConfigError, match=f"{key}: an empty list"):
        parse_config(json.dumps(config))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([config["command"], "--config", str(path), "--out", str(out)]) == 2
    assert "empty list" in capsys.readouterr().err
    assert not out.exists()
