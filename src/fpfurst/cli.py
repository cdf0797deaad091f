"""Batch experiment runner with machine-readable reports.

Subcommands (parameters come from a JSON config; values may be scalars or
lists, and list-valued parameters are swept as a Cartesian product; a key
the command does not read is refused):

  index        evaluate an index function exactly.
               keys: kind ("furstenberg" | "marstrand"), s, t | a, n, k
  lemmas       run a grid check.
               keys: lemma ("recursion_f1" | "recursion_f2" | "recursion_m" |
               "properties"), step, and k (for recursion_f1) or pairs
               (list of [n, k]) for the others; one row per (k or pair,
               step)
  construct    build a family of flats, verify it, and check the exact upper
               and lower size bounds.  keys: s, t, n, k, p; constant from
               --upper-constant (default 16)
  exceptional  build an exceptional-set witness and certify its count.
               keys: a, s, n, k, p; constant from --lower-constant
               (default 1/25)
  count        compare enumerated subspace/flat counts against the product
               formula, and optionally the small-projection direction count
               against its power of p (keys m, l; bound from "factor",
               one value, default 4).

Common flags: --config FILE, --out DIR, --jobs N, --grid-step num/den,
--upper-constant num/den, --lower-constant num/den.

Outputs: <out>/<command>.csv with one row per case (schema fixed per
command, exact decimal integers and num/den rationals only, so identical
configs give byte-identical files), <out>/summary.json with
{cases, passes, fails, wall_ms}, and for `lemmas` also
<out>/counterexamples.csv.  Exit status is nonzero iff some case fails,
and 2 for a config or flag that is refused before any case runs: --jobs
outside 1..CPU count, a p that is composite or too large to certify prime,
a missing required key, a key the command does not read, a key given as an
empty list, or more than one factor.

Rationals cross this boundary only as integers or "num/den" strings;
decimal notation is rejected.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .errors import DegenerateScaleError
from .exceptional import (
    certify_lower_bound,
    construct_marstrand_witness,
    construct_oberlin_rectangle,
)
from .flags import gaussian_binomial
from .furstenberg import (
    construct_general,
    lower_bound_sanity,
    meets_upper_bound,
    verify_family,
)
from .indices import furstenberg_index, marstrand_index
from .lemmas import (
    GridSpec,
    check_index_properties,
    check_recursion_f1,
    check_recursion_f2,
    check_recursion_m,
    reports_to_csv,
)
from .primefield import PRIME_LIMIT, is_prime


class ConfigError(ValueError):
    pass


COMMANDS = ("index", "lemmas", "construct", "exceptional", "count")
LEMMA_NAMES = ("recursion_f1", "recursion_f2", "recursion_m", "properties")

CSV_COLUMNS = {
    "index": ["kind", "s", "t", "a", "n", "k", "value", "status"],
    "lemmas": ["lemma", "n", "k", "step", "violations", "status"],
    "construct": [
        "s", "t", "n", "k", "p", "branch", "members", "size",
        "exponent", "upper_ok", "valid", "lower_ok", "status",
    ],
    "exceptional": [
        "a", "s", "n", "k", "p", "type", "branch", "set_size",
        "claimed", "certified", "exponent", "certified_ok", "status",
    ],
    "count": ["kind", "n", "k", "m", "l", "p", "enumerated", "expected", "status"],
}


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    params: dict
    grid_step: Fraction | None = None
    upper_constant: Fraction = Fraction(16)
    lower_constant: Fraction = Fraction(1, 25)
    jobs: int = 1
    out: str | None = None


@dataclass
class RunReport:
    command: str
    rows: list[dict] = field(default_factory=list)
    counterexample_csv: str = ""
    wall_ms: int = 0

    @property
    def cases(self) -> int:
        return len(self.rows)

    @property
    def passes(self) -> int:
        return sum(1 for r in self.rows if r["status"] == "pass")

    @property
    def fails(self) -> int:
        return self.cases - self.passes

    def to_csv(self) -> str:
        cols = CSV_COLUMNS[self.command]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        for row in self.rows:
            writer.writerow([row.get(c, "") for c in cols])
        return buf.getvalue()

    def summary(self) -> dict:
        return {
            "command": self.command,
            "cases": self.cases,
            "passes": self.passes,
            "fails": self.fails,
            "wall_ms": self.wall_ms,
        }


def _parse_rational(value, key: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ConfigError(f"{key}: rationals must be num/den")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if any(c in value for c in ".eE"):
            raise ConfigError(f"{key}: rationals must be num/den")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    raise ConfigError(f"{key}: rationals must be num/den")


def _parse_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return value


def _parse_prime(value, key: str) -> int:
    v = _parse_int(value, key)
    if v >= PRIME_LIMIT:
        raise ConfigError(f"{key}: {v} is too large to certify prime (limit {PRIME_LIMIT})")
    if not is_prime(v):
        raise ConfigError(f"{v} is not prime")
    return v


def _listify(value, key: str) -> list:
    """A scalar as a one-value sweep; an empty list is refused, since it
    would sweep no case and pass without a word."""
    if value == []:
        raise ConfigError(f"{key}: an empty list sweeps no case")
    return list(value) if isinstance(value, list) else [value]


_PARSERS = {
    "s": _parse_rational,
    "t": _parse_rational,
    "a": _parse_rational,
    "step": _parse_rational,
    "factor": _parse_rational,
    "n": _parse_int,
    "k": _parse_int,
    "m": _parse_int,
    "l": _parse_int,
    "p": _parse_prime,
}


def _require(params: dict, key: str, command: str):
    if key not in params:
        raise ConfigError(f"{command} requires key {key!r}")
    return params[key]


# The keys each case sweeps, in product order; index sweeps by kind.
_SWEEPS = {
    "furstenberg": ("s", "t", "n", "k"),
    "marstrand": ("a", "s", "n", "k"),
    "construct": ("s", "t", "n", "k", "p"),
    "exceptional": ("a", "s", "n", "k", "p"),
    "count": ("n", "k", "p"),
}


def _check_read_keys(command: str, params: dict):
    """Refuse a key the command would ignore, so no setting is dropped
    without a word."""
    if command == "index":
        what = params.get("kind", "furstenberg")
        keys = {"kind", *_SWEEPS[what]}
    elif command == "lemmas":
        what = _require(params, "lemma", command)
        keys = {"lemma", "step", "k" if what == "recursion_f1" else "pairs"}
    else:
        what, keys = command, set(_SWEEPS[command])
        if command == "count":
            keys |= {"m", "l", "factor"}
    for key in params:
        if key not in keys:
            raise ConfigError(f"{what} does not read key {key!r}")


def parse_config(text: str) -> ExperimentConfig:
    """Exact parse of a JSON experiment config, or a diagnostic naming the
    offending key."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    command = raw.pop("command", None)
    if command not in COMMANDS:
        raise ConfigError(f"command must be one of {COMMANDS}, got {command!r}")
    params: dict = {}
    for key, value in raw.items():
        if key == "kind":
            if value not in ("furstenberg", "marstrand"):
                raise ConfigError(f"kind must be furstenberg or marstrand, got {value!r}")
            params["kind"] = value
        elif key == "lemma":
            if value not in LEMMA_NAMES:
                raise ConfigError(f"lemma must be one of {LEMMA_NAMES}, got {value!r}")
            params["lemma"] = value
        elif key == "pairs":
            if not isinstance(value, list) or not all(
                isinstance(pair, list) and len(pair) == 2 for pair in value
            ):
                raise ConfigError("pairs: expected [[n, k], ...]")
            params["pairs"] = [
                (_parse_int(n, key), _parse_int(k, key)) for n, k in _listify(value, key)
            ]
        elif key in _PARSERS:
            parser = _PARSERS[key]
            params[key] = [parser(v, key) for v in _listify(value, key)]
        else:
            raise ConfigError(f"unknown key {key!r}")
    _check_read_keys(command, params)
    return ExperimentConfig(command=command, params=params)


def _eval_index_case(args) -> dict:
    kind, x, y, n, k = args
    row = {"kind": kind, "n": n, "k": k, "s": "", "t": "", "a": "", "status": "pass"}
    try:
        if kind == "furstenberg":
            row["s"], row["t"] = str(x), str(y)
            row["value"] = str(furstenberg_index(x, y, n, k))
        else:
            row["a"], row["s"] = str(x), str(y)
            row["value"] = str(marstrand_index(x, y, n, k))
    except ValueError as exc:
        row["value"] = ""
        row["status"] = f"error: {exc}"
    return row


def _eval_lemma_case(args) -> dict:
    lemma, n, k, step = args
    row = {"lemma": lemma, "n": n if n else "", "k": k, "step": str(step)}
    try:
        grid = GridSpec(step)
        if lemma == "recursion_f1":
            reports = check_recursion_f1(k, grid)
        elif lemma == "recursion_f2":
            reports = check_recursion_f2(n, k, grid)
        elif lemma == "recursion_m":
            reports = check_recursion_m(n, k, grid)
        else:
            reports = check_index_properties(GridSpec(step, ((n, k),)))
    except ValueError as exc:
        row.update(violations="", status=f"error: {exc}")
        return row
    row.update(
        violations=len(reports),
        status="pass" if not reports else "fail",
        _reports=reports,
    )
    return row


def _eval_construct_case(args) -> dict:
    s, t, n, k, p, constant = args
    row = {"s": str(s), "t": str(t), "n": n, "k": k, "p": p}
    try:
        fam = construct_general(s, t, n, k, p)
    except (DegenerateScaleError, ValueError) as exc:
        row.update(branch="", members="", size="", exponent="",
                   upper_ok="", valid="", lower_ok="", status=f"error: {exc}")
        return row
    validity = verify_family(fam)
    upper_ok = meets_upper_bound(fam, constant)
    lower_ok = lower_bound_sanity(fam)
    row.update(
        branch=fam.branch,
        members=len(fam.members),
        size=len(fam.union),
        exponent=str(furstenberg_index(s, t, n, k)),
        upper_ok=upper_ok,
        valid=validity.is_valid,
        lower_ok=lower_ok,
        status="pass" if (validity.is_valid and upper_ok and lower_ok) else "fail",
    )
    return row


def _eval_exceptional_case(args) -> dict:
    a, s, n, k, p, constant = args
    row = {"a": str(a), "s": str(s), "n": n, "k": k, "p": p}
    try:
        if (n, k) == (2, 1) and a / 2 < s <= min(Fraction(1), a):
            witness = construct_oberlin_rectangle(a, s, p)
        else:
            witness = construct_marstrand_witness(a, s, n, k, p)
    except (DegenerateScaleError, ValueError) as exc:
        row.update(type="", branch="", set_size="", claimed="", certified="",
                   exponent="", certified_ok="", status=f"error: {exc}")
        return row
    ok = certify_lower_bound(witness, constant)
    row.update(
        type=witness.mtype,
        branch=witness.branch,
        set_size=len(witness.set_a),
        claimed=len(witness.claimed),
        certified=witness.certified_count,
        exponent=str(marstrand_index(a, s, n, k)),
        certified_ok=ok,
        status="pass" if ok else "fail",
    )
    return row


def _eval_count_case(args) -> dict:
    from .flags import LinearSubspace, enumerate_affine, enumerate_linear
    from .projections import count_small_projection_subspaces

    kind, n, k, m, l, p, factor = args
    row = {"kind": kind, "n": n, "k": k, "m": m if m is not None else "",
           "l": l if l is not None else "", "p": p}
    try:
        if kind == "grassmannian":
            got = sum(1 for _ in enumerate_linear(n, k, p))
            expected = gaussian_binomial(n, k, p)
            ok = got == expected
        elif kind == "affine":
            got = sum(1 for _ in enumerate_affine(n, k, p))
            expected = p ** (n - k) * gaussian_binomial(n, k, p)
            ok = got == expected
        else:
            W = LinearSubspace.coordinate(range(m), n, p)
            got = count_small_projection_subspaces(W, k, l)
            expected = p ** (k * (n - k) - (k - l) * (m - l))
            ok = Fraction(got) <= factor * expected and Fraction(expected) <= factor * got
    except ValueError as exc:
        row.update(enumerated="", expected="", status=f"error: {exc}")
        return row
    row.update(enumerated=got, expected=expected, status="pass" if ok else "fail")
    return row


def _sweep(params: dict, keys, command: str):
    return itertools.product(*(_require(params, key, command) for key in keys))


def _build_cases(config: ExperimentConfig):
    p = config.params
    cmd = config.command
    if cmd == "index":
        kind = p.get("kind", "furstenberg")
        return _eval_index_case, [(kind, *case) for case in _sweep(p, _SWEEPS[kind], cmd)]
    if cmd == "lemmas":
        lemma = _require(p, "lemma", cmd)
        default = Fraction(1, 12) if lemma == "properties" else Fraction(1, 4)
        steps = [config.grid_step] if config.grid_step else p.get("step", [default])
        if lemma == "recursion_f1":
            dims = [("", k) for k in _require(p, "k", cmd)]
        else:
            dims = _require(p, "pairs", cmd)
        return _eval_lemma_case, [(lemma, n, k, step) for (n, k) in dims for step in steps]
    if cmd == "construct":
        sweep = _sweep(p, _SWEEPS[cmd], cmd)
        return _eval_construct_case, [(*case, config.upper_constant) for case in sweep]
    if cmd == "exceptional":
        sweep = _sweep(p, _SWEEPS[cmd], cmd)
        return _eval_exceptional_case, [(*case, config.lower_constant) for case in sweep]
    # count
    if ("m" in p) != ("l" in p):
        raise ConfigError("count requires both of the keys 'm' and 'l', or neither")
    factors = p.get("factor", [Fraction(4)])
    if len(factors) != 1:
        raise ConfigError("factor: expected one value, since no count column tells factors apart")
    factor = factors[0]
    cases = []
    for n, k, prime in _sweep(p, _SWEEPS[cmd], cmd):
        cases.append(("grassmannian", n, k, None, None, prime, factor))
        cases.append(("affine", n, k, None, None, prime, factor))
        for m, l in itertools.product(p.get("m", []), p.get("l", [])):
            cases.append(("small_projection", n, k, m, l, prime, factor))
    return _eval_count_case, cases


def run(config: ExperimentConfig) -> RunReport:
    """Execute every case of the config; deterministic row order (case order),
    degenerate-scale failures surfaced per case rather than fatally."""
    start = time.monotonic()
    evaluator, cases = _build_cases(config)
    if config.jobs > 1 and len(cases) > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            rows = list(pool.map(evaluator, cases))
    else:
        rows = [evaluator(case) for case in cases]
    report = RunReport(command=config.command)
    reports = []
    for row in rows:
        reports.extend(row.pop("_reports", []))
    report.rows = rows
    if config.command == "lemmas":
        report.counterexample_csv = reports_to_csv(reports)
    report.wall_ms = int((time.monotonic() - start) * 1000)
    return report


def write_report(report: RunReport, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{report.command}.csv").write_text(report.to_csv(), encoding="utf-8")
    if report.command == "lemmas":
        (out / "counterexamples.csv").write_text(
            report.counterexample_csv, encoding="utf-8"
        )
    (out / "summary.json").write_text(
        json.dumps(report.summary(), indent=2) + "\n", encoding="utf-8"
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fpfurst",
        description="Exact experiments with flat families and projection "
        "exceptional sets over prime fields.",
        epilog="CSV schemas: " + "; ".join(
            f"{cmd}: {','.join(cols)}" for cmd, cols in CSV_COLUMNS.items()
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON config file")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--jobs", type=int, default=1, help="worker processes, 1..CPU count")
        cmd.add_argument("--grid-step", default=None, help="rational like 1/4")
        cmd.add_argument("--upper-constant", default=None, help="rational like 16")
        cmd.add_argument("--lower-constant", default=None, help="rational like 1/25")
    args = parser.parse_args(argv)

    try:
        cpus = os.cpu_count() or 1
        if not 1 <= args.jobs <= cpus:
            raise ConfigError(f"--jobs must be in 1..{cpus}, got {args.jobs}")
        config = parse_config(Path(args.config).read_text(encoding="utf-8"))
        if config.command != args.command:
            raise ConfigError(
                f"config says command={config.command!r} but subcommand "
                f"{args.command!r} was invoked"
            )
        overrides = {"jobs": args.jobs, "out": args.out}
        if args.grid_step is not None:
            overrides["grid_step"] = _parse_rational(args.grid_step, "--grid-step")
        if args.upper_constant is not None:
            overrides["upper_constant"] = _parse_rational(
                args.upper_constant, "--upper-constant")
        if args.lower_constant is not None:
            overrides["lower_constant"] = _parse_rational(
                args.lower_constant, "--lower-constant")
        from dataclasses import replace
        config = replace(config, **overrides)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run(config)
    except ConfigError as exc:  # a missing or unpaired key, found before any case runs
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.out:
        write_report(report, config.out)
    else:
        sys.stdout.write(report.to_csv())
    summary = report.summary()
    print(
        f"{summary['cases']} cases, {summary['passes']} passed, "
        f"{summary['fails']} failed ({summary['wall_ms']} ms)",
        file=sys.stderr,
    )
    return 0 if report.fails == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
