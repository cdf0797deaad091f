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
               and lower size bounds.  keys: s, t, n, k, p.
               flag: --upper-constant num/den (default 16)
  exceptional  build an exceptional-set witness and certify its count.
               keys: a, s, n, k, p.  flag: --lower-constant num/den
               (default 1/25)
  count        compare enumerated subspace/flat counts against the product
               formula, and optionally the small-projection direction count
               against its exact q-binomial sum, printed beside its power
               of p (keys m, l, both or neither, with 0 <= m <= n).

Every subcommand takes --config FILE, --out DIR and --jobs N; construct and
exceptional each take their one constant flag, and no other subcommand takes
either.  --jobs 1 (the default) evaluates every case in this process and
loads no process pool; N > 1 fans the cases out over N worker processes
without changing row order.  A launch imports only the modules its command
runs, and imports them while parsing the config, before any case.  The
package's records share a base class of its own (`primefield._Record`), so
no launch imports the standard library's record generator or `inspect`.

Outputs: <out>/<command>.csv with one row per case (schema fixed per
command, exact decimal integers and num/den rationals only, so identical
configs give byte-identical files), <out>/summary.json with
{cases, passes, fails, wall_ms}, and for `lemmas` also
<out>/counterexamples.csv.  Exit status is nonzero iff some case fails,
and 2 for a config or flag that is refused before any case runs: --jobs
outside 1..CPU count, a constant flag that is not positive, a flag the
subcommand does not take, a p that is composite or too large to certify
prime, a missing required key, a key the command does not read, a key given
as an empty list, m without l or l without m, a config file that is not
UTF-8, or an --out that cannot be made a directory (a file, or a path under
one).  A refused config creates no output directory.

Rationals cross this boundary only as integers or "num/den" strings;
decimal notation is rejected.
"""

from __future__ import annotations

import argparse
import csv
import functools
import importlib
import io
import itertools
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from .indices import as_fraction, furstenberg_index, marstrand_index
from .primefield import PRIME_LIMIT, _Record, is_prime


class ConfigError(ValueError):
    pass


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


class ExperimentConfig(_Record):
    """A parsed config; `constant` is the bound's constant, for construct and
    exceptional."""

    def __init__(self, command: str, params: dict, constant: Fraction | None = None, jobs: int = 1):
        self._set_fields(command, params, constant, jobs)


class RunReport(_Record):
    """The rows of a finished run; unhashable, as `rows` is a list."""

    def __init__(self, command: str, rows: list[dict], counterexample_csv: str, wall_ms: int):
        self._set_fields(command, rows, counterexample_csv, wall_ms)

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
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ConfigError(f"{key}: rationals must be num/den")
    try:
        return as_fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


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
    "n": _parse_int,
    "k": _parse_int,
    "m": _parse_int,
    "l": _parse_int,
    "p": _parse_prime,
}


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
        if key in _CHOICES:
            if value not in _CHOICES[key]:
                raise ConfigError(f"{key} must be one of {_CHOICES[key]}, got {value!r}")
            params[key] = value
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
    what, selector = _variant(command, params)
    if what is None:
        raise ConfigError(f"{command} requires key {selector!r}")
    _, module, _, sweep, optional = _KEYS[what]
    for key in params:
        if key not in sweep and key not in optional and key != selector:
            raise ConfigError(f"{what} does not read key {key!r}")
    for key in sweep:
        if key not in params and key not in optional:
            raise ConfigError(f"{command} requires key {key!r}")
    if ("m" in params) != ("l" in params):
        raise ConfigError("count requires both of the keys 'm' and 'l', or neither")
    importlib.import_module(f".{module}", __package__)
    return ExperimentConfig(command=command, params={**optional, **params},
                            constant=_CONSTANT_FLAGS.get(command, (None, None))[1])


def _eval_index(kind, s, n, k, t=None, a=None) -> dict:
    value = furstenberg_index(s, t, n, k) if kind == "furstenberg" else marstrand_index(a, s, n, k)
    return {"value": str(value), "status": "pass"}


def _eval_lemma(checker, lemma, step, **pair) -> dict:
    """Run the `lemmas` function named `checker` on k, or on n and k (`pair`),
    looked up per call, so a function rebound in `lemmas` is the one run."""
    from . import lemmas

    reports = getattr(lemmas, checker)(**pair, grid=lemmas.GridSpec(step))
    return {"violations": len(reports), "status": "fail" if reports else "pass", "_reports": reports}


def _eval_construct(s, t, n, k, p, constant) -> dict:
    from .furstenberg import construct_general, lower_bound_sanity, meets_upper_bound, verify_family

    fam = construct_general(s, t, n, k, p)
    valid = verify_family(fam).is_valid
    upper_ok = meets_upper_bound(fam, constant)
    lower_ok = lower_bound_sanity(fam)
    return {
        "branch": fam.branch,
        "members": len(fam.members),
        "size": len(fam.union),
        "exponent": str(furstenberg_index(s, t, n, k)),
        "upper_ok": upper_ok,
        "valid": valid,
        "lower_ok": lower_ok,
        "status": "pass" if (valid and upper_ok and lower_ok) else "fail",
    }


def _eval_exceptional(a, s, n, k, p, constant) -> dict:
    from .exceptional import certify_lower_bound, construct_marstrand_witness

    witness = construct_marstrand_witness(a, s, n, k, p)
    ok = certify_lower_bound(witness, constant)
    return {
        "type": witness.mtype,
        "branch": witness.branch,
        "set_size": len(witness.set_a),
        "claimed": len(witness.claimed),
        "certified": witness.certified_count,
        "exponent": str(marstrand_index(a, s, n, k)),
        "certified_ok": ok,
        "status": "pass" if ok else "fail",
    }


def _eval_count(kind, n, k, p, m=None, l=None) -> dict:
    """A row passes iff the enumeration equals the exact count; small_projection's
    `expected` prints the paper's p^e instead."""
    from .flags import (LinearSubspace, enumerate_affine, enumerate_linear, gaussian_binomial,
                        small_projection_count)
    from .projections import count_small_projection_subspaces

    if kind == "grassmannian":
        got = sum(1 for _ in enumerate_linear(n, k, p))
        expected = exact = gaussian_binomial(n, k, p)
    elif kind == "affine":
        got = sum(1 for _ in enumerate_affine(n, k, p))
        expected = exact = p ** (n - k) * gaussian_binomial(n, k, p)
    else:
        if not 0 <= m <= n:
            raise ValueError(f"need 0 <= m <= n, got m = {m} for n = {n}")
        W = LinearSubspace.coordinate(range(m), n, p)
        got = count_small_projection_subspaces(W, k, l)
        expected = p ** (k * (n - k) - (k - l) * (m - l))
        exact = small_projection_count(n, k, m, l, p)
    return {"enumerated": got, "expected": expected, "status": "pass" if got == exact else "fail"}


# Every variant a config can select, one row each: an `index` kind, a lemma,
# or an unsplit command.  A row names the command, the module whose import
# loads every name the evaluator reads, the evaluator (module-level, or
# `_eval_lemma` bound to the name of a lemma's checker, so --jobs can pickle
# it), the keys swept as a Cartesian product, in product order, and the
# optional keys with their defaults.  A swept key with no default is
# required.  `parse_config` imports the row's module, so a launch loads only
# what its command runs, and loads it before `run`.
_STEP = {"step": (Fraction(1, 4),)}
_lemma = functools.partial(functools.partial, _eval_lemma)  # _lemma(name) binds a checker
_KEYS = {
    "furstenberg": ("index", "indices", _eval_index, ("s", "t", "n", "k"), {}),
    "marstrand": ("index", "indices", _eval_index, ("a", "s", "n", "k"), {}),
    "recursion_f1": ("lemmas", "lemmas", _lemma("check_recursion_f1"), ("k", "step"), _STEP),
    "recursion_f2": ("lemmas", "lemmas", _lemma("check_recursion_f2"), ("pairs", "step"), _STEP),
    "recursion_m": ("lemmas", "lemmas", _lemma("check_recursion_m"), ("pairs", "step"), _STEP),
    "properties": ("lemmas", "lemmas", _lemma("check_index_properties"), ("pairs", "step"),
                   {"step": (Fraction(1, 12),)}),
    "construct": ("construct", "furstenberg", _eval_construct, ("s", "t", "n", "k", "p"), {}),
    "exceptional": ("exceptional", "exceptional", _eval_exceptional,
                    ("a", "s", "n", "k", "p"), {}),
    # projections imports flags; m and l sweep their own product within each (n, k, p)
    "count": ("count", "projections", _eval_count, ("n", "k", "p"), {"m": (), "l": ()}),
}
COMMANDS = tuple(dict.fromkeys(row[0] for row in _KEYS.values()))
# The key that selects the variant of a command split in two, and its default
# (None: the key is required); the variants each selector accepts.
_SELECTORS = {"index": ("kind", "furstenberg"), "lemmas": ("lemma", None)}
_CHOICES = {key: tuple(v for v, row in _KEYS.items() if row[0] == command)
            for command, (key, _) in _SELECTORS.items()}
# The constant flag of each command that takes one, and its default.
_CONSTANT_FLAGS = {
    "construct": ("--upper-constant", Fraction(16)),
    "exceptional": ("--lower-constant", Fraction(1, 25)),
}


def _variant(command: str, params: dict):
    """The `_KEYS` entry a config reads, and the key that selected it."""
    selector, default = _SELECTORS.get(command, (None, command))
    return params.get(selector, default), selector


def _evaluate(evaluator, columns, case: dict) -> dict:
    """One case as a row: its input columns, then the evaluator's output
    columns, or an `error: <message>` status if the case raises ValueError
    (DegenerateScaleError is one); every column left unset reads ""."""
    row = {c: str(case[c]) if isinstance(case[c], Fraction) else case[c]
           for c in columns if c in case}
    try:
        row.update(evaluator(**case))
    except ValueError as exc:
        row["status"] = f"error: {exc}"
    for c in columns:
        row.setdefault(c, "")
    return row


def _build_cases(config: ExperimentConfig):
    """The evaluator and, in row order, the cases of a parsed config; a case
    maps the evaluator's argument names to their values."""
    p = config.params
    what, selector = _variant(config.command, p)
    _, _, evaluator, keys, _ = _KEYS[what]
    fixed = {selector: what} if selector else {}
    if config.constant is not None:
        fixed["constant"] = config.constant
    cases = []
    for values in itertools.product(*(p[key] for key in keys)):
        case = {**fixed, **dict(zip(keys, values))}
        if "pairs" in case:
            case["n"], case["k"] = case.pop("pairs")
        if what != "count":
            cases.append(case)
            continue
        cases += [{"kind": "grassmannian", **case}, {"kind": "affine", **case}]
        cases += [{"kind": "small_projection", **case, "m": m, "l": l}
                  for m, l in itertools.product(p["m"], p["l"])]
    return evaluator, cases


def run(config: ExperimentConfig) -> RunReport:
    """Execute every case of the config; deterministic row order (case order),
    a case's ValueError surfaced as its row's status rather than fatally."""
    start = time.monotonic()
    evaluator, cases = _build_cases(config)
    evaluate = functools.partial(_evaluate, evaluator, CSV_COLUMNS[config.command])
    if config.jobs > 1 and len(cases) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: --jobs 1 loads no pool

        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            rows = list(pool.map(evaluate, cases))
    else:
        rows = [evaluate(case) for case in cases]
    reports, counterexample_csv = [], ""
    for row in rows:
        reports += row.pop("_reports", ())
    if config.command == "lemmas":
        from .lemmas import reports_to_csv

        counterexample_csv = reports_to_csv(reports)
    return RunReport(config.command, rows, counterexample_csv, int((time.monotonic() - start) * 1000))


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
        if name in _CONSTANT_FLAGS:
            flag, default = _CONSTANT_FLAGS[name]
            cmd.add_argument(flag, dest="constant", metavar="NUM/DEN",
                             help=f"positive rational, default {default}")
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
        overrides = {"jobs": args.jobs}
        if args.command in _CONSTANT_FLAGS and args.constant is not None:
            flag = _CONSTANT_FLAGS[args.command][0]
            constant = overrides["constant"] = _parse_rational(args.constant, flag)
            if constant <= 0:
                raise ConfigError(f"{flag} must be positive, got {constant}")
        config = config.replace(**overrides)
        if args.out:
            Path(args.out).mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = run(config)
    if args.out:
        write_report(report, args.out)
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
