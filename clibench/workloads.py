"""The four fixed CLI workloads and the configs a seed draws from them.

A workload is a list of launches; each launch is one cold `fpfurst` CLI
process given one JSON config.  The seed only permutes list orders and the
launch order, and picks a few cheap instances from pools whose members share
a branch and cost, so every seed does nearly the same work while the program
never sees the same bytes twice.  The instances that dominate a workload's
time are fixed.

Why each workload exists (which layer it stresses, which it bypasses):

  witness-certify  `exceptional`: projection-heavy.  The type-3 rectangle at
                   p=7 projects subspaces in `_theta_families`, the type-4
                   witness sweeps a 343-point block over 2,850 directions in
                   `exceptional_set`; the kernel and `PointSet.flat` dominate.
  construct-verify `construct`: family construction plus `verify_family`;
                   exercises `flags`, `primefield` and `PointSet`
                   validation, never the kernel, and has the largest memory.
  count-enumerate  `count`: Grassmannian/flat enumeration plus about 18k
                   small kernel blocks, the small-block side of the kernel.
  lemma-sweep      `lemmas` + `index`: pure `Fraction` arithmetic in
                   `lemmas` and `indices` over five launches; no kernel or
                   `flags` calls, the most sensitive measure of set-up time.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

WORKLOADS = ("witness-certify", "construct-verify", "count-enumerate", "lemma-sweep")
DEFAULT_SEED = 0

# The CLI sweeps list-valued keys as a Cartesian product in this key order
# (see fpfurst.cli._build_cases); `count` appends its (m, l) product per case.
PRODUCT_KEYS = {
    "exceptional": ("a", "s", "n", "k", "p"),
    "construct": ("s", "t", "n", "k", "p"),
    "count": ("n", "k", "p"),
    "index": ("a", "s", "n", "k"),
}

_INDEX_A = ["1/4", "1/3", "1/2", "2/3", "3/4", "1", "4/3", "3/2", "2", "5/2", "8/3", "3"]
_INDEX_S = ["1/6", "1/4", "1/3", "1/2", "2/3", "3/4", "1", "4/3", "3/2", "2"]


@dataclass(frozen=True)
class Launch:
    """One CLI process: a subcommand and its config keys (lists sweep)."""

    command: str
    params: tuple[tuple[str, object], ...]

    def config(self) -> dict:
        return {"command": self.command, **dict(self.params)}

    def csv_names(self) -> tuple[str, ...]:
        if self.command == "lemmas":
            return ("lemmas.csv", "counterexamples.csv")
        return (f"{self.command}.csv",)

    def row_keys(self) -> list[str]:
        """The input columns of each CSV row, in the CLI's row order."""
        cfg = dict(self.params)
        if self.command == "lemmas":
            lemma, step = cfg["lemma"], cfg["step"]
            if lemma == "recursion_f1":
                return [f"{lemma},,{k},{step}" for k in cfg["k"]]
            return [f"{lemma},{n},{k},{step}" for n, k in cfg["pairs"]]
        sweep = itertools.product(*(_as_list(cfg[key]) for key in PRODUCT_KEYS[self.command]))
        if self.command == "index":
            return [f"marstrand,{s},,{a},{n},{k}" for a, s, n, k in sweep]
        if self.command != "count":
            return [",".join(map(str, case)) for case in sweep]
        keys = []
        for n, k, p in sweep:
            keys += [f"grassmannian,{n},{k},,,{p}", f"affine,{n},{k},,,{p}"]
            keys += [
                f"small_projection,{n},{k},{m},{l},{p}"
                for m, l in itertools.product(_as_list(cfg.get("m", [])), _as_list(cfg.get("l", [])))
            ]
        return keys


def _as_list(value) -> list:
    return list(value) if isinstance(value, list) else [value]


def _launch(command: str, **params) -> Launch:
    return Launch(command, tuple(params.items()))


def launches(workload: str, seed: int) -> list[Launch]:
    """The workload's launches for this seed; equal seeds give equal configs."""
    rng = random.Random(f"{workload}:{seed}")

    def shuffled(values):
        values = list(values)
        rng.shuffle(values)
        return values

    if workload == "witness-certify":
        out = [
            _launch("exceptional", a="3/2", s="3/2", n=4, k=2, p=7),
            _launch("exceptional", a="3", s=rng.choice(["1", "3/4", "1/2"]), n=4, k=2, p=7),
            _launch(
                "exceptional", a=shuffled(["3/2", "1"]), s=shuffled(["1", "3/4"]), n=2, k=1,
                p=shuffled([rng.choice([37, 41, 43, 47]), rng.choice([97, 101, 103, 107])]),
            ),
        ]
    elif workload == "construct-verify":
        out = [
            _launch("construct", s=shuffled(["1/2", "1"]), t="2", n=2, k=1, p=61),
            _launch(
                "construct", s=shuffled(["0", "1/2"]), t=shuffled(["1/2", "1", "3/2"]),
                n=2, k=1, p=rng.choice([97, 101, 103]),
            ),
            _launch("construct", s="1", t="3", n=3, k=1, p=shuffled([11, 13])),
            _launch("construct", s="2", t="3", n=3, k=2, p=11),
            _launch("construct", s="3/2", t="1", n=4, k=3, p=rng.choice([11, 13, 17])),
        ]
    elif workload == "count-enumerate":
        out = [
            _launch("count", n=4, k=shuffled([1, 2, 3]), p=shuffled([5, 7]), m=shuffled([1, 2]), l=1),
            _launch("count", n=4, k=2, p=7, m=2, l=shuffled([0, 1, 2])),
            _launch("count", n=5, k=shuffled([2, 3]), p=3),
        ]
    elif workload == "lemma-sweep":
        pairs = [[4, 2], [5, 3]]
        out = [
            _launch("lemmas", lemma="recursion_f1", k=shuffled([2, 3]), step="1/6"),
            _launch("lemmas", lemma="recursion_f2", pairs=shuffled(pairs), step="1/6"),
            _launch("lemmas", lemma="recursion_m", pairs=shuffled(pairs), step="1/6"),
            _launch(
                "lemmas", lemma="properties",
                pairs=shuffled([[2, 1], [3, 1], [3, 2], [4, 2], [4, 3]]), step="1/6",
            ),
            _launch(
                "index", kind="marstrand", a=rng.sample(_INDEX_A, 8), s=rng.sample(_INDEX_S, 6),
                n=shuffled([3, 4, 5]), k=shuffled([1, 2]),
            ),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return shuffled(out)

