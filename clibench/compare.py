#!/usr/bin/env python3
"""Compare the metric medians of two benchmark records (.clibench/records/).

Usage: python3 clibench/compare.py BASE.json CHANGE.json

Refuses, with exit status 2, to compare records of different workloads or
trace modes, or records whose kernel backends differ: the compiled and the
pure-Python kernel differ by about 20x, so such a comparison would measure
the build, not the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = (json.loads(Path(p).read_text()) for p in argv[1:])
    for key in ("workload", "trace"):
        if base[key] != change[key]:
            print(f"refused: {key} differs ({base[key]!r} vs {change[key]!r})", file=sys.stderr)
            return 2
    if base["env"]["backend"] != change["env"]["backend"]:
        print(f"refused: kernel backend differs ({base['env']['backend']!r} vs "
              f"{change['env']['backend']!r})", file=sys.stderr)
        return 2
    print(f"{'metric':55s} {'base':>12s} {'change':>12s} {'change/base':>12s}")
    for name, old in base["metrics"].items():
        new = change["metrics"].get(name)
        if new is None:
            continue
        ratio = new["median"] / old["median"] if old["median"] else float("nan")
        print(f"{name:55s} {old['median']:12.6g} {new['median']:12.6g} {ratio:12.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
