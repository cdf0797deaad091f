"""Outside-in tracing of the fpfurst layers.

The tracer replaces public functions of the package's modules with wrappers
that open a span per call, so nothing under `src/` changes.  Spans nest on a
single stack (the CLI is single-threaded under `--jobs 1`), which makes a
span's self time its duration minus the durations of its direct children.

Spans are aggregated as they close, per name: calls, inclusive busy time
(counted only at the outermost span of a name, so recursion or nesting of the
same name is not counted twice), self time, and work counters.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = (
    "primefield", "flags", "projections", "_kernel", "indices",
    "lemmas", "furstenberg", "exceptional", "cli",
)

# Methods traced besides module-level functions, and names that merge several
# callables into one span (their metrics read as one operation).
METHODS = {
    "primefield": {"PrimeMatrix": {"to_rows": "to_rows", "__init__": "new"}},
    "flags": {
        "AffineFlat": {"contains_point": "contains_point", "points": None},
        "LinearSubspace": {"points": None},
    },
    "projections": {"PointSet": {"flat": "flat", "__init__": "new"}},
    "lemmas": {"GridSpec": {"values": "values"}},
}
MERGED = {
    "flags.LinearSubspace.points": "flags.points",
    "flags.AffineFlat.points": "flags.points",
    "indices.compare_count_to_power": "indices.compare",
    "indices.compare_to_scaled_power": "indices.compare",
    "exceptional.construct_oberlin_rectangle": "exceptional.construct",
    "exceptional.construct_marstrand_witness": "exceptional.construct",
    "furstenberg.meets_upper_bound": "furstenberg.bounds",
    "furstenberg.lower_bound_sanity": "furstenberg.bounds",
}


def layer_of(name: str) -> str:
    """Metric prefix of a span; `_kernel` is spelled `kernel` because metric
    names must start with a letter."""
    head = name.split(".", 1)[0]
    return "kernel" if head == "_kernel" else head


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.calls = defaultdict(int)
        self.busy_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counters = defaultdict(int)
        self.exceptional_spans = []  # (n, k, p, kernel calls directly under it)
        self.packed = set()
        self._stack = []  # [name, start, child_ns, direct kernel calls]
        self._depth = defaultdict(int)

    # -- spans ---------------------------------------------------------------
    def enter(self, name: str, call: bool = True):
        if call:
            self.calls[name] += 1
            if name == "_kernel.project_count_flat" and self._stack:
                self._stack[-1][3] += 1
        self._depth[name] += 1
        self._stack.append([name, self.clock(), 0, 0])

    def exit(self) -> list:
        frame = self._stack.pop()
        name, start = frame[0], frame[1]
        duration = self.clock() - start
        self.self_ns[name] += duration - frame[2]
        self._depth[name] -= 1
        if not self._depth[name]:
            self.busy_ns[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        return frame

    def outermost(self, name: str) -> bool:
        return not self._depth[name]

    def count(self, key: str, value: int = 1):
        self.counters[key] += value

    # -- wrapping ------------------------------------------------------------
    def wrap(self, fn, name: str, measure=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                frame = tracer.exit()
            if measure is not None and tracer.outermost(name):
                measure(tracer, frame, result, *args, **kwargs)
            return result

        return wrapper

    def _wrap_generator(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            return tracer._resume_spans(fn(*args, **kwargs), name)

        return wrapper

    def _resume_spans(self, gen, name):
        """Each resumption of the generator is a span of `name`."""
        while True:
            self.enter(name, call=False)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.exit()
            self.counters[f"{name}.yielded"] += 1
            yield item

    def install(self):
        """Wrap every public function of each layer and rebind it wherever
        the package bound it, including names copied by `from x import y`."""
        modules = {m: importlib.import_module(f"fpfurst.{m}") for m in LAYERS}
        replaced = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = MERGED.get(f"{short}.{attr}", f"{short}.{attr}")
                replaced[id(obj)] = self.wrap(obj, name, MEASURES.get(name))
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth, label in methods.items():
                    full = f"{short}.{cls_name}.{meth}"
                    name = MERGED.get(full, f"{short}.{cls_name}.{label}")
                    setattr(cls, meth, self.wrap(vars(cls)[meth], name, MEASURES.get(name)))
        package = [m for key, m in sys.modules.items() if key == "fpfurst" or key.startswith("fpfurst.")]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    # -- results -------------------------------------------------------------
    def snapshot(self) -> dict:
        lemmas = sys.modules["fpfurst.lemmas"]
        cache = [lemmas._findex.cache_info(), lemmas._mindex.cache_info()]
        layer_self = defaultdict(int)
        for name, ns in self.self_ns.items():
            layer_self[layer_of(name)] += ns
        return {
            "calls": dict(self.calls),
            "busy_s": {k: v / 1e9 for k, v in self.busy_ns.items()},
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "layer_self_s": {k: v / 1e9 for k, v in layer_self.items()},
            "counters": dict(self.counters),
            "distinct_packed": len(self.packed),
            "index_cache": {
                "hits": sum(c.hits for c in cache),
                "misses": sum(c.misses for c in cache),
            },
            "exceptional_spans": self.exceptional_spans,
        }


# -- work counters, recorded when the outermost span of a name closes ---------
def _kernel_work(t, frame, result, pts, npts, n, basis, kdim, pivots, p):
    t.count("_kernel.points", npts)
    t.count("_kernel.ops", npts * kdim * n)  # multiply-adds of the reduction
    t.count("_kernel.bytes_in", 8 * (npts * n + kdim * n + kdim))  # int64 inputs


def _projection_count(t, frame, result, A, V):
    t.count("projections.projection_count.points", len(A))


def _exceptional_set(t, frame, result, A, q):
    t.count("projections.exceptional_set.points", len(A))
    t.count("projections.exceptional_set.directions", frame[3])
    t.count("projections.exceptional_set.hits", len(result))
    t.exceptional_spans.append((A.n, q.k, A.p, frame[3]))


def _small_projection(t, frame, result, W, k, l):
    t.count("projections.count_small_projection_subspaces.points", W.p**W.k)


def _flat(t, frame, result, self):
    t.count("projections.PointSet.flat.points", len(self))
    t.packed.add((self.n, self.p, hash(self.points)))


def _pointset_new(t, frame, result, self, n, p, points):
    t.count("projections.PointSet.new.points", len(points))


def _flags_points(t, frame, result, self):
    t.count("flags.points.points", len(result))


def _family(t, frame, fam, s, tt, n, k, p):
    t.count("furstenberg.members", len(fam.members))
    t.count("furstenberg.marked_points", sum(len(ys) for _, ys in fam.members))


def _witness(t, frame, w, *args):
    t.count("exceptional.claimed", len(w.claimed))
    t.count("exceptional.certified", w.certified_count)


def _reports(t, frame, reports, *args, **kwargs):
    t.count("lemmas.reports", len(reports))


MEASURES = {
    "_kernel.project_count_flat": _kernel_work,
    "projections.projection_count": _projection_count,
    "projections.exceptional_set": _exceptional_set,
    "projections.count_small_projection_subspaces": _small_projection,
    "projections.PointSet.flat": _flat,
    "projections.PointSet.new": _pointset_new,
    "flags.points": _flags_points,
    "furstenberg.construct_general": _family,
    "exceptional.construct": _witness,
    "lemmas.check_recursion_f1": _reports,
    "lemmas.check_recursion_f2": _reports,
    "lemmas.check_recursion_m": _reports,
    "lemmas.check_index_properties": _reports,
}
