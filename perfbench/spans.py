"""Layer spans recorded from outside the library.

The traced run wraps the public functions of the library's modules where
they are looked up: in the defining module, in every module that re-bound
the name with ``from .x import y`` (``subgroups.hnf_from_generators``,
``subgroups.is_closed``, ...), and in the package namespace.  Each call
becomes one span (name, start, end, parent, query id); for a generator
function each ``next`` is one span, so the consumer's work between items
is not charged to the generator.  Spans stay in memory as flat arrays and
are written to disk, as one JSON file, only when the run ends.

A span's self time is its duration minus the part of its interval covered
by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

# Modules whose public functions are layer boundaries; the benchmark
# itself opens the ``cli`` span around ``cli.main``.
LAYER_MODULES = ("counting", "closure", "subgroups", "hnf", "zeta", "polyp", "paths", "bounds")
MODULES = LAYER_MODULES + ("cli",)

# Per-node helpers: wrapping them would multiply the span count several
# times over, and their time stays inside the calling span of the same
# module, so every module total is unchanged.
UNWRAPPED = {"hnf.solve_upper_triangular", "closure.var_name", "paths.area"}

# Work counters kept at span boundaries: span name -> (counter, measure of
# the returned value).
RESULT_COUNTERS = {
    "counting.count_by_diagonal": ("counting.accepted_g", int),
    "counting.count_subrings": ("counting.accepted_f", int),
    "closure.count_solutions": ("closure.solutions", int),
    "closure.extract_conditions": ("closure.conditions", lambda system: len(system.conditions)),
}
YIELD_COUNTERS = {"subgroups.iter_sublattices_containing": "subgroups.sublattices"}

# Per-unit costs: rate -> (self time, work counter), both of one round.
RATES = {
    "counting.us_per_accepted_g": ("counting.count_by_diagonal.self_s", "counting.accepted_g"),
    "counting.us_per_accepted_f": ("counting.count_subrings.self_s", "counting.accepted_f"),
    "closure.us_per_solution": ("closure.count_solutions.self_s", "closure.solutions"),
    "subgroups.us_per_sublattice": ("subgroups.iter_sublattices_containing.self_s",
                                    "subgroups.sublattices"),
}


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.counters: dict[str, int] = {}
        self.current_query = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.query.append(self.current_query)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def count(self, counter: str, k: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + k

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        hook = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                self.count(hook[0], hook[1](result))
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        counter = YIELD_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                if counter is not None:
                    self.count(counter, 1)
                yield item

        return traced

    def install(self, package: str = "subrings") -> int:
        """Wrap every public function of the layer modules wherever the
        package binds it; returns the number of bindings replaced."""
        wrappers = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"{package}.{short}"]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNWRAPPED
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                wrappers[id(obj)] = (obj, self.wrap(name, obj))
        replaced = 0
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    replaced += 1
        return replaced

    def self_times(self) -> list[float]:
        return self_times(self.start, self.end, self.parent)

    def dump(self, path: Path, meta: dict) -> None:
        """Write the spans to one JSON file: ``meta``, the name table, and
        one list per field, indexed by span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = {"name_id": self.name_id, "start": self.start, "end": self.end,
                  "parent": self.parent, "query": self.query}
        record = dict(meta, names=self.names, **{f: a.tolist() for f, a in fields.items()})
        path.write_text(json.dumps(record))


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for i, par in enumerate(parent):
        if par >= 0:
            children.setdefault(par, []).append((start[i], end[i]))
    out = []
    for i in range(len(start)):
        s, e = start[i], end[i]
        kids = [(max(a, s), min(b, e)) for a, b in children.get(i, ()) if b > s and a < e]
        out.append((e - s) - covered(kids))
    return out


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-function calls and self time, per-module self time and share of
    the traced wall, the work counters, the per-unit costs and the time no
    layer covers."""
    selfs = tracer.self_times()
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, nid in enumerate(tracer.name_id):
        name = tracer.names[nid]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
    out: dict[str, float] = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for module in MODULES:
        total = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == module)
        out[f"{module}.self_s"] = total
        out[f"{module}.share"] = total / wall_s if wall_s > 0 else 0.0
    out.update(tracer.counters)
    for rate, (time_key, count_key) in RATES.items():
        if out.get(count_key):
            out[rate] = out[time_key] / out[count_key] * 1e6
    top = [(tracer.start[i], tracer.end[i]) for i, par in enumerate(tracer.parent) if par < 0]
    out["harness.self_s"] = wall_s - covered(top)
    out["trace.spans"] = len(tracer.start)
    return out
