"""Spans around medlat's public functions, recorded from outside the library.

``Tracer.install`` replaces each listed function at every ``medlat.*``
module attribute that binds it, so calls made through ``from .poset import
open_sets`` are caught as well as calls through ``poset.open_sets``.
``disable`` puts the originals back and ``enable`` the wrappers again.
Spans stay in memory as ``[name, start, end, parent, op, count]`` and are
written out at the end.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded (every op runs with ``workers=1``), so
children never overlap and the self times of one op add up to its wall time.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# Public functions to wrap, by module, with the end-to-end metric each should
# move documented in perfbench/README.md.
TARGETS = {
    "kernels": ("first_fail", "imp_masks"),
    "poset": ("open_sets", "enumerate_posets", "canonical_form",
              "check_partial_order", "max_antichain_size", "load_poset"),
    "algebra": ("from_poset", "bn", "interval", "factor_by_principal_filter",
                "all_negations_meet_irreducible", "irreducibles", "is_isomorphic",
                "is_b_homomorphism", "plus_a_map"),
    "logic": ("parse", "compile_formula", "is_valid", "eval_formula",
              "countermodel_search", "kp_class_check"),
    "freedist": ("free_enumerate", "free_algebra", "iso_to_bn", "generator_negations"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)
OP_SPAN = "op"


def _first_fail_count(args, out):
    start, stop = args[8], args[9]
    return (out - start + 1) if out >= 0 else (stop - start)


# What each counted span adds to its own counter: a function of the call's
# positional arguments and its result.
COUNTERS = {
    "kernels.first_fail": _first_fail_count,
    "poset.open_sets": lambda args, out: len(out),
    "algebra.from_poset": lambda args, out: out.size,
    "logic.countermodel_search": lambda args, out: int(out.found),
    "cli.main": lambda args, out: out,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.op = None

    def _wrap(self, name, fn):
        spans, stack, count = self.spans, self._stack, COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    rec[5] = count(args, out)
                return out
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def install(self):
        """Find every binding of the targets and put the wrappers in place."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "medlat" or name.startswith("medlat."))]
        for mod, fns in TARGETS.items():
            owner = sys.modules[f"medlat.{mod}"]
            for fn in fns:
                orig = getattr(owner, fn)
                wrapper = self._wrap(f"{mod}.{fn}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patched.append((m, attr, orig, wrapper))
        self.enable()

    def enable(self):
        for m, attr, _, wrapper in self._patched:
            setattr(m, attr, wrapper)

    def disable(self):
        for m, attr, orig, _ in self._patched:
            setattr(m, attr, orig)

    def begin_op(self, op):
        """Open the root span of one op; library spans nest under it."""
        self.op = op
        self._stack.append(len(self.spans))
        self.spans.append([OP_SPAN, time.perf_counter(), 0.0, -1, op, None])

    def end_op(self) -> float:
        rec = self.spans[self._stack.pop()]
        rec[2] = time.perf_counter()
        self.op = None
        return rec[2] - rec[1]

    def self_times(self) -> list[float]:
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def op_self_sums(self) -> dict:
        """Per op: (sum of self times over its spans, its root span's duration)."""
        selfs = self.self_times()
        total = defaultdict(float)
        wall = {}
        for s, st in zip(self.spans, selfs):
            total[s[4]] += st
            if s[0] == OP_SPAN:
                wall[s[4]] = s[2] - s[1]
        return {op: (total[op], wall[op]) for op in wall}

    def layer_metrics(self) -> dict:
        """``<span>.calls`` and ``<span>.self_s`` for every wrapped function,
        plus the derived counters, as name -> (value, unit)."""
        selfs = self.self_times()
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        counts = defaultdict(int)
        exits = defaultdict(int)
        tried = 0
        for i, (s, st) in enumerate(zip(self.spans, selfs)):
            name = s[0]
            if name == OP_SPAN:
                continue
            calls[name] += 1
            self_s[name] += st
            if s[5] is not None:
                if name == "cli.main":
                    exits[s[5]] += 1
                else:
                    counts[name] += s[5]
            if name == "algebra.from_poset" and self._has_ancestor(i, "logic.countermodel_search"):
                tried += 1
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        vals = counts["kernels.first_fail"]
        ff_s = self_s["kernels.first_fail"]
        out["kernels.valuations"] = (vals, "count")
        out["kernels.valuations_per_s"] = (vals / ff_s if ff_s else 0.0, "1/s")
        out["algebra.elements_built"] = (counts["algebra.from_poset"], "count")
        out["poset.open_sets.sets_out"] = (counts["poset.open_sets"], "count")
        out["logic.search.algebras_tried"] = (tried, "count")
        hits = counts["logic.countermodel_search"]
        out["logic.search.hit_ratio"] = (hits / tried if tried else 0.0, "ratio")
        for code in (0, 1, 2):
            out[f"cli.exit.{code}"] = (exits[code], "count")
        return out

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def write(self, path):
        selfs = self.self_times()
        with gzip.open(path, "wt") as fh:
            for s, st in zip(self.spans, selfs):
                fh.write(json.dumps({"name": s[0], "start": s[1], "end": s[2],
                                     "parent": s[3], "op": s[4], "self_s": st,
                                     "count": s[5]}) + "\n")
