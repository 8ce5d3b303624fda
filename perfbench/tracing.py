"""Span tracing around satpoly's layer entry points, installed from outside.

The tracer replaces every attribute of a loaded satpoly module that refers
to a listed function with a wrapper that records a span (name, start, end,
parent span, task id).  Spans stay in memory until the run writes them out.
A span's self time is its duration minus the durations of its direct
children; spans nest strictly because the benchmark is single-threaded.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, Optional

# (module, function) pairs whose calls become spans
TRACED = [
    ("cli", "main"),
    ("relations", "parse_relation_file"),
    ("relations", "classify"),
    ("formulas", "parse_formula_file"),
    ("formulas", "eval_formula_poly"),
    ("formulas", "count_sat"),
    ("formulas", "poly_of_formula"),
    ("_bits", "table_var"),
    ("easy_eval", "easy_factor"),
    ("easy_eval", "evaluate_factored"),
    ("implement", "search_implementation"),
    ("implement", "check_perfect_faithful"),
    ("graphs", "parse_graph_file"),
    ("graphs", "incidence_transform"),
    ("graphs", "bipartize"),
    ("posets", "parse_poset_file"),
    ("posets", "antichain_poly"),
    ("reductions", "parse_matrix_file"),
    ("reductions", "emit_instance"),
    ("reductions", "eliminate_zero_weights"),
    ("reductions", "simulate_neg_weights"),
    ("reductions", "count_vertex_covers"),
    ("reductions", "format_instance_file"),
]

# counters derived from a traced call's result: metric suffix -> result -> amount
RESULT_COUNTERS: dict[str, tuple[str, Callable]] = {
    "easy_eval.easy_factor": ("components", lambda fp: len(fp.components)),
    "implement.search_implementation": ("found", lambda res: int(type(res).__name__ == "Implementation")),
    "reductions.count_vertex_covers": ("result_bits", lambda n: n.bit_length()),
}


def metric_prefix(module: str, fn: str) -> str:
    """Metric names start with a letter, so `_bits` is reported as `bits`."""
    return f"{module.lstrip('_')}.{fn}"


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its direct children's durations.

    spans is a list of (name, start, end, parent_index, task) with parent
    index -1 for a root; a child always follows its parent.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


class Tracer:
    """Records spans for the TRACED functions of the loaded satpoly modules."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, task id]
        self.counters: dict[str, int] = {}
        self.task = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.originals: dict[str, Callable] = {}

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters
        counter = RESULT_COUNTERS.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task]
            spans.append(span)
            stack.append(index)
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if counter is not None:
                key = f"{name}.{counter[0]}"
                counters[key] = counters.get(key, 0) + counter[1](result)
            return result

        return wrapper

    def install(self) -> None:
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "satpoly" or name.startswith("satpoly."))
        }
        targets = {}
        for module, fn in TRACED:
            original = getattr(modules[f"satpoly.{module}"], fn)
            name = metric_prefix(module, fn)
            self.originals[name] = original
            targets[id(original)] = self._wrap(name, original)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer calls, self time and the derived counters, by metric name."""
        calls = {metric_prefix(m, f): 0 for m, f in TRACED}
        own = {name: 0.0 for name in calls}
        for span, self_s in zip(self.spans, self_times(self.spans)):
            calls[span[0]] += 1
            own[span[0]] += self_s
        out: dict[str, tuple[float, str]] = {}
        for name in calls:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (own[name], "s")
        out["bits.table_var.misses"] = (self.originals["bits.table_var"].cache_info().misses, "count")
        out["easy_eval.easy_factor.components"] = (
            self.counters.get("easy_eval.easy_factor.components", 0), "count")
        searches = calls["implement.search_implementation"]
        found = self.counters.get("implement.search_implementation.found", 0)
        out["implement.search_implementation.found_ratio"] = (
            found / searches if searches else 0.0, "ratio")
        out["reductions.count_vertex_covers.result_bits"] = (
            self.counters.get("reductions.count_vertex_covers.result_bits", 0), "bits")
        return out

    def write(self, path: str, meta: Optional[dict] = None) -> None:
        """Write the spans as JSON lines (a header line with meta first)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta or {}}) + "\n")
            for i, (span, self_s) in enumerate(zip(self.spans, self_times(self.spans))):
                name, start, end, parent, task = span
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "task": task, "self_s": self_s}) + "\n")


def clear_caches() -> int:
    """Empty every functools cache held by a loaded satpoly module; return how many."""
    seen = set()
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "satpoly" or name.startswith("satpoly.")):
            continue
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)) and id(value) not in seen:
                seen.add(id(value))
                value.cache_clear()
    return len(seen)
