"""Spans around the library's public functions, kept in memory.

`install()` replaces every binding of each traced function across the
loaded `ctrlgraph.*` modules with a wrapper that records one span per call:
(function, parent span, start ns, end ns).  Bindings made by
`from .matrices import int_rank` are separate names for the same object,
so they are found by identity and wrapped too.  Spans stay in memory until
`write()`; `summary()` turns them into per-function call counts and self
time (span duration minus the time its child spans cover).

Only the process that installed the tracer records.  A forked pool worker
inherits the wrappers but records nothing, so a traced pool census shows
the parent-side spans only.
"""

from __future__ import annotations

import functools
import os
import sys
import time

TRACED = {
    "matrices": (
        "inverse",
        "int_det",
        "char_poly",
        "adjugate_samples",
        "bilinear_numerator_fractions",
        "int_rank",
    ),
    "control": (
        "walk_columns",
        "walk_matrix_rank",
        "full_report",
        "is_controllable_poles",
        "numerator_coeffs",
        "vertex_deleted_char_polys",
    ),
    "polys": ("poly_gcd", "poly_squarefree", "interpolate_fractions"),
    "irreducible": ("is_irreducible",),
    "census": ("analyze_line", "run_census", "rows_to_csv"),
    "graphs": ("parse_graph6", "covering_radius"),
}

# lru_cache-wrapped functions whose cache_info() gives a hit ratio.
CACHED = (("control", "graph_char_poly"), ("control", "vertex_deleted_char_polys"))


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.bindings = 0
        self.caches = {}
        self._stack = [-1]
        self._pid = os.getpid()

    def _wrap(self, fn, name: str):
        index = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        pid = self._pid

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            span = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span] = (index, parent, start, end)

        return traced

    def install(self) -> "Tracer":
        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == "ctrlgraph" or name.startswith("ctrlgraph.")
        ]
        for mod, fn in CACHED:
            self.caches[f"{mod}.{fn}"] = getattr(sys.modules[f"ctrlgraph.{mod}"], fn)
        for mod, fns in TRACED.items():
            owner = sys.modules[f"ctrlgraph.{mod}"]
            for fn in fns:
                original = getattr(owner, fn)
                wrapper = self._wrap(original, f"{mod}.{fn}")
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self.bindings += 1
        return self

    def summary(self) -> dict:
        """Per traced function: calls and self seconds; per cache: hit ratio."""
        child_ns = [0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = dict.fromkeys(self.names, 0)
        self_ns = dict.fromkeys(self.names, 0)
        for span, (index, _, start, end) in enumerate(self.spans):
            name = self.names[index]
            calls[name] += 1
            self_ns[name] += end - start - child_ns[span]
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        for name, fn in self.caches.items():
            info = fn.cache_info()
            lookups = info.hits + info.misses
            out[f"{name}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,parent,name,start_ns,end_ns\n")
            for span, (index, parent, start, end) in enumerate(self.spans):
                fh.write(f"{span},{parent},{self.names[index]},{start},{end}\n")
