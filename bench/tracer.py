"""Span tracing of hardlef's public functions, installed from outside.

`install()` wraps every public function and public method of the layer
modules.  `from .x import f` leaves copies of a function in other modules
(lefschetz holds full_complex, basic_complex, betti_numbers,
splitting_check and quotient_contact; catalog and cli hold validate_*), so
each original function object is replaced by identity wherever it is bound:
in every loaded hardlef module and in every class namespace.

Spans are kept in memory as [name, parent, start, end, extra] lists, parent
being the index of the enclosing span or -1, and are written out once, when
the operation has ended.  Private stages (names with a leading underscore)
are not wrapped.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("linalg", "cohomology", "model", "exterior", "structures",
          "lefschetz", "catalog", "report", "modelfile")

# Constructors are not public functions; this one is wrapped to count
# CohomologySpace builds (cohomology.space.builds).
EXTRA = {("cohomology", "CohomologySpace.__init__")}


def _shape(mat, ncols=0, **_):
    """(rows, cols, nonzeros) of a list-of-rows matrix given to rref."""
    rows = len(mat)
    cols = len(mat[0]) if rows else ncols
    nnz = sum(1 for row in mat for x in row if x)
    return rows, cols, nnz


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        shape = _shape if name == "linalg.rref" else None

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0,
                   shape(*args, **kwargs) if shape else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
        return functools.wraps(fn)(traced)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _targets(modules):
    """(span name, original function) for every function to wrap."""
    out = []
    for short in LAYERS:
        mod = modules[f"hardlef.{short}"]
        for attr, value in vars(mod).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value) and value.__module__ == mod.__name__:
                out.append((f"{short}.{attr}", value))
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                for m_attr, m_value in vars(value).items():
                    public = not m_attr.startswith("_")
                    if not public and (short, f"{attr}.{m_attr}") not in EXTRA:
                        continue
                    fn = (m_value.__func__
                          if isinstance(m_value, (classmethod, staticmethod))
                          else m_value)
                    if inspect.isfunction(fn):
                        out.append((f"{short}.{attr}.{m_attr}", fn))
    return out


def _rebind(namespace: dict, setter, wrapped: dict) -> int:
    count = 0
    for attr, value in list(namespace.items()):
        if isinstance(value, (classmethod, staticmethod)):
            inner = value.__func__
            if id(inner) in wrapped:
                setter(attr, type(value)(wrapped[id(inner)]))
                count += 1
        elif inspect.isfunction(value) and id(value) in wrapped:
            setter(attr, wrapped[id(value)])
            count += 1
    return count


def install(tracer: Tracer) -> int:
    """Wrap every target wherever it is bound; returns the bindings patched."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "hardlef" or name.startswith("hardlef.")}
    wrapped = {id(fn): tracer.wrap(name, fn)
               for name, fn in _targets(modules)}
    patched = 0
    for mod in modules.values():
        patched += _rebind(vars(mod),
                           functools.partial(setattr, mod), wrapped)
        for value in list(vars(mod).values()):
            if inspect.isclass(value) and value.__module__.startswith(
                    "hardlef"):
                patched += _rebind(dict(vars(value)),
                                   functools.partial(setattr, value), wrapped)
    return patched


def summarize(spans: list, window: list) -> dict:
    """Per span name: calls, inclusive seconds (outermost spans of that
    name only) and self seconds; plus rref shape totals and the seconds of
    the operation window covered by top-level spans."""
    stats: dict = {}
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[1] >= 0:
            child[rec[1]] += rec[3] - rec[2]
    covered = 0.0
    for i, (name, parent, start, end, extra) in enumerate(spans):
        dur = end - start
        s = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["self_s"] += dur - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            s["s"] += dur
        if parent < 0:
            covered += dur
        if extra is not None:
            rows, cols, nnz = extra
            size = max(rows, cols)
            bucket = "le16" if size <= 16 else "le64" if size <= 64 else "gt64"
            b = stats.setdefault(f"{name}.{bucket}",
                                 {"calls": 0, "s": 0.0, "self_s": 0.0})
            b["calls"] += 1
            b["s"] += dur
            b["self_s"] += dur - child[i]
            s["cells"] = s.get("cells", 0) + rows * cols
            s["nnz"] = s.get("nnz", 0) + nnz
    stats["trace"] = {"covered_s": covered, "window_s": window[1] - window[0]}
    return stats
