"""Benchmark-side tracing: spans around each layer's public entry points.

The traced run patches the entry points listed in :data:`LAYERS` with
thin wrappers that open a span (name, start, end, parent) on a
thread-local stack; the spans stay in memory and are written out when
the run ends.  The program's own tracing stays off: nothing here goes
through :mod:`repro.obs`.

A span's *self time* is its duration minus the part of it that its
child spans cover.  The benchmark wraps each operation it issues in a
root span named ``op:<kind>``; the self time of those roots is time no
layer accounts for (*unattributed*).  Self times of all spans add up to
the summed duration of the root spans (the *traced total*).  Layer
calls outside any ``op:*`` span are not recorded.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: Span-name prefix of the benchmark's own per-operation root spans.
OP_PREFIX = "op:"

#: layer -> [(module, class, attribute)] entry points wrapped when tracing.
LAYERS: dict[str, list[tuple[str, str, str]]] = {
    "wrappers": [
        ("repro.wrappers.bibtex", "BibTexWrapper", "wrap"),
        ("repro.wrappers.relational", "RelationalWrapper", "wrap_tables"),
        ("repro.wrappers.structured_file", "StructuredFileWrapper", "wrap"),
        ("repro.wrappers.html_wrapper", "HtmlWrapper", "wrap_pages"),
    ],
    "mediator": [("repro.mediator.mediator", "Mediator", "warehouse")],
    "repository.stats": [
        ("repro.repository.stats", "GraphStatistics", "gather")],
    "repository.indexes": [
        ("repro.repository.indexes", "GraphIndex", "build")],
    "struql.optimizer": [
        ("repro.struql.optimizer.cost", "CostBasedOptimizer", "order"),
        ("repro.struql.optimizer.heuristic", "HeuristicOptimizer", "order"),
        ("repro.struql.optimizer.heuristic", "NaiveOptimizer", "order"),
    ],
    "struql.plan": [("repro.struql.plan", "Plan", "execute")],
    "struql.evaluator": [
        ("repro.struql.evaluator", "QueryEngine", "evaluate")],
    "templates.generator": [
        ("repro.templates.generator", "HtmlGenerator", "render")],
    "site.buildcache": [
        ("repro.site.buildcache", "BuildCache", "plan"),
        ("repro.site.buildcache", "BuildCache", "record"),
    ],
    "site.incremental": [
        ("repro.site.incremental", "DynamicSite", "get_page")],
    "struql.matview": [
        ("repro.struql.matview", "MatViewRegistry", "get_or_compute")],
    "site.server": [
        ("repro.site.server", "DynamicSiteServer", "request"),
        ("repro.site.server", "DynamicSiteServer", "resolve_path"),
        ("repro.site.server", "DynamicSiteServer", "update"),
    ],
}

# Span record fields (lists, not objects: a traced crawl makes ~10^5).
NAME, START, END, PARENT, THREAD = range(5)


class SpanRecorder:
    """In-memory spans with a per-thread stack of open ones."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def inside(self) -> bool:
        """Whether this thread has a span open (an operation is timed)."""
        return bool(getattr(self._local, "stack", None))

    def root(self) -> str | None:
        """Name of this thread's outermost open span (its operation)."""
        stack = getattr(self._local, "stack", None)
        return self.spans[stack[0]][NAME] if stack else None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        record = [name, time.perf_counter(), None,
                  stack[-1] if stack else -1, threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def dump(self, path: str) -> None:
        """Write every span as ``[name, start, end, parent, thread]``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "thread"],
                       "spans": self.spans}, handle)


def _on_plan_rows(recorder: SpanRecorder, rows) -> None:
    recorder.count("struql.plan.rows_out", len(rows))


def _on_build_plan(recorder: SpanRecorder, plan) -> None:
    # Cached rebuilds only: a cold build skips nothing by construction.
    if recorder.root() != OP_PREFIX + "rebuild":
        return
    recorder.count("site.buildcache.pages_rendered", len(plan.render))
    recorder.count("site.buildcache.pages_skipped", len(plan.skipped))


#: (class, attribute) -> hook(recorder, result) run after a traced call.
RESULT_HOOKS = {
    ("Plan", "execute"): _on_plan_rows,
    ("BuildCache", "plan"): _on_build_plan,
}


def _traced(fn, name: str, recorder: SpanRecorder, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.inside():   # preparation or checks, not an op
            return fn(*args, **kwargs)
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if hook is not None:
            hook(recorder, result)
        return result
    return traced


@contextmanager
def tracing(recorder: SpanRecorder, layers=LAYERS):
    """Wrap every entry point in ``layers`` for the duration of the block.

    Class attributes are patched and restored, so objects created
    before or inside the block are traced alike while it is open.  A
    wrapped call records a span only inside an open span, so the
    benchmark's input preparation and correctness checks stay out of
    the trace.
    """
    undo: list[tuple[type, str, object]] = []
    try:
        for layer, entries in layers.items():
            for module_name, class_name, attr in entries:
                cls = getattr(importlib.import_module(module_name),
                              class_name)
                raw = cls.__dict__[attr]
                hook = RESULT_HOOKS.get((class_name, attr))
                name = f"{layer}:{class_name}.{attr}"
                if isinstance(raw, classmethod):
                    patched = classmethod(
                        _traced(raw.__func__, name, recorder, hook))
                else:
                    patched = _traced(raw, name, recorder, hook)
                undo.append((cls, attr, raw))
                setattr(cls, attr, patched)
        yield recorder
    finally:
        for cls, attr, raw in reversed(undo):
            setattr(cls, attr, raw)


def layer_of(name: str) -> str:
    """``"repository.stats:GraphStatistics.gather"`` -> its layer."""
    if name.startswith(OP_PREFIX):
        return "unattributed"
    return name.split(":", 1)[0]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span)."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for lo, hi in sorted((max(spans[k][START], start),
                              min(spans[k][END], end))
                             for k in children.get(index, ())):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_table(spans: list[list]) -> dict:
    """Per-layer calls and self seconds, plus the traced total.

    ``unattributed`` collects the self time of the benchmark's own
    ``op:*`` roots.  ``traced_total_s`` sums the root spans' durations;
    ``accounted_s`` sums every self time and equals it up to rounding.
    """
    open_spans = [s for s in spans if s[END] is None]
    if open_spans:
        raise ValueError(f"{len(open_spans)} spans never closed")
    selfs = self_times(spans)
    layers: dict[str, dict] = {
        layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    layers["unattributed"] = {"calls": 0, "self_s": 0.0}
    for span, self_s in zip(spans, selfs):
        row = layers.setdefault(layer_of(span[NAME]),
                                {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += self_s
    total = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    return {"layers": layers, "traced_total_s": total,
            "accounted_s": sum(selfs)}


def format_layer_table(table: dict) -> str:
    """The per-layer table as aligned text (largest self time first)."""
    total = table["traced_total_s"] or 1.0
    rows = sorted(table["layers"].items(),
                  key=lambda kv: kv[1]["self_s"], reverse=True)
    lines = [f"{'layer':<22}{'calls':>10}{'self_s':>12}{'share':>9}"]
    for layer, row in rows:
        lines.append(f"{layer:<22}{row['calls']:>10}"
                     f"{row['self_s']:>12.4f}"
                     f"{100 * row['self_s'] / total:>8.1f}%")
    lines.append(f"{'traced total':<22}{'':>10}"
                 f"{table['traced_total_s']:>12.4f}{100.0:>8.1f}%")
    return "\n".join(lines)
