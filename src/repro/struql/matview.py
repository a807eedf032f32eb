"""Materialized StruQL views with footprint-based invalidation.

A site is a *declared query* over the data graph, so every derived
result is re-computable and therefore cacheable.  A
:class:`MatViewRegistry` stores computed values keyed by ``(kind,
key)``; each entry carries its source ids and the collection/label read
footprint (:class:`repro.struql.analysis.Footprint`) of the query that
produced it.  Callers describe a data change as a
:class:`ChangeSummary`, and :meth:`MatViewRegistry.invalidate` drops
only the entries whose footprint intersects it (entries without a
footprint always drop — the sound default).

A dynamic site keeps its whole click-time memo [FER 98c] in one
registry: ``rows`` (a unit's bindings for one page's Skolem arguments),
``page`` (a page's computed view) and ``body`` (a rendered page; the
default kind, also used for query results by :func:`materialize_query`).

Concurrent misses on one key compute once (single-flight).  Every
invalidation bumps a generation; a computation that straddles one
returns its value to its caller but is not stored, so no request issued
after ``invalidate()`` returns is served a pre-change view.
"""

from __future__ import annotations

import functools
import threading
import time
import weakref
from collections import Counter, OrderedDict, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Optional

from repro.obs.trace import get_recorder
from repro.struql.analysis import Footprint, query_footprint
from repro.obs.queries import fingerprint as query_fingerprint

#: Default LRU bound on stored views per registry.
DEFAULT_MAX_VIEWS = 4096

#: The kind of entry stored when the caller names none.
DEFAULT_KIND = "body"

#: Per-kind counters; :attr:`MatViewRegistry.stats` holds the default
#: kind's.
_COUNTERS = ("hits", "misses", "invalidations", "views_dropped",
             "singleflight_waits", "evictions", "stale_discards")

#: Metric-name prefix per kind (the click-time kinds keep the names
#: their caches had); any other kind counts under ``matview.``.
_METRIC_PREFIX = {"page": "site.page_cache_", "rows": "site.bindings_cache_"}


@functools.lru_cache(maxsize=None)
def _metric_name(kind: str, counter: str) -> str:
    return _METRIC_PREFIX.get(kind, "matview.") + counter


def _count_metric(kind: str, counter: str, amount: int = 1) -> None:
    get_recorder().metrics.counter(_metric_name(kind, counter)).inc(amount)


@dataclass(frozen=True)
class ChangeSummary:
    """What a data mutation touched, as seen by view invalidation.

    ``labels`` are the edge labels added or modified, ``collections``
    the collection names whose membership changed, ``sources`` the
    source/graph ids affected.  ``full=True`` (or an empty summary via
    :meth:`ChangeSummary.full_change`) means "assume everything
    changed" — every view is dropped.
    """

    labels: frozenset[str] = frozenset()
    collections: frozenset[str] = frozenset()
    sources: frozenset[str] = frozenset()
    full: bool = False

    @classmethod
    def for_labels(cls, *labels: str) -> "ChangeSummary":
        return cls(labels=frozenset(labels))

    @classmethod
    def for_collections(cls, *names: str) -> "ChangeSummary":
        return cls(collections=frozenset(names))

    @classmethod
    def for_sources(cls, *sources: str) -> "ChangeSummary":
        return cls(sources=frozenset(sources))

    @classmethod
    def full_change(cls) -> "ChangeSummary":
        return cls(full=True)

    def union(self, other: "ChangeSummary") -> "ChangeSummary":
        return ChangeSummary(
            labels=self.labels | other.labels,
            collections=self.collections | other.collections,
            sources=self.sources | other.sources,
            full=self.full or other.full)


@dataclass(slots=True)
class MaterializedView:
    """One stored view: the value, its dependency summary and the
    registry generation it was computed at."""

    kind: str
    key: Hashable
    value: object
    generation: int = 0
    footprint: Optional[Footprint] = None
    sources: frozenset[str] = frozenset()
    fingerprint: str = ""
    compute_seconds: float = 0.0
    created_at: float = field(default_factory=time.time)
    hits: int = 0

    def depends_on(self, change: Optional[ChangeSummary]) -> bool:
        """Whether ``change`` may affect this view (conservative)."""
        if change is None or getattr(change, "full", False):
            return True
        if self.footprint is None:
            # Unknown dependencies: the only sound answer is "drop".
            return True
        sources = getattr(change, "sources", frozenset())
        if sources and (self.sources & sources):
            return True
        return self.footprint.intersects(change)

    def summary(self) -> dict:
        return {
            "kind": self.kind,
            "key": str(self.key),
            "fingerprint": self.fingerprint,
            "footprint": (self.footprint.as_dict()
                          if self.footprint is not None else None),
            "sources": sorted(self.sources),
            "generation": self.generation,
            "hits": self.hits,
            "compute_seconds": round(self.compute_seconds, 6),
            "age_seconds": round(time.time() - self.created_at, 3),
        }


class _Flight(threading.Event):
    """An in-flight computation, and the generation it started at."""

    def __init__(self, generation: int) -> None:
        super().__init__()
        self.generation = generation


class MatViewRegistry:
    """Bounded, thread-safe store of views keyed by ``(kind, key)``.

    ``max_views`` is the one LRU capacity shared by every kind.
    :attr:`stats` holds the default kind's counters, :meth:`counters`
    any kind's.  All operations are safe to call from any thread.
    """

    def __init__(self, max_views: int = DEFAULT_MAX_VIEWS) -> None:
        self.max_views = max_views
        self._lock = threading.Lock()
        self._views: "OrderedDict[tuple[str, Hashable], MaterializedView]" \
            = OrderedDict()
        self._inflight: dict[tuple[str, Hashable], _Flight] = {}
        self._generation = 0
        self._kinds: dict[str, dict[str, int]] = defaultdict(
            lambda: dict.fromkeys(_COUNTERS, 0))
        self._on_drop: Optional[weakref.WeakMethod] = None
        self.stats = self._kinds[DEFAULT_KIND]

    def watch_drops(self, listener: Callable[[str, Hashable], None]) -> None:
        """Call ``listener(kind, key)`` (a bound method, held weakly;
        run outside the lock) for every entry that leaves the registry:
        dropped, evicted, or computed but never stored."""
        self._on_drop = weakref.WeakMethod(listener)

    def _notify(self, views: Iterable[MaterializedView]) -> None:
        listener = self._on_drop() if self._on_drop is not None else None
        if listener is not None:
            for view in views:
                listener(view.kind, view.key)

    # -- serving ----------------------------------------------------------

    def _hit(self, slot: tuple[str, Hashable],
             view: MaterializedView) -> None:
        view.hits += 1
        self._views.move_to_end(slot)
        self._kinds[slot[0]]["hits"] += 1

    def get(self, key: Hashable, kind: str = DEFAULT_KIND):
        """The stored view for ``key``, or ``None`` (counts a hit)."""
        slot = (kind, key)
        with self._lock:
            view = self._views.get(slot)
            if view is None:
                return None
            self._hit(slot, view)
        _count_metric(kind, "hits")
        return view

    def get_or_compute(self, key: Hashable, compute: Callable[[], object],
                       *, kind: str = DEFAULT_KIND,
                       fingerprint: str = "",
                       footprint=None,
                       sources: Iterable[str] = ()) -> object:
        """The view's value, computing and storing it on a miss.

        ``footprint`` is a :class:`Footprint`, ``None`` (unknown —
        the view is dropped on *any* invalidation), or a zero-argument
        callable evaluated after ``compute()`` returns (for callers
        that discover dependencies during the computation).
        Concurrent misses on the same key run ``compute`` once.
        """
        slot = (kind, key)
        while True:
            with self._lock:
                view = self._views.get(slot)
                flight = self._inflight.get(slot)
                if view is not None:
                    self._hit(slot, view)
                elif flight is None:
                    flight = self._inflight[slot] = \
                        _Flight(self._generation)
                    self._kinds[kind]["misses"] += 1
                    break
                else:
                    self._kinds[kind]["singleflight_waits"] += 1
            if view is not None:
                _count_metric(kind, "hits")
                return view.value
            # Single-flight: wait for the leader, then re-check the
            # store (or take over if the leader failed / went stale).
            _count_metric(kind, "singleflight_waits")
            flight.wait()
        _count_metric(kind, "misses")
        started = time.perf_counter()
        try:
            value = compute()
        except BaseException:
            with self._lock:
                self._inflight.pop(slot, None)
            flight.set()
            raise
        seconds = time.perf_counter() - started
        if callable(footprint):
            footprint = footprint()
        view = MaterializedView(
            kind, key, value, flight.generation, footprint,
            frozenset(sources), fingerprint, seconds)
        with self._lock:
            self._inflight.pop(slot, None)
            # A compute that straddled an invalidation may have read
            # pre-change data: its caller gets the value, the cache not.
            stored = self._generation == flight.generation
            if stored:
                self._views[slot] = view
            gone = [] if stored else [view]
            while len(self._views) > self.max_views:
                gone.append(self._views.popitem(last=False)[1])
            reason = "evictions" if stored else "stale_discards"
            for victim in gone:
                self._kinds[victim.kind][reason] += 1
        flight.set()
        for victim in gone:
            _count_metric(victim.kind, reason)
        self._notify(gone)
        return value

    # -- invalidation -----------------------------------------------------

    def invalidate(self, change: Optional[ChangeSummary] = None) -> int:
        """Drop the views of every kind that ``change`` may affect (all
        of them if ``None``); returns how many dropped."""
        with self._lock:
            self._generation += 1
            victims = [view for view in self._views.values()
                       if view.depends_on(change)]
            for view in victims:
                del self._views[(view.kind, view.key)]
            for counts in self._kinds.values():
                counts["invalidations"] += 1
            dropped = Counter(view.kind for view in victims)
            for kind, count in dropped.items():
                self._kinds[kind]["views_dropped"] += count
        _count_metric(DEFAULT_KIND, "invalidations")
        for kind, count in dropped.items():
            _count_metric(kind, "views_dropped", count)
        self._notify(victims)
        return len(victims)

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._views)

    def __contains__(self, slot: tuple[str, Hashable]) -> bool:
        """Whether the ``(kind, key)`` view is stored."""
        with self._lock:
            return slot in self._views

    @property
    def generation(self) -> int:
        """How many invalidations the registry has seen."""
        return self._generation

    def entries(self, kind: str) -> list[MaterializedView]:
        """The stored views of one kind, least recently used first."""
        with self._lock:
            return [view for (k, _), view in self._views.items()
                    if k == kind]

    def counters(self, kind: str) -> dict[str, int]:
        """A copy of one kind's counters plus its stored-view count."""
        with self._lock:
            counts = dict(self._kinds[kind])
            counts["views"] = sum(1 for k, _ in self._views if k == kind)
        return counts

    def snapshot(self, limit: int = 50) -> dict:
        """The /debug/matviews document: totals plus hottest views.

        The top-level counters are the default kind's; ``kinds`` breaks
        every kind's counters and stored views out.
        """
        with self._lock:
            kinds = {kind: dict(counts)
                     for kind, counts in self._kinds.items()}
            stats = kinds[DEFAULT_KIND]
            views = list(self._views.values())
            inflight = len(self._inflight)
            generation = self._generation
        stored = Counter(view.kind for view in views)
        views.sort(key=lambda v: v.hits, reverse=True)
        return {
            "enabled": True,
            "views": len(views),
            "max_views": self.max_views,
            "inflight": inflight,
            "generation": generation,
            **stats,
            "kinds": {kind: {**counts, "views": stored[kind]}
                      for kind, counts in kinds.items()},
            "top": [view.summary() for view in views[:limit]],
        }


# --------------------------------------------------------------------------
# Query-level materialization


def materialize_query(engine, query, graph,
                      registry: MatViewRegistry, *,
                      sources: Iterable[str] = ()):
    """Evaluate ``query`` through the registry, keyed by fingerprint.

    The stored view is the query's result graph; its dependency summary
    is the static :func:`~repro.struql.analysis.query_footprint` plus
    the given source ids (defaulting to the input graph's name).  The
    same (query, graph) pair served again is a cache hit until an
    intersecting :class:`ChangeSummary` invalidates it.
    """
    from repro.struql.parser import parse_query
    if isinstance(query, str):
        query = parse_query(query)
    fp = query_fingerprint(query)
    key = f"query:{fp}:{graph.name}"
    source_ids = frozenset(sources) or frozenset({graph.name})

    def compute():
        return engine.evaluate(query, graph).output

    return registry.get_or_compute(
        key, compute, fingerprint=fp,
        footprint=query_footprint(query), sources=source_ids)
