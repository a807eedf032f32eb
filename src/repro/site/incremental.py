"""Incremental / "click-time" evaluation of Web sites [FER 98c].

    Another approach is to precompute the root(s) of a Web site, then
    compute at click time the query that obtains the information
    required to display the next page.  (paper, section 1)

The decomposition: for each Skolem function ``F``, the query's flattened
units contribute *page queries* — every ``link F(X) -> L -> T`` governed
by conjunction ``Q`` becomes, for a concrete page ``F(a)``, the query
``Q[X := a]`` whose rows yield the page's ``L`` attributes.  Computing a
page therefore never materializes the whole site, only the bindings its
own links need.

:class:`DynamicSite` serves pages this way, with an optional result
cache ("our optimization techniques cache query results to reduce click
time for future queries").  :class:`LazySiteGraph` wraps a dynamic site
behind the :class:`~repro.graph.Graph` interface so the HTML generator
can render dynamic pages without a materialized site graph — the state
the paper says must live "in a client-side browser and/or a server-side
query processor" lives in the site's memo, whose page entries are the
pages the wrapper has materialized.
"""

from __future__ import annotations

import functools
import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import PageNotFoundError
from repro.graph.model import Graph, GraphObject, Oid
from repro.graph.values import Atom
from repro.obs.lineage import get_lineage
from repro.obs.queries import fingerprint, get_query_registry
from repro.obs.trace import get_recorder
from repro.struql.analysis import ANY_FOOTPRINT, Footprint, unit_footprint
from repro.struql.ast import AggregateCond, Const, Query, SkolemTerm, Var
from repro.struql.bindings import Binding, RuntimeValue, as_label
from repro.struql.evaluator import QueryEngine, _enforce_aggregate_order
from repro.struql.matview import MatViewRegistry
from repro.struql.parser import parse_query
from repro.struql.plan import Plan
from repro.struql.rewriter import ConjunctiveUnit, flatten
from repro.struql.skolem import SkolemRegistry


#: Default LRU bound of the click-time memo: a long-running ``repro
#: serve`` must not grow memory with the number of distinct pages ever
#: visited (same discipline as
#: :class:`~repro.obs.queries.QueryStatsRegistry`).
DEFAULT_MAX_PAGES = 4096


@dataclass
class PageView:
    """One dynamically computed page: its outgoing edges and
    collection memberships."""

    oid: Oid
    edges: list[tuple[str, GraphObject]] = field(default_factory=list)
    collections: list[str] = field(default_factory=list)


class DynamicSite:
    """Serves site pages computed at click time from the data graph.

    Every cached result lives in one footprint-tagged memo,
    :attr:`memo` (a :class:`~repro.struql.matview.MatViewRegistry` of
    ``max_pages`` entries): unit bindings as ``rows`` entries, page
    views as ``page`` entries, which are also exactly the pages the
    bound :class:`LazySiteGraph` holds.  ``cache=False`` keeps bindings
    and :meth:`get_page` results out of the memo.  Computes,
    invalidation and ``stats`` serialize on one reentrant :attr:`lock`,
    so threaded front ends may share a site.
    """

    def __init__(self, query: Query | str, data: Graph,
                 engine: QueryEngine | None = None,
                 cache: bool = True,
                 max_pages: int = DEFAULT_MAX_PAGES) -> None:
        if isinstance(query, str):
            query = parse_query(query)
        self.query = query
        self.data = data
        self.engine = engine or QueryEngine()
        self.units = flatten(query)
        #: Static read footprint of each flattened unit (keyed by the
        #: unit's identity, which is also the rows-entry key head).
        self.unit_footprints: dict[int, Footprint] = {
            id(unit): unit_footprint(unit) for unit in self.units}
        #: Skolem function -> union of the footprints of every unit
        #: that contributes links or collections to its pages: the data
        #: a page of that function may read when computed.
        self.fn_footprints = self._compute_fn_footprints()
        self.skolem = SkolemRegistry()
        #: The site query's fingerprint, also used as the lineage query
        #: context for click-time Skolem mints.
        self.fingerprint = fingerprint(query)
        self.cache_enabled = cache
        self.max_pages = max(int(max_pages), 1)
        #: The one click-time memo (rows, page and body entries).
        self.memo = MatViewRegistry(max_views=self.max_pages)
        self._sources = frozenset({data.name})
        self._graph: weakref.ref | None = None
        #: Reentrant, and shared with :class:`LazySiteGraph` reads so
        #: none overlaps a detach.
        self.lock = threading.RLock()
        self.stats = {"pages_computed": 0, "unit_evaluations": 0,
                      "full_invalidations": 0,
                      "partial_invalidations": 0}

    def _compute_fn_footprints(self) -> dict[str, Footprint]:
        out: dict[str, Footprint] = {
            fn: Footprint() for fn in self.query.skolem_functions()}
        for unit in self.units:
            footprint = self.unit_footprints[id(unit)]
            touched = {link.source.fn for link in unit.links}
            touched.update(c.term.fn for c in unit.collects
                           if isinstance(c.term, SkolemTerm))
            for fn in touched:
                out[fn] = out.get(fn, Footprint()).union(footprint)
        return out

    def footprint_for(self, fn: str | None) -> Footprint:
        """Read footprint of pages minted by Skolem function ``fn``."""
        if fn is None:
            return ANY_FOOTPRINT
        return self.fn_footprints.get(fn, ANY_FOOTPRINT)

    def footprint_for_fns(self, fns) -> Footprint:
        """Union footprint over several Skolem functions."""
        out = Footprint()
        for fn in fns:
            out = out.union(self.footprint_for(fn))
        return out

    # -- roots -----------------------------------------------------------------

    def roots(self) -> list[Oid]:
        """The precomputable root pages: zero-argument Skolem creates."""
        roots: dict[Oid, None] = {}
        lineage = get_lineage()
        for unit in self.units:
            for term in unit.creates:
                if not term.args and not unit.conditions:
                    with lineage.query_context(
                            fingerprint=self.fingerprint,
                            block=unit.label, input=self.data.name):
                        roots.setdefault(
                            self.skolem.apply(term.fn, ()), None)
        return list(roots)

    # -- page computation ------------------------------------------------------------

    def get_page(self, oid: Oid) -> PageView:
        """One page's view, from the memo (computed afresh with
        ``cache=False``); lookup and compute hold :attr:`lock`."""
        if oid.skolem_fn is None:
            raise PageNotFoundError(oid)
        with self.lock:
            if not self.cache_enabled:
                return self._compute_page(oid)
            return self.materialize(oid)

    def materialize(self, oid: Oid) -> PageView:
        """``oid``'s page entry in the memo, computed on a miss and
        attached to the bound :class:`LazySiteGraph`."""
        with self.lock:
            return self.memo.get_or_compute(
                oid, lambda: self._attach(self._compute_page(oid)),
                kind="page", fingerprint=self.fingerprint,
                footprint=self.footprint_for(oid.skolem_fn),
                sources=self._sources)

    def bind(self, graph: "LazySiteGraph") -> None:
        """Make ``graph`` the lazy graph page entries attach to, held
        weakly so the memo never keeps it (or this site) alive."""
        with self.lock:
            self._graph = weakref.ref(graph)
            self.memo.watch_drops(graph.page_dropped)
            for entry in self.memo.entries("page"):
                graph.attach(entry.value)

    def _attach(self, view: PageView) -> PageView:
        graph = self._graph() if self._graph is not None else None
        if graph is not None:
            graph.attach(view)
        return view

    def _compute_page(self, oid: Oid) -> PageView:
        recorder = get_recorder()
        started = time.perf_counter()
        with recorder.span("site.compute_page", page=str(oid)) as span:
            view = self._compute(oid)
            span.set(edges=len(view.edges))
        self.stats["pages_computed"] += 1
        # Click-time computes are partial evaluations of the one site
        # query, so they aggregate under its fingerprint: the registry's
        # p50/p95 become the site's live page-compute latency.
        get_query_registry().observe(
            self.query, seconds=time.perf_counter() - started,
            rows=len(view.edges),
            optimizer=getattr(self.engine.optimizer, "name",
                              str(self.engine.optimizer)))
        return view

    def invalidate(self, change=None) -> int:
        """Drop the memo entries a data-graph update may affect (all
        without a :class:`~repro.struql.matview.ChangeSummary`), after
        any in-flight compute; returns how many dropped."""
        full = change is None or getattr(change, "full", False)
        with self.lock:
            self.stats["full_invalidations" if full
                       else "partial_invalidations"] += 1
            return self.memo.invalidate(change)

    def stats_snapshot(self) -> dict:
        """A consistent copy of :attr:`stats` plus the memo's page and
        bindings counters and occupancy."""
        with self.lock:
            snapshot = dict(self.stats, max_pages=self.max_pages,
                            cache_enabled=self.cache_enabled)
            for kind, cache, dropped in (
                    ("page", "page_cache_", "pages_invalidated"),
                    ("rows", "bindings_cache_", "bindings_invalidated")):
                counts = self.memo.counters(kind)
                for name in ("hits", "misses", "evictions"):
                    snapshot[cache + name] = counts[name]
                snapshot[cache + "size"] = counts["views"]
                snapshot[dropped] = counts["views_dropped"]
        return snapshot

    # -- internals ---------------------------------------------------------------

    def _compute(self, oid: Oid) -> PageView:
        fn, arity = oid.skolem_fn, len(oid.skolem_args)
        view = PageView(oid)
        seen_edges: set[tuple[str, GraphObject]] = set()
        lineage = get_lineage()
        for unit in self.units:
            links = [link for link in unit.links
                     if link.source.fn == fn
                     and len(link.source.args) == arity]
            collecting = [c for c in unit.collects
                          if isinstance(c.term, SkolemTerm)
                          and c.term.fn == fn and len(c.term.args) == arity]
            if not links and not collecting:
                continue
            with lineage.query_context(fingerprint=self.fingerprint,
                                       block=unit.label,
                                       input=self.data.name):
                for link in links:
                    for row in self._unit_rows(unit, link.source, oid):
                        label_value = self._resolve(link.label, row)
                        label = as_label(label_value) \
                            if label_value is not None else None
                        target = self._resolve(link.target, row)
                        if label is None or target is None:
                            continue
                        if isinstance(target, str):
                            target = Atom.string(target)
                        key = (label, target)
                        if key not in seen_edges:
                            seen_edges.add(key)
                            view.edges.append(key)
                            if lineage.enabled:
                                lineage.record_dep(oid, target)
                for collect in collecting:
                    if collect.name not in view.collections and \
                            self._unit_rows(unit, collect.term, oid):
                        view.collections.append(collect.name)
        return view

    def _unit_rows(self, unit: ConjunctiveUnit, source: SkolemTerm,
                   oid: Oid) -> list[Binding]:
        """Bindings of the unit's conditions consistent with ``oid``'s
        Skolem arguments bound into the source term's variables."""
        seed: Binding = {}
        for arg_term, arg_value in zip(source.args, oid.skolem_args):
            if isinstance(arg_term, Var):
                seed[arg_term.name] = arg_value
            elif isinstance(arg_term, Const):
                from repro.struql.bindings import runtime_eq
                if not runtime_eq(arg_term.value, arg_value):
                    return []
        if not self.cache_enabled:
            return self._evaluate_unit(unit, seed)
        key = (id(unit), tuple(sorted(seed.items(),
                                      key=lambda kv: kv[0])),
               tuple(str(v) for _, v in sorted(seed.items())))
        return self.memo.get_or_compute(
            key, lambda: self._evaluate_unit(unit, seed), kind="rows",
            fingerprint=self.fingerprint,
            footprint=self.unit_footprints[id(unit)],
            sources=self._sources)

    def _evaluate_unit(self, unit: ConjunctiveUnit,
                       seed: Binding) -> list[Binding]:
        ctx = self.engine.context(self.data)
        # Aggregates partition the FULL binding relation.  Seeding the
        # page's Skolem arguments before an aggregate whose group does
        # not cover them would aggregate over the restricted rows and
        # disagree with the materialized site, so such units evaluate
        # unseeded and filter afterwards.
        seeded = seed
        post_filter: Binding = {}
        for condition in unit.conditions:
            if isinstance(condition, AggregateCond):
                group_names = {g.name for g in condition.group}
                if not set(seed) <= group_names:
                    seeded, post_filter = {}, seed
                    break
        ordered = self.engine.optimizer.order(
            unit.conditions, set(seeded), self.data, ctx.predicates, None)
        ordered = _enforce_aggregate_order(ordered)
        rows = Plan.from_conditions(ordered).execute(ctx, [dict(seeded)])
        if post_filter:
            from repro.struql.bindings import runtime_eq
            rows = [row for row in rows
                    if all(name in row and runtime_eq(row[name], value)
                           for name, value in post_filter.items())]
        self.stats["unit_evaluations"] += 1
        get_recorder().metrics.counter("site.unit_evaluations").inc()
        return rows

    def _resolve(self, term, row: Binding) -> RuntimeValue | None:
        if isinstance(term, Const):
            return term.value
        if isinstance(term, Var):
            return row.get(term.name)
        if isinstance(term, SkolemTerm):
            args = []
            for arg in term.args:
                value = self._resolve(arg, row)
                if value is None:
                    return None
                args.append(value)
            return self.skolem.apply(term.fn, args)
        raise TypeError(f"not a term: {term!r}")


def _ensuring(read):
    """Wrap a :class:`Graph` read to materialize its subject first,
    under the site lock so no detach interleaves."""
    @functools.wraps(read)
    def wrapper(self, subject, *args, **kwargs):
        with self._site.lock:
            if isinstance(subject, Oid):
                self.ensure(subject)
            return read(self, subject, *args, **kwargs)
    return wrapper


class LazySiteGraph(Graph):
    """A :class:`Graph` facade over a :class:`DynamicSite`.

    Pages materialize on first read, so the HTML generator (which only
    reads outgoing edges and collection memberships) renders against it
    unmodified.  A page is materialized exactly while the site's memo
    holds its ``page`` entry.  Incoming edges are complete only for
    materialized pages — sufficient for the template language's bounded
    forward traversals.
    """

    def __init__(self, site: DynamicSite) -> None:
        super().__init__(site.query.output_name)
        self._site = site
        self._local = threading.local()
        #: Pages detached since the last :meth:`rematerialize_detached`.
        self.detached: set[Oid] = set()
        for root in site.roots():
            self.add_node(root)
        site.bind(self)

    @contextmanager
    def collecting_deps(self):
        """Yield the set of Skolem functions of every page read in
        this thread meanwhile (materialized before or not): a render's
        dependencies, hence its body's invalidation footprint."""
        previous = getattr(self._local, "deps", None)
        deps: set[str] = set()
        self._local.deps = deps
        try:
            yield deps
        finally:
            self._local.deps = previous

    def ensure(self, oid: Oid) -> None:
        """Materialize ``oid``'s page if it is dynamic and not yet done
        (serialized on the site's lock)."""
        if oid.skolem_fn is None:
            return
        deps = getattr(self._local, "deps", None)
        if deps is not None:
            deps.add(oid.skolem_fn)
        self._site.materialize(oid)

    def attach(self, view: PageView) -> None:
        """Add a computed page view's edges and memberships."""
        self.add_node(view.oid)
        for label, target in view.edges:
            self.add_edge(view.oid, label, target)
        for name in view.collections:
            self.add_to_collection(name, view.oid)

    def page_dropped(self, kind: str, key) -> None:
        """Memo listener: detach a page whose entry left the memo
        (unless recomputed since).  The node stays, so links to it and
        its route remain valid."""
        if kind != "page":
            return
        with self._site.lock:
            if ("page", key) not in self._site.memo:
                self.detach_node(key)
                self.detached.add(key)

    def rematerialize_detached(self) -> int:
        """Recompute every page detached since the last call; returns
        how many.  New link targets they reveal become nodes again."""
        with self._site.lock:
            pages, self.detached = self.detached, set()
            for oid in pages:
                self.ensure(oid)
            return len(pages)

    # Reads used by the HTML generator; body hits bypass this graph.

    out_edges = _ensuring(Graph.out_edges)
    get = _ensuring(Graph.get)
    get_one = _ensuring(Graph.get_one)
    labels_of = _ensuring(Graph.labels_of)
    collections_of = _ensuring(Graph.collections_of)

    @property
    def materialized_count(self) -> int:
        """How many pages are materialized right now."""
        return len(self._site.memo.entries("page"))
