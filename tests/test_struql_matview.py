"""The materialized-view registry: single-flight, kinds,
footprint-driven invalidation, and the query-level entry point."""

import threading
import time

import pytest

from repro.graph import Atom, Graph, Oid
from repro.struql import QueryEngine
from repro.struql.analysis import (
    ANY_FOOTPRINT,
    Footprint,
    conditions_footprint,
    query_footprint,
    unit_footprint,
)
from repro.struql.matview import (
    ChangeSummary,
    MatViewRegistry,
    materialize_query,
)
from repro.struql.parser import parse_query
from repro.struql.rewriter import flatten


class TestChangeSummary:
    def test_builders_and_union(self):
        change = ChangeSummary.for_labels("year").union(
            ChangeSummary.for_collections("Publications"))
        assert change.labels == {"year"}
        assert change.collections == {"Publications"}
        assert not change.full

    def test_full_change(self):
        assert ChangeSummary.full_change().full


class TestFootprint:
    def test_intersects_by_label(self):
        footprint = Footprint(labels=frozenset({"year"}))
        assert footprint.intersects(ChangeSummary.for_labels("year"))
        assert not footprint.intersects(ChangeSummary.for_labels("note"))

    def test_intersects_by_collection(self):
        footprint = Footprint(collections=frozenset({"Publications"}))
        assert footprint.intersects(
            ChangeSummary.for_collections("Publications"))
        assert not footprint.intersects(
            ChangeSummary.for_collections("Other"))

    def test_any_label_matches_any_label_change(self):
        assert ANY_FOOTPRINT.intersects(ChangeSummary.for_labels("x"))
        assert ANY_FOOTPRINT.intersects(ChangeSummary.for_collections("C"))

    def test_full_and_none_always_intersect(self):
        empty = Footprint()
        assert empty.intersects(None)
        assert empty.intersects(ChangeSummary.full_change())
        # ... but an empty footprint ignores any concrete change.
        assert not empty.intersects(ChangeSummary.for_labels("x"))

    def test_conditions_footprint_collects_reads(self):
        query = parse_query(
            'input G where C(x), x -> "title" -> v output O')
        footprint = conditions_footprint(query.root.conditions)
        assert footprint.collections == {"C"}
        assert footprint.labels == {"title"}
        assert not footprint.any_label

    def test_arc_variable_is_wildcard_without_narrowing(self):
        query = parse_query("input G where C(x), x -> l -> v output O")
        footprint = conditions_footprint(query.root.conditions)
        assert footprint.any_label

    def test_equality_narrows_arc_variable(self):
        query = parse_query(
            'input G where C(x), x -> l -> v, l = "year" output O')
        footprint = conditions_footprint(query.root.conditions)
        assert footprint.labels == {"year"}
        assert not footprint.any_label

    def test_in_condition_narrows_arc_variable(self):
        query = parse_query(
            'input G where C(x), x -> l -> v, '
            'l in {"year", "month"} output O')
        footprint = conditions_footprint(query.root.conditions)
        assert footprint.labels == {"year", "month"}
        assert not footprint.any_label

    def test_negation_reads_count_but_do_not_narrow(self):
        query = parse_query(
            'input G where C(x), not(x -> "draft" -> y), '
            'x -> "title" -> t output O')
        footprint = conditions_footprint(query.root.conditions)
        assert {"draft", "title"} <= footprint.labels

    def test_unit_footprint_unrestricted_is_any(self):
        # x = y over unbound variables is active-domain dependent:
        # the footprint must be conservative.
        query = parse_query("input G where x = y collect C(x) output O")
        unit = flatten(query)[0]
        footprint = unit_footprint(unit)
        assert footprint.any_label and footprint.any_collection

    def test_query_footprint_inherits_block_narrowing(self):
        query = parse_query("""
            input G
            where C(x), x -> l -> v
            { where l = "year" collect Years(v) }
            output O
        """)
        footprint = query_footprint(query)
        # The outer block's arc variable is a wildcard, so the union is
        # wide — but the narrowed inner block alone is precise.
        assert footprint.any_label
        inner = conditions_footprint(
            list(query.root.conditions)
            + list(query.root.children[0].conditions))
        assert inner.labels == {"year"}


class TestRegistryServing:
    def test_miss_computes_then_hits(self):
        registry = MatViewRegistry()
        calls = []
        value = registry.get_or_compute(
            "k", lambda: calls.append(1) or "body")
        assert value == "body"
        assert registry.get_or_compute("k", lambda: "other") == "body"
        assert len(calls) == 1
        assert registry.stats["hits"] == 1
        assert registry.stats["misses"] == 1

    def test_errors_are_never_cached(self):
        registry = MatViewRegistry()

        def boom():
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            registry.get_or_compute("k", boom)
        assert len(registry) == 0
        # The key is computable again after the failure.
        assert registry.get_or_compute("k", lambda: "ok") == "ok"

    def test_lru_bound_holds(self):
        registry = MatViewRegistry(max_views=4)
        for i in range(10):
            registry.get_or_compute(f"k{i}", lambda i=i: i)
        assert len(registry) == 4
        assert registry.stats["evictions"] == 6

    def test_single_flight_collapses_concurrent_misses(self):
        registry = MatViewRegistry()
        calls = []
        release = threading.Event()

        def compute():
            calls.append(1)
            release.wait(5)
            return "body"

        results = []

        def worker():
            results.append(registry.get_or_compute("k", compute))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        # Give every follower time to join the flight, then let the
        # one leader finish.
        time.sleep(0.1)
        release.set()
        for thread in threads:
            thread.join(10)
        assert results == ["body"] * 6
        assert len(calls) == 1
        assert registry.stats["singleflight_waits"] >= 5

    def test_compute_straddling_invalidation_is_not_cached(self):
        registry = MatViewRegistry()
        entered = threading.Event()
        proceed = threading.Event()

        def compute():
            entered.set()
            proceed.wait(5)
            return "pre-change"

        results = []
        thread = threading.Thread(
            target=lambda: results.append(
                registry.get_or_compute("k", compute)))
        thread.start()
        entered.wait(5)
        registry.invalidate()  # lands while the compute is running
        proceed.set()
        thread.join(10)
        # The caller got its value, but the possibly-stale result must
        # not have entered the cache.
        assert results == ["pre-change"]
        assert len(registry) == 0
        assert registry.stats["stale_discards"] == 1


class TestRegistryInvalidation:
    def _registry_with_views(self):
        registry = MatViewRegistry()
        registry.get_or_compute(
            "years", lambda: "y",
            footprint=Footprint(labels=frozenset({"year"})))
        registry.get_or_compute(
            "cats", lambda: "c",
            footprint=Footprint(labels=frozenset({"category"})))
        registry.get_or_compute("unknown", lambda: "u")  # no footprint
        return registry

    def test_selective_invalidation_by_footprint(self):
        registry = self._registry_with_views()
        dropped = registry.invalidate(ChangeSummary.for_labels("year"))
        # The year view and the footprint-less view drop; the category
        # view survives.
        assert dropped == 2
        assert registry.get("cats") is not None
        assert registry.get("years") is None
        assert registry.get("unknown") is None

    def test_unknown_footprint_always_drops(self):
        registry = self._registry_with_views()
        registry.invalidate(ChangeSummary.for_labels("nothing-reads-me"))
        assert registry.get("unknown") is None
        assert registry.get("years") is not None

    def test_none_change_drops_everything(self):
        registry = self._registry_with_views()
        assert registry.invalidate() == 3
        assert len(registry) == 0

    def test_source_change_drops_matching_views(self):
        registry = MatViewRegistry()
        registry.get_or_compute(
            "a", lambda: 1, footprint=Footprint(), sources=("bib",))
        registry.get_or_compute(
            "b", lambda: 2, footprint=Footprint(), sources=("other",))
        registry.invalidate(ChangeSummary.for_sources("bib"))
        assert registry.get("a") is None
        assert registry.get("b") is not None

    def test_snapshot_shape(self):
        registry = self._registry_with_views()
        registry.get_or_compute("years", lambda: "y")  # a hit
        snapshot = registry.snapshot(limit=2)
        assert snapshot["enabled"] is True
        assert snapshot["views"] == 3
        assert snapshot["hits"] == 1
        assert snapshot["misses"] == 3
        assert len(snapshot["top"]) == 2
        top = snapshot["top"][0]
        assert top["key"] == "years"
        assert top["footprint"]["labels"] == ["year"]


class TestQueryMaterialization:
    QUERY = """
        input G
        where Pubs(x), x -> "year" -> y
        create YearPage(y)
        link YearPage(y) -> "Year" -> y
        collect Years(YearPage(y))
        output O
    """

    def _data(self):
        graph = Graph("G")
        pub = Oid("pub1")
        graph.add_to_collection("Pubs", pub)
        graph.add_edge(pub, "year", Atom.int(1997))
        return graph

    def test_materialize_serves_same_graph_until_invalidated(self):
        registry = MatViewRegistry()
        engine = QueryEngine()
        graph = self._data()
        first = materialize_query(engine, self.QUERY, graph, registry)
        again = materialize_query(engine, self.QUERY, graph, registry)
        assert again is first  # served from the view, not re-evaluated
        assert registry.stats["hits"] == 1

        # An irrelevant change leaves the view alone ...
        registry.invalidate(ChangeSummary.for_labels("note"))
        assert materialize_query(
            engine, self.QUERY, graph, registry) is first
        # ... a footprint-intersecting one drops it.
        graph.add_edge(Oid("pub2"), "year", Atom.int(1998))
        graph.add_to_collection("Pubs", Oid("pub2"))
        registry.invalidate(ChangeSummary.for_labels("year").union(
            ChangeSummary.for_collections("Pubs")))
        fresh = materialize_query(engine, self.QUERY, graph, registry)
        assert fresh is not first
        assert len(fresh.collection("Years")) == 2

    def test_engine_entry_point(self):
        registry = MatViewRegistry()
        engine = QueryEngine()
        graph = self._data()
        result = engine.evaluate_materialized(
            self.QUERY, graph, registry)
        assert len(result.collection("Years")) == 1
        assert engine.evaluate_materialized(
            self.QUERY, graph, registry) is result

    def test_view_keyed_by_fingerprint_and_graph(self):
        registry = MatViewRegistry()
        engine = QueryEngine()
        graph = self._data()
        materialize_query(engine, self.QUERY, graph, registry)
        snapshot = registry.snapshot()
        from repro.obs.queries import fingerprint
        fp = fingerprint(parse_query(self.QUERY))
        assert snapshot["top"][0]["key"] == f"query:{fp}:G"
        assert snapshot["top"][0]["fingerprint"] == fp
        assert snapshot["top"][0]["sources"] == ["G"]
