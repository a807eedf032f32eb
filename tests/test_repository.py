"""The data repository: indexes, statistics, persistence."""

import pytest

from repro.errors import RepositoryError, UnknownGraphError
from repro.graph import Atom, Graph, Oid
from repro.repository import (
    GraphIndex,
    GraphStatistics,
    Repository,
    load_repository,
    save_repository,
)


class TestGraphIndex:
    def test_schema_index(self, fig2_graph):
        index = GraphIndex.build(fig2_graph)
        assert "author" in index.labels()
        assert index.collection_names() == ["Publications"]
        assert index.has_label("year") and not index.has_label("zzz")

    def test_attribute_extent(self, fig2_graph):
        index = GraphIndex.build(fig2_graph)
        extent = index.attribute_extent("author")
        assert len(extent) == 4  # two authors on each of two pubs
        assert all(isinstance(source, Oid) for source, _ in extent)

    def test_forward_and_backward(self, fig2_graph):
        index = GraphIndex.build(fig2_graph)
        years = index.targets(Oid("pub1"), "year")
        assert years == [Atom.int(1997)]
        sources = index.sources("year", Atom.int(1997))
        assert sources == [Oid("pub1")]

    def test_backward_with_coercion(self, fig2_graph):
        index = GraphIndex.build(fig2_graph)
        assert index.sources("year", Atom.string("1997")) == [Oid("pub1")]

    def test_global_value_index(self, fig2_graph):
        index = GraphIndex.build(fig2_graph)
        hits = index.value_occurrences(Atom.string("Mary Fernandez"))
        assert {(str(s), l) for s, l in hits} == {("pub1", "author"),
                                                  ("pub2", "author")}

    def test_value_index_is_global_not_per_attribute(self):
        graph = Graph("g")
        graph.add_edge(Oid("a"), "x", Atom.string("v"))
        graph.add_edge(Oid("b"), "y", Atom.string("v"))
        index = GraphIndex.build(graph)
        assert len(index.value_occurrences(Atom.string("v"))) == 2

    def test_cardinalities(self, fig2_graph):
        index = GraphIndex.build(fig2_graph)
        assert index.label_cardinality("author") == 4
        assert index.label_cardinality("nope") == 0
        assert index.collection_cardinality("Publications") == 2
        assert index.collection_cardinality("nope") == 0

    def test_freshness_tracking(self, fig2_graph):
        index = GraphIndex.build(fig2_graph)
        assert index.fresh
        fig2_graph.add_edge(Oid("pub1"), "note", Atom.string("new"))
        assert not index.fresh
        assert index.label_cardinality("note") == 0  # a snapshot
        rebuilt = fig2_graph.derived(GraphIndex.build)
        assert rebuilt.fresh
        assert rebuilt.label_cardinality("note") == 1

    @staticmethod
    def _retitle(graph: Graph, paper: Oid) -> None:
        """Replace ``paper``'s only title: every size count stays put."""
        graph.detach_node(paper)
        graph.add_to_collection("Papers", paper)
        graph.add_edge(paper, "title", Atom.string("New"))

    def test_same_size_edit_makes_index_stale(self):
        """Regression: freshness used to compare node, edge and
        collection counts, so a detach plus an add of one edge left the
        index "fresh" and an indexed query answered the old title."""
        from repro.struql import QueryEngine
        from repro.struql.plan import ExecutionContext

        graph = Graph("g")
        paper = Oid("paper")
        graph.add_to_collection("Papers", paper)
        graph.add_edge(paper, "title", Atom.string("Old"))
        index = graph.derived(GraphIndex.build)
        self._retitle(graph, paper)
        assert not index.fresh
        # Handed the stale snapshot, a context scans the graph instead.
        assert ExecutionContext(graph, index=index).index is None
        query = 'input g where Papers(x), x -> "title" -> t ' \
                'collect Titles(t) output o'
        result = QueryEngine().evaluate(query, graph)
        assert result.output.collection("Titles") == [Atom.string("New")]
        rebuilt = graph.derived(GraphIndex.build)
        assert rebuilt is not index and rebuilt.fresh
        assert rebuilt.targets(paper, "title") == [Atom.string("New")]
        assert index.targets(paper, "title") == [Atom.string("Old")]


class TestStatistics:
    def test_counts(self, fig2_graph):
        stats = GraphStatistics.gather(fig2_graph)
        assert stats.node_count == 2
        assert stats.edge_count == fig2_graph.edge_count
        assert stats.collection_size("Publications") == 2

    def test_label_stats(self, fig2_graph):
        stats = GraphStatistics.gather(fig2_graph)
        author = stats.labels["author"]
        assert author.edges == 4
        assert author.distinct_sources == 2
        assert author.fan_out == 2.0
        assert stats.label_fan_out("author") == 2.0
        assert stats.label_fan_out("missing") == 0.0

    def test_fan_in(self):
        graph = Graph("g")
        for name in ("a", "b", "c"):
            graph.add_edge(Oid(name), "to", Oid("hub"))
        stats = GraphStatistics.gather(graph)
        assert stats.label_fan_in("to") == 3.0

    def test_equality_selectivity(self, fig2_graph):
        stats = GraphStatistics.gather(fig2_graph)
        # Two distinct years -> selectivity 1/2.
        assert stats.equality_selectivity("year") == pytest.approx(0.5)
        assert stats.equality_selectivity("missing") == 1.0

    def test_any_label_fan_out(self, fig2_graph):
        stats = GraphStatistics.gather(fig2_graph)
        assert stats.any_label_fan_out() == pytest.approx(
            fig2_graph.edge_count / fig2_graph.node_count)

    def test_empty_graph(self):
        stats = GraphStatistics.gather(Graph("g"))
        assert stats.any_label_fan_out() == 0.0


class TestRepository:
    def test_store_and_fetch(self, fig2_graph):
        repo = Repository()
        repo.store(fig2_graph)
        assert repo.graph("BIBTEX") is fig2_graph
        assert "BIBTEX" in repo
        assert [g.name for g in repo] == ["BIBTEX"]

    def test_unknown_graph(self):
        with pytest.raises(UnknownGraphError):
            Repository().graph("nope")

    def test_index_cached_and_rebuilt(self, fig2_graph):
        # A stored graph owns its index: one per graph version.
        repo = Repository()
        repo.store(fig2_graph)
        graph = repo.graph("BIBTEX")
        index = graph.derived(GraphIndex.build)
        assert graph.derived(GraphIndex.build) is index
        fig2_graph.add_edge(Oid("pub1"), "note", Atom.string("x"))
        refreshed = graph.derived(GraphIndex.build)
        assert refreshed is not index
        assert refreshed.label_cardinality("note") == 1

    def test_indexing_disabled(self, fig2_graph):
        # The engine's switch is the one indexing switch: running over
        # a repository with it off builds no index.
        from repro import obs
        from repro.struql import QueryEngine

        repo = Repository()
        repo.store(fig2_graph)
        with obs.recording() as rec:
            QueryEngine(indexing=False).run(
                'input BIBTEX where Publications(x), x -> "year" -> y '
                'create P(y) output O', repo)
        counters = rec.metrics.as_dict()["counters"]
        assert counters.get("repository.index.builds", 0) == 0
        assert counters["repository.index.misses"] > 0
        assert repo.graph("O").node_count == 2

    def test_statistics_cached(self, fig2_graph):
        repo = Repository()
        repo.store(fig2_graph)
        graph = repo.graph("BIBTEX")
        first = graph.derived(GraphStatistics.gather)
        assert graph.derived(GraphStatistics.gather) is first
        fig2_graph.add_edge(Oid("pub2"), "note", Atom.string("x"))
        assert graph.derived(GraphStatistics.gather) is not first

    def test_statistics_follow_same_size_edit(self):
        graph = Graph("g")
        paper = Oid("paper")
        graph.add_to_collection("Papers", paper)
        graph.add_edge(paper, "title", Atom.string("Old"))
        first = graph.derived(GraphStatistics.gather)
        assert graph.derived(GraphStatistics.gather) is first
        TestGraphIndex._retitle(graph, paper)
        assert graph.derived(GraphStatistics.gather) is not first

    def test_drop(self, fig2_graph):
        repo = Repository()
        repo.store(fig2_graph)
        repo.drop("BIBTEX")
        assert not repo.has_graph("BIBTEX")
        repo.drop("BIBTEX")  # idempotent


class TestStorage:
    def test_save_load_roundtrip(self, tmp_path, fig2_graph, tiny_graph):
        repo = Repository("mine")
        repo.store(fig2_graph)
        repo.store(tiny_graph)
        save_repository(repo, str(tmp_path))
        back = load_repository(str(tmp_path))
        assert back.database.name == "mine"
        assert back.graph_names() == sorted(["BIBTEX", "tiny"])
        assert back.graph("BIBTEX").edge_count == fig2_graph.edge_count
        assert back.graph("tiny").collection("Root") == [Oid("root")]

    def test_load_missing_manifest(self, tmp_path):
        with pytest.raises(RepositoryError):
            load_repository(str(tmp_path / "nope"))

    def test_resave_overwrites(self, tmp_path, fig2_graph):
        repo = Repository()
        repo.store(fig2_graph)
        save_repository(repo, str(tmp_path))
        fig2_graph.add_edge(Oid("pub1"), "extra", Atom.int(1))
        save_repository(repo, str(tmp_path))
        back = load_repository(str(tmp_path))
        assert back.graph("BIBTEX").edge_count == fig2_graph.edge_count

    def test_unsafe_graph_names(self, tmp_path):
        repo = Repository()
        graph = Graph("weird/name graph")
        graph.add_edge(Oid("a"), "l", Atom.int(1))
        repo.store(graph)
        save_repository(repo, str(tmp_path))
        back = load_repository(str(tmp_path))
        assert back.has_graph("weird/name graph")


class TestGraphOwnsArtefacts:
    """``Graph.derived`` is the one owner of a graph's index and
    statistics: built once per graph version, shared, freed with it."""

    def test_crawl_at_one_version_gathers_and_builds_once(
            self, fig2_graph, monkeypatch):
        from repro import DynamicSiteServer
        from repro.sites.homepage import FIG3_QUERY, fig7_templates

        calls = []
        for cls, name in ((GraphStatistics, "gather"),
                          (GraphIndex, "build")):
            def spy(klass, graph, _real=getattr(cls, name), _name=name):
                calls.append((_name, graph.name))
                return _real(graph)
            monkeypatch.setattr(cls, name, classmethod(spy))
        server = DynamicSiteServer(FIG3_QUERY, fig2_graph,
                                   fig7_templates())
        version = fig2_graph.version
        pages = server.crawl()
        assert len(pages) == 9 and all(p.status == 200 for p in pages)
        assert fig2_graph.version == version
        assert sorted(calls) == [("build", "BIBTEX"), ("gather", "BIBTEX")]

    def test_gather_is_traced(self, fig2_graph):
        from repro import obs

        with obs.recording() as rec:
            fig2_graph.derived(GraphStatistics.gather)
        [span] = [s for s in rec.roots if s.name == "stats.gather"]
        assert span.attributes["edges"] == fig2_graph.edge_count

    def test_dropped_graph_is_freed_without_gc(self):
        import gc
        import weakref

        from repro.struql import QueryEngine

        enabled = gc.isenabled()
        gc.disable()
        try:
            graph = Graph("g")
            graph.add_to_collection("C", Oid("a"))
            graph.add_edge(Oid("a"), "x", Atom.int(1))
            QueryEngine().evaluate(
                'input g where C(p), p -> "x" -> v create P(v) output o',
                graph)
            artefacts = [weakref.ref(graph.derived(GraphIndex.build)),
                         weakref.ref(graph.derived(GraphStatistics.gather))]
            dropped = weakref.ref(graph)
            del graph
            assert dropped() is None
            assert all(ref() is None for ref in artefacts)
        finally:
            if enabled:
                gc.enable()
