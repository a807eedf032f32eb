"""The parallel, content-hash-cached build pipeline (PR 7 tentpole).

Correctness contract: a cached (incremental) build must be
byte-for-byte identical to a cold build, a rebuild of an unchanged
site must render nothing, and any template or reachable-data change
must invalidate exactly the affected pages.

``TestRandomEditScripts`` turns that contract into a property: random
edit scripts over the data graph, with the incremental output tree
compared file-for-file against a cold build after every step.
"""

import json
import os
import random

import pytest

from repro.datagen.org import build_org_mediator
from repro.graph import Atom, Graph, Oid
from repro.site.buildcache import (
    BuildCache,
    cached_generate,
    hash_templates,
    node_fingerprints,
    page_fingerprint,
    resolve_jobs,
)
from repro.site.builder import Website
from repro.sites.homepage import FIG3_QUERY, fig2_data, fig7_templates
from repro.sites.org import ORG_QUERY, org_templates
from repro.templates.generator import HtmlGenerator, TemplateSet


def _site(data=None, templates=None):
    return Website(data or fig2_data(), FIG3_QUERY,
                   templates=templates or fig7_templates())


def _read_tree(root):
    tree = {}
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as handle:
                tree[name] = handle.read()
    return tree


def _random_graph(rng, size=30):
    """A random graph with cycles, atoms and collection memberships."""
    graph = Graph("random")
    nodes = [Oid(f"n{i}") for i in range(size)]
    for node in nodes:
        graph.add_node(node)
        if rng.random() < 0.3:
            graph.add_to_collection(rng.choice("AB"), node)
        graph.add_edge(node, "value", Atom.int(rng.randrange(5)))
        for _ in range(rng.randrange(3)):
            graph.add_edge(node, rng.choice("xyz"), rng.choice(nodes))
    return graph


def _reachable(graph, start):
    seen, frontier = {start}, [start]
    while frontier:
        for edge in graph.out_edges(frontier.pop()):
            if isinstance(edge.target, Oid) and edge.target not in seen:
                seen.add(edge.target)
                frontier.append(edge.target)
    return seen


def _restrict(graph, keep):
    """A copy of ``graph`` holding only the nodes in ``keep``."""
    copy = Graph("restricted")
    for node in keep:
        copy.add_node(node)
        for edge in graph.out_edges(node):
            copy.add_edge(node, edge.label, edge.target)
        for name in graph.collections_of(node):
            copy.add_to_collection(name, node)
    return copy


class TestFingerprints:
    def test_stable_across_rebuilds(self):
        a, b = _site(), _site()
        page = Oid.skolem("RootPage", ())
        assert page_fingerprint(a.site_graph, page) == \
            page_fingerprint(b.site_graph, page)

    def test_sensitive_to_reachable_change(self):
        changed = fig2_data()
        changed.add_edge(Oid("pub1"), "note", Atom.string("errata"))
        a, b = _site(), _site(changed)
        # pub1 is reachable from the 1997 YearPage but not the 1998 one.
        year97 = Oid.skolem("YearPage", (Atom.int(1997),))
        year98 = Oid.skolem("YearPage", (Atom.int(1998),))
        assert page_fingerprint(a.site_graph, year97) != \
            page_fingerprint(b.site_graph, year97)
        assert page_fingerprint(a.site_graph, year98) == \
            page_fingerprint(b.site_graph, year98)

    def test_page_fingerprint_agrees_with_batch_pass(self):
        site = _site().site_graph
        batch = node_fingerprints(site)
        for page in HtmlGenerator(site, fig7_templates()).pages():
            assert page_fingerprint(site, page) == batch[page]

    @pytest.mark.parametrize("seed", range(6))
    def test_fingerprint_is_a_function_of_the_reachable_subgraph(
            self, seed):
        """On random cyclic graphs, each node's batch fingerprint equals
        the one computed over its forward-reachable subgraph alone, and
        an edit changes exactly the fingerprints of nodes reaching it."""
        rng = random.Random(seed)
        graph = _random_graph(rng)
        batch = node_fingerprints(graph)
        for node in graph.nodes():
            reach = _reachable(graph, node)
            assert node_fingerprints(_restrict(graph, reach))[node] == \
                batch[node]
        edited_node = rng.choice(list(graph.nodes()))
        graph.add_to_collection("Edited", edited_node)
        after = node_fingerprints(graph)
        for node in graph.nodes():
            changed = after[node] != batch[node]
            assert changed == (edited_node in _reachable(graph, node))

    def test_template_hash_covers_source_and_pageness(self):
        base = fig7_templates()
        edited = fig7_templates()
        edited.add("RootPage", "<h1>changed</h1>", as_page=True)
        assert hash_templates(base) != hash_templates(edited)
        assert hash_templates(base) == hash_templates(fig7_templates())


class TestBuildCache:
    def test_cold_build_equals_plain_build(self, tmp_path):
        plain, cached = str(tmp_path / "plain"), str(tmp_path / "cached")
        _site().build_site(plain)
        report = _site().build_site(cached,
                                    cache_dir=str(tmp_path / "cache"))
        assert report.reason == "cold"
        assert _read_tree(plain) == _read_tree(cached)

    def test_warm_rebuild_renders_nothing(self, tmp_path):
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        _site().build_site(out, cache_dir=cache)
        before = _read_tree(out)
        report = _site().build_site(out, cache_dir=cache)
        assert report.pages_rendered == 0
        assert report.pages_skipped > 0
        assert report.reason == "incremental"
        assert report.cache_hit_ratio == 1.0
        assert _read_tree(out) == before

    def test_template_edit_invalidates_everything(self, tmp_path):
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        _site().build_site(out, cache_dir=cache)
        edited = fig7_templates()
        edited.add("RootPage", "<h1>v2</h1><SFMTLIST @YearPage WRAP=UL>",
                   as_page=True)
        report = _site(templates=edited).build_site(out, cache_dir=cache)
        assert report.reason == "templates-changed"
        assert report.pages_skipped == 0
        with open(os.path.join(out, "RootPage__.html"),
                  encoding="utf-8") as handle:
            assert "v2" in handle.read()

    def test_data_change_rerenders_only_affected(self, tmp_path):
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        cold = _site().build_site(out, cache_dir=cache)
        changed = fig2_data()
        changed.add_edge(Oid("pub1"), "note", Atom.string("errata"))
        report = _site(changed).build_site(out, cache_dir=cache)
        assert report.reason == "incremental"
        assert 0 < report.pages_rendered < cold.pages_rendered
        rendered = {str(p) for p in report.written}
        # The 1998 year page cannot reach pub1: it must be cached.
        assert "YearPage(1998)" not in rendered
        # The cached result matches a from-scratch build exactly.
        fresh = str(tmp_path / "fresh")
        _site(changed).build_site(fresh)
        assert _read_tree(out) == _read_tree(fresh)

    def test_removed_page_file_deleted(self, tmp_path):
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        grown = fig2_data()
        pub3 = Oid("pub3")
        grown.add_to_collection("Publications", pub3)
        grown.add_edge(pub3, "year", Atom.int(1999))
        grown.add_edge(pub3, "title", Atom.string("Gone Soon"))
        _site(grown).build_site(out, cache_dir=cache)
        gone = os.path.join(out, "YearPage_1999_.html")
        assert os.path.exists(gone)
        report = _site().build_site(out, cache_dir=cache)
        assert not os.path.exists(gone)
        assert any(path.endswith("YearPage_1999_.html")
                   for path in report.removed_files)
        fresh = str(tmp_path / "fresh")
        _site().build_site(fresh)
        assert _read_tree(out) == _read_tree(fresh)

    def test_removed_page_file_deleted_when_templates_change(self,
                                                             tmp_path):
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        grown = fig2_data()
        pub3 = Oid("pub3")
        grown.add_to_collection("Publications", pub3)
        grown.add_edge(pub3, "year", Atom.int(1999))
        _site(grown).build_site(out, cache_dir=cache)
        edited = fig7_templates()
        edited.add("RootPage", "<h1>v2</h1>", as_page=True)
        report = _site(templates=edited).build_site(out, cache_dir=cache)
        assert report.reason == "templates-changed"
        assert not os.path.exists(os.path.join(out, "YearPage_1999_.html"))
        fresh = str(tmp_path / "fresh")
        _site(templates=edited).build_site(fresh)
        assert _read_tree(out) == _read_tree(fresh)

    def test_collection_membership_change_switches_template(self,
                                                             tmp_path):
        """A data edit that flips a page's ``COLLECT`` membership but
        leaves its site edges alone still switches its template (which
        is selected via ``collections_of``), so the page re-renders."""
        query = """
INPUT DATA
CREATE Index()
WHERE People(p), p->"name"->n
CREATE Page(p)
LINK Page(p)->"name"->n, Index()->"Person"->Page(p)
COLLECT Person(Page(p))
{ WHERE p->"featured"->f
  COLLECT Featured(Page(p)) }
OUTPUT Site
"""
        templates = TemplateSet()
        templates.add("Index", "<SFMTLIST @Person WRAP=UL>")
        templates.add("Person", "<h1>Person <SFMT @name></h1>")
        templates.add("Featured", "<h1>Featured <SFMT @name></h1>")
        data = Graph("DATA")
        for login in ("ann", "bob"):
            data.add_to_collection("People", Oid(login))
            data.add_edge(Oid(login), "name", Atom.string(login.title()))
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        Website(data, query, templates).build_site(out, cache_dir=cache)
        bob = Oid.skolem("Page", (Oid("bob"),))
        edges_before = Website(data, query, templates) \
            .site_graph.out_edges(bob)
        data.add_edge(Oid("bob"), "featured", Atom.string("yes"))
        site = Website(data, query, templates)
        assert site.site_graph.out_edges(bob) == edges_before
        report = site.build_site(out, cache_dir=cache)
        assert report.reason == "incremental"
        assert bob in report.written
        assert Oid.skolem("Page", (Oid("ann"),)) in report.skipped
        fresh = str(tmp_path / "fresh")
        Website(data, query, templates).build_site(fresh)
        assert _read_tree(out) == _read_tree(fresh)
        assert "Featured Bob" in _read_tree(out)[
            site.generator().url_for(bob)]

    def test_old_schema_cache_rebuilds_and_drops_site_graph(self,
                                                          tmp_path):
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        _site().build_site(out, cache_dir=cache)
        manifest_path = os.path.join(cache, "manifest.json")
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        # A schema-1 cache: same layout, plus the stored site graph.
        manifest["schema"] = 1
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        with open(os.path.join(cache, "site.json"), "w",
                  encoding="utf-8") as handle:
            handle.write('{"name": "HomePage", "nodes": []}')
        report = _site().build_site(out, cache_dir=cache)
        assert report.reason == "schema-changed"
        assert report.pages_skipped == 0
        assert not os.path.exists(os.path.join(cache, "site.json"))
        with open(manifest_path, encoding="utf-8") as handle:
            assert json.load(handle)["schema"] == 2
        again = _site().build_site(out, cache_dir=cache)
        assert again.reason == "incremental"
        assert again.pages_rendered == 0

    def test_corrupt_manifest_degrades_to_cold(self, tmp_path):
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        _site().build_site(out, cache_dir=cache)
        with open(os.path.join(cache, "manifest.json"), "w",
                  encoding="utf-8") as handle:
            handle.write("{not json")
        report = _site().build_site(out, cache_dir=cache)
        assert report.reason == "cold"
        assert report.pages_rendered > 0

    def test_deleted_output_file_rerendered(self, tmp_path):
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        _site().build_site(out, cache_dir=cache)
        victim = os.path.join(out, "RootPage__.html")
        os.unlink(victim)
        report = _site().build_site(out, cache_dir=cache)
        assert os.path.exists(victim)
        assert {str(p) for p in report.written} == {"RootPage()"}


class TestParallelBuild:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_output_identical_to_serial(self, tmp_path, jobs):
        serial, parallel = str(tmp_path / "s"), str(tmp_path / "p")
        _site().build_site(serial, jobs=1)
        report = _site().build_site(parallel, jobs=jobs)
        assert report.jobs == jobs
        assert _read_tree(serial) == _read_tree(parallel)

    def test_parallel_with_cache(self, tmp_path):
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        _site().build_site(out, jobs=4, cache_dir=cache)
        report = _site().build_site(out, jobs=4, cache_dir=cache)
        assert report.pages_rendered == 0
        fresh = str(tmp_path / "fresh")
        _site().build_site(fresh)
        assert _read_tree(out) == _read_tree(fresh)

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-2) >= 1


class TestRandomEditScripts:
    """Property-based differential check: for ANY edit script (adding
    and removing edges, nodes and collection memberships), the
    incremental rebuild's output directory is file-identical to a cold
    build of the same data.  Randomness is stdlib ``random`` with
    pinned seeds, so failures replay exactly.
    """

    STEPS = 10
    YEARS = list(range(1995, 2003))
    CATEGORIES = ["Semistructured Data", "Compilers", "Networking"]
    LABELS = ["note", "keyword", "doi"]
    KINDS = ["attribute", "year", "category", "new_pub", "replace",
             "detach_pub", "leave_collection"]
    REMOVALS = ("replace", "detach_pub", "leave_collection")

    @staticmethod
    def _rewrite(data, pub, label=None, value=None, drop=None):
        """Detach ``pub`` and re-add its edges and collections, with
        the first ``label`` edge's target replaced by ``value`` and the
        collection ``drop`` left out (as an edited source reload
        does)."""
        edges = [(edge.label, edge.target) for edge in data.out_edges(pub)]
        collections = data.collections_of(pub)
        data.detach_node(pub)
        for edge_label, target in edges:
            if edge_label == label:
                target, label = value, None
            data.add_edge(pub, edge_label, target)
        for name in collections:
            if name != drop:
                data.add_to_collection(name, pub)

    def _apply_edit(self, rng, data, step, kind):
        pubs = list(data.collection("Publications"))
        if kind in ("detach_pub", "leave_collection") and len(pubs) < 3:
            kind = "new_pub"    # keep the site from emptying out
        if kind == "attribute":
            data.add_edge(rng.choice(pubs), rng.choice(self.LABELS),
                          Atom.string(f"v{rng.randrange(10_000)}"))
        elif kind == "year":
            data.add_edge(rng.choice(pubs), "year",
                          Atom.int(rng.choice(self.YEARS)))
        elif kind == "category":
            data.add_edge(rng.choice(pubs), "category",
                          Atom.string(rng.choice(self.CATEGORIES)))
        elif kind == "replace":
            pub = rng.choice(pubs)
            label = rng.choice(data.labels_of(pub))
            self._rewrite(data, pub, label,
                          Atom.string(f"r{rng.randrange(10_000)}"))
        elif kind == "detach_pub":
            data.detach_node(rng.choice(pubs))
        elif kind == "leave_collection":
            self._rewrite(data, rng.choice(pubs), drop="Publications")
        else:
            pub = Oid(f"edit-pub{step}")
            data.add_to_collection("Publications", pub)
            data.add_edge(pub, "title", Atom.string(f"Edit Paper {step}"))
            data.add_edge(pub, "year", Atom.int(rng.choice(self.YEARS)))
            data.add_edge(pub, "category",
                          Atom.string(rng.choice(self.CATEGORIES)))

    def _apply_random_edit(self, rng, data, step):
        self._apply_edit(rng, data, step, rng.choice(self.KINDS))

    @pytest.mark.parametrize("kind", REMOVALS)
    def test_each_removal_edit_kind(self, tmp_path, kind):
        rng = random.Random(kind)
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        data = fig2_data()
        _site(data).build_site(out, cache_dir=cache)
        for step in range(2):
            self._apply_edit(rng, data, step, kind)
            report = _site(data).build_site(out, cache_dir=cache)
            assert report.reason == "incremental"
            fresh = str(tmp_path / f"fresh{step}")
            _site(data).build_site(fresh)
            assert _read_tree(out) == _read_tree(fresh), \
                f"{kind} step={step}: trees diverged"

    @pytest.mark.parametrize("seed", [0xBEEF, 0xCAFE])
    def test_incremental_equals_cold_after_every_edit(self, tmp_path,
                                                      seed):
        rng = random.Random(seed)
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        data = fig2_data()
        _site(data).build_site(out, cache_dir=cache)
        skipped_any = 0
        for step in range(self.STEPS):
            self._apply_random_edit(rng, data, step)
            report = _site(data).build_site(out, cache_dir=cache)
            assert report.reason == "incremental", \
                f"seed={seed:#x} step={step}: {report.reason}"
            skipped_any += report.pages_skipped
            fresh = str(tmp_path / f"fresh{step}")
            _site(data).build_site(fresh)
            assert _read_tree(out) == _read_tree(fresh), \
                f"seed={seed:#x} step={step}: trees diverged"
        # The cache earned its keep: across the script, at least some
        # pages were served from cache rather than re-rendered.
        assert skipped_any > 0

    def test_edit_script_with_parallel_jobs(self, tmp_path):
        """The same property holds when the incremental rebuild fans
        out across workers."""
        rng = random.Random(0xF00D)
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        data = fig2_data()
        _site(data).build_site(out, jobs=4, cache_dir=cache)
        for step in range(4):
            self._apply_random_edit(rng, data, step)
            _site(data).build_site(out, jobs=4, cache_dir=cache)
            fresh = str(tmp_path / f"fresh{step}")
            _site(data).build_site(fresh)
            assert _read_tree(out) == _read_tree(fresh)


class TestPlanningCost:
    """Planning and recording read each site node's out-edges a
    bounded number of times, however much the pages' reachable
    subgraphs overlap (on the org site almost every page reaches
    almost the whole graph)."""

    def test_out_edges_reads_are_linear_in_site_nodes(self, tmp_path,
                                                      monkeypatch):
        data = build_org_mediator(60, 3, 8).warehouse()
        data.name = "ORGDATA"
        templates = org_templates()
        calls = {"reads": 0, "depth": 0}
        out_edges = Graph.out_edges

        def counted_out_edges(self, source):
            if calls["depth"]:
                calls["reads"] += 1
            return out_edges(self, source)

        def counted(method):
            def wrapper(*args, **kwargs):
                calls["depth"] += 1
                try:
                    return method(*args, **kwargs)
                finally:
                    calls["depth"] -= 1
            return wrapper

        monkeypatch.setattr(Graph, "out_edges", counted_out_edges)
        monkeypatch.setattr(BuildCache, "plan", counted(BuildCache.plan))
        monkeypatch.setattr(BuildCache, "record",
                            counted(BuildCache.record))
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        site = Website(data, ORG_QUERY, templates)
        site.build_site(out, cache_dir=cache)
        nodes = site.site_graph.node_count
        assert calls["reads"] <= 2 * nodes, (calls["reads"], nodes)
        person = sorted(data.collection("Persons"), key=str)[0]
        data.add_edge(person, "phone", Atom.string("973-555-0000"))
        calls["reads"] = 0
        site = Website(data, ORG_QUERY, templates)
        report = site.build_site(out, cache_dir=cache)
        assert report.reason == "incremental"
        assert report.pages_rendered > 0
        nodes = site.site_graph.node_count
        assert calls["reads"] <= 2 * nodes, (calls["reads"], nodes)


class TestCachedGenerateFacade:
    def test_without_cache_is_full_build(self, tmp_path):
        site = _site()
        generator = HtmlGenerator(site.site_graph, site.templates)
        report = cached_generate(site.site_graph, generator,
                                 site.templates, str(tmp_path / "o"))
        assert report.reason == "full"
        assert report.pages_rendered == len(generator.pages())

    def test_cache_accepts_directory_string(self, tmp_path):
        site = _site()
        generator = HtmlGenerator(site.site_graph, site.templates)
        out = str(tmp_path / "o")
        cached_generate(site.site_graph, generator, site.templates,
                        out, cache=str(tmp_path / "c"))
        site2 = _site()
        generator2 = HtmlGenerator(site2.site_graph, site2.templates)
        report = cached_generate(site2.site_graph, generator2,
                                 site2.templates, out,
                                 cache=str(tmp_path / "c"))
        assert report.pages_rendered == 0

    def test_report_summary_line(self, tmp_path):
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
        _site().build_site(out, cache_dir=cache)
        report = _site().build_site(out, cache_dir=cache)
        assert report.summary().startswith("wrote 0 pages")
        assert "cached" in report.summary()

    def test_metrics_emitted(self, tmp_path):
        import repro.obs as obs
        with obs.recording() as rec:
            _site().build_site(str(tmp_path / "out"),
                               cache_dir=str(tmp_path / "cache"))
        metrics = rec.metrics
        assert metrics.counter("site.build.pages_rendered").value > 0
        assert metrics.gauge("site.build.jobs").value == 1
        def walk(span):
            yield span
            for child in span.children:
                yield from walk(child)
        spans = [s for root in rec.roots for s in walk(root)
                 if s.name == "site.build.page"]
        assert len(spans) == \
            metrics.counter("site.build.pages_rendered").value
